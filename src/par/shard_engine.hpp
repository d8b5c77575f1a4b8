// Receive-side flow sharding on the simulated machine.
//
// FlexTOE-style multi-queue receive meets LDLP batching: a Toeplitz flow
// hash spreads flows over N shards, each a core with a private primary
// cache pair that drains its queue in LDLP batches. At equal total load,
// what happens to per-shard i-cache misses and to queueing latency as the
// shard count grows from 1 (the paper's machine) to 8?
//
// The engine is sim::Machine, one station replicated over the shards.
// This file owns the layout: the flow-to-shard steering, layer code as
// shared text, layer/flow data per shard, and message buffers in a
// per-shard slot ring sized by the batch limit. A run is a pure function
// of the workload and the machine, seed included.
#pragma once

#include <cstdint>

#include "core/blocking.hpp"
#include "sim/machine.hpp"

namespace ldlp::par {

/// Poisson arrivals over `flows` client flows to one server, steered onto
/// `shards` cores.
struct ShardedRx {
  std::uint32_t shards = 1;
  std::uint32_t flows = 64;
  std::uint64_t messages = 20000;
  double arrival_rate_hz = 8000.0;  ///< Total offered load, all flows.
  core::StackFootprint stack{};     ///< Code/data/message footprints.
  std::uint32_t layer_cycles = 400; ///< Compute per layer per message.
  std::uint64_t seed = 1;
  bool symmetric = false;           ///< Symmetric (co-steering) flow hash.
};

/// Run the workload on `base`: its memory geometry per shard context and
/// its clock, with batch_limit 0 meaning the core::plan_shards estimate
/// and `coalesce` the receive coalescing window in seconds (0 = pure
/// polling). The machine runs in cycles; latencies come back in seconds.
/// contexts[s] is shard s.
[[nodiscard]] sim::Summary run(const ShardedRx& rx,
                               const sim::Machine& base = {});

/// Load-balance quality: the busiest shard's share of the messages over
/// the fair share (1.0 = perfectly even).
[[nodiscard]] double max_shard_share(const sim::Summary& summary) noexcept;

}  // namespace ldlp::par
