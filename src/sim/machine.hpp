// Machine: the simulated 1995 machine running a protocol stack over an
// arrival trace — the one queueing engine behind Figures 5-7, the
// ablations, the shard sweep and the batching-vs-pipelining figure.
//
// A message visits a chain of stations. A station is one server: it takes
// up to batch_limit queued messages per activation and runs its layer
// groups over the batch — group by group, the steps (layers) of a group
// back to back per message, as LDLP schedules it (section 3.1); one group
// of every layer at batch 1 is the conventional schedule. Every byte a
// step touches goes through sim::MemorySystem on the station's cache
// context, and every stall is charged. A station may be replicated over
// contexts (cores with private caches) by a steering vector. Stations and
// replicas are evaluated one at a time — each depends only on its input,
// and full queues drop, never block — so a run is a pure function of the
// machine and the trace.
//
// Time is in the arrival times' unit and clock_hz is cycles per unit:
// seconds with the CPU clock, or cycles with clock_hz = 1.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/memory_system.hpp"

namespace ldlp::sim {

/// One layer's work on one message: fetch its code, read its private
/// data, read the leading touch_bytes of the message buffer, and execute
/// `cycles` plus the byte loop over what it read.
struct Step {
  std::uint32_t scope = MemorySystem::kNoScope;  ///< Miss/cycle attribution.
  std::uint64_t code = 0;
  std::uint32_t code_bytes = 0;
  std::uint64_t data = 0;
  std::uint32_t data_bytes = 0;
  std::uint32_t touch_bytes = ~std::uint32_t{0};
  std::uint32_t cycles = 0;
  double cycles_per_byte = 0.0;
};

struct Station {
  /// Layer groups in order; a message pays the hand-off after each.
  std::vector<std::vector<Step>> groups;
  /// Copies of the station, each on its own cache context, and the replica
  /// each arrival is steered to (empty: all to replica 0).
  std::uint32_t replicas = 1;
  std::vector<std::uint32_t> steer;
  /// Replica r reads its private data at step.data + r * replica_stride.
  std::uint64_t replica_stride = 0;
  /// Receive buffers: if any, an admitted message holds the most recently
  /// freed one until it leaves, and an arrival that finds none is dropped.
  /// Otherwise a message reads the buffer its arrival names.
  std::vector<std::uint64_t> buffers;
};

struct Arrival {
  double time = 0.0;
  std::uint32_t bytes = 0;
  std::uint64_t buffer = 0;  ///< Message buffer address.
};

/// Work done on one cache context or in one scope.
struct Load {
  std::uint64_t messages = 0;  ///< Message visits.
  std::uint64_t batches = 0;   ///< Activations (a scope: group passes).
  std::uint64_t drops = 0;     ///< Refused at the station's queue.
  std::uint64_t busy_cycles = 0;
  std::uint64_t i_misses = 0;
  std::uint64_t d_misses = 0;
};

struct Summary {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;  ///< Left the last station.
  std::uint64_t dropped = 0;
  std::uint32_t batch_limit = 0;
  std::uint64_t busy_cycles = 0;  ///< All contexts.
  double end = 0.0;               ///< Last departure.
  /// Arrival to last departure, in time units. The mean is a running
  /// (Welford) mean in departure order; p50/p99 are order statistics.
  double mean_latency = 0.0;
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  double max_latency = 0.0;
  double i_miss_per_msg = 0.0;  ///< All contexts, per completed message.
  double d_miss_per_msg = 0.0;
  double mean_batch = 0.0;      ///< Messages per activation, all stations.
  std::vector<Load> contexts;   ///< Station by station, replica by replica.
  std::vector<Load> scopes;     ///< Indexed by Step::scope.
};

/// The machine and the stack laid out on it; run() replays a trace.
struct Machine {
  MemoryConfig memory{};  ///< Primary geometry of every context.
  double clock_hz = 100e6;           ///< Cycles per unit of time.
  std::uint32_t batch_limit = 0;     ///< Messages per activation; 0 = all.
  std::uint32_t activation_cycles = 0;  ///< Per batch, per station.
  std::uint32_t handoff_cycles = 0;     ///< Per message, per group.
  std::size_t queue_limit = 0;  ///< Queued messages per station; 0 = no cap.
  /// An idle station with a short queue waits until batch_limit messages
  /// have arrived or its oldest has waited this long (NIC rx-usecs).
  double coalesce = 0.0;
  std::vector<Station> stations;

  /// Run a time-sorted arrival trace through the chain on cold caches.
  [[nodiscard]] Summary run(std::span<const Arrival> arrivals) const;
};

}  // namespace ldlp::sim
