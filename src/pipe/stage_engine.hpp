// The batching-vs-pipelining head-to-head on the simulated machine (the
// paper's 8 KB direct-mapped primary caches, 20-cycle miss): the staged
// receive path of pipeline.hpp — parse -> steer -> proto -> socket — as a
// sim::Machine under the three schedules.
//
//  * kLdlp      — one core: one station whose four groups are the stages.
//                 The stages' code (~16.5 KB) exceeds the 8 KB i-cache, so
//                 every batch refetches it — once per *batch*, the paper's
//                 amortisation — while the message stays in one d-cache.
//  * kPipelined — a chain of four single-stage stations, one core and
//                 cache context each, batch 1. Each stage's code stays
//                 resident (i-miss ~0, FlexTOE's bet), but every message
//                 is fetched into *four* d-caches and pays a per-message
//                 activation and hand-off.
//  * kHybrid    — the same chain, each stage draining an LDLP batch, so
//                 activations amortise while code residency is kept.
//
// Scope s is stage s, so Summary::scopes[s] is the per-stage breakdown in
// every mode. Bounded stage queues drop deterministically when full.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pipe/pipeline.hpp"
#include "sim/machine.hpp"
#include "traffic/arrivals.hpp"

namespace ldlp::pipe {

/// The staged path under `mode`: 250-cycle stage activations (cross-core
/// doorbell + schedule; kLdlp pays one per batch), the paper's 40-cycle
/// queue hand-off per message per stage, 512-deep stage queues, and
/// batches of `batch_limit` (0 = all queued; kPipelined always 1).
[[nodiscard]] sim::Machine machine(RxMode mode,
                                         std::uint32_t batch_limit = 16);

/// The trace's messages in the shared buffer ring: every stage touches a
/// message at one address — the zero-copy pointer hand-off.
[[nodiscard]] std::vector<sim::Arrival> arrivals(
    std::span<const traffic::PacketArrival> trace);

}  // namespace ldlp::pipe
