// One oracle-judged gossip run on a fat-tree fabric, shared verbatim by
// the chaos soak (`--scenario=gossip`), the perf gate
// (`gate_gossip_soak`) and the unit tests — one implementation, three
// judges, so a soak failure reproduces exactly under the debugger.
//
// Timeline of a run:
//   1. staggered joins — every node joins through its bootstrap contact
//      across `join_window_sec`, while the schedule's fault plan is
//      already live (joins must survive adversity too);
//   2. broadcast storm — `storm_broadcasts` messages from seed-chosen
//      *stable* origins (never a restart victim), paced to span the
//      whole fault horizon;
//   3. heal + converge — after the horizon, periodic beacon broadcasts
//      from node 0 keep the digest window fresh (orphaned subtrees
//      graft back in) until the OverlayConvergenceOracle reports the
//      views held still and the BroadcastDeliveryOracle reports every
//      stable member delivered everything;
//   4. judgement — ViewAuditor::finalize (link symmetry),
//      OverlayConvergenceOracle::finalize (single connected eager tree),
//      BroadcastDeliveryOracle::finalize (exactly-once completeness),
//      plus the fabric's own conservation ledger, the per-host teardown
//      check (check::check_teardown) and invariant auditors.
//
// Everything is a deterministic function of the check::Schedule, so
// ldlp.schedule.v1 replay and the ddmin shrinker work on gossip seeds
// unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/judge.hpp"
#include "check/schedule.hpp"
#include "overlay/overlay.hpp"
#include "time/timer_wheel.hpp"

namespace ldlp::overlay {

struct GossipSimConfig {
  std::size_t racks = 8;
  std::size_t hosts_per_rack = 8;
  std::size_t spines = 2;
  double host_tick_sec = 5e-3;
  /// Idle-host tick coalescing (FabricConfig::idle_skip_cap): gossip
  /// fleets are mostly idle between bursts, and 64 hosts need the
  /// headroom to fit the soak budget. The skip is wheel-driven — a host
  /// only coalesces rounds its timer wheel proves are dead time.
  std::uint32_t idle_skip_cap = 16;
  double join_window_sec = 0.6;   ///< Joins staggered across this window.
  double fault_horizon_sec = 2.0; ///< Matches the schedule's plan horizon.
  std::size_t storm_broadcasts = 40;
  std::size_t payload_bytes = 32;
  OverlayConfig overlay{};
  /// Per-host wheel configuration, applied to every host before any
  /// timer arms. The `clocks` scenario's mutation knob lives here:
  /// shed_guard=false re-introduces stale-timer shedding, the bug class
  /// the DeadlineOracle exists to catch.
  time::WheelConfig wheel{};
  /// Attach the timer oracles: a check::TimerAuditor per host (monotone
  /// clocks, rtx-armed-iff-in-flight wheel-side, no leaked timers after
  /// teardown) and one recover::DeadlineOracle over every wheel (armed
  /// timers fire or cancel; shedding never eats a liveness timer). The
  /// `clocks` scenario turns this on; the plain gossip soak leaves the
  /// wheels unobserved.
  bool timer_oracles = false;
  /// Abort predicate polled inside the drain loops (the soak wires its
  /// per-seed wall-clock deadline here). Null = never.
  std::function<bool()> deadline;
};

/// The verdict (pass, first failure, tagged judge findings) plus the
/// run's protocol evidence.
struct GossipSimResult : check::Verdict {
  // Aggregated protocol evidence (summed over nodes).
  std::uint64_t broadcasts = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t gossip_rx = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t grafts = 0;
  std::uint64_t prunes = 0;
  std::uint64_t repairs_done = 0;
  std::uint64_t probes_suppressed = 0;
  std::uint64_t suppressed_ticks = 0;

  // Fleet-summed timer-wheel evidence (always collected; judged only
  // when GossipSimConfig::timer_oracles is set).
  std::uint64_t timer_arms = 0;
  std::uint64_t timer_fires = 0;
  std::uint64_t timer_cancels = 0;
  std::uint64_t timer_spurious = 0;  ///< Storm-induced early fires.
  std::uint64_t timer_shed = 0;      ///< Dropped timers + excess storm demand.
  /// Payload receptions per useful delivery — 1.0 is a perfect tree;
  /// the gap above 1.0 is relay redundancy (duplicates PlumTree prunes).
  double relay_redundancy = 0.0;
  /// Fraction of (message, stable member) pairs delivered; 1.0 required.
  double delivery_completeness = 0.0;
  double repair_p99_sec = 0.0;  ///< 0 when no repair completed.
  double sim_time_sec = 0.0;
};

/// Run one gossip scenario for `schedule` (fault plans parsed exactly as
/// the fleet scenario does: spec "fabric" = the topology-scoped plan,
/// "h<i>" = per-host churn injectors).
GossipSimResult run_gossip_sim(const check::Schedule& schedule,
                               const GossipSimConfig& config = {});

}  // namespace ldlp::overlay
