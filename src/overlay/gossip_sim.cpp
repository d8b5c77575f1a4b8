#include "overlay/gossip_sim.hpp"

#include <algorithm>
#include <memory>

#include "check/broadcast.hpp"
#include "check/invariants.hpp"
#include "check/overlay_audit.hpp"
#include "check/timer_audit.hpp"
#include "common/histogram.hpp"
#include "fault/injector.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "recover/deadline_oracle.hpp"
#include "recover/overlay_convergence.hpp"

namespace ldlp::overlay {
namespace {

/// "h<i>" -> i; -1 for anything else (same naming the fleet soak uses,
/// so gossip schedules shrink and replay with identical spec semantics).
int host_index(const std::string& name) {
  if (name.size() < 2 || name[0] != 'h') return -1;
  int value = 0;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    value = value * 10 + (name[i] - '0');
  }
  return value;
}

}  // namespace

GossipSimResult run_gossip_sim(const check::Schedule& schedule,
                               const GossipSimConfig& config) {
  GossipSimResult r;
  const auto expired = [&] {
    return config.deadline && config.deadline();
  };

  net::FabricConfig fabric_cfg;
  fabric_cfg.host_tick_sec = config.host_tick_sec;
  fabric_cfg.fault_seed = schedule.seed * 2 + 1;
  fabric_cfg.idle_skip_cap = config.idle_skip_cap;
  net::Fabric fabric(fabric_cfg);

  net::FatTreeConfig topo;
  topo.racks = config.racks;
  topo.hosts_per_rack = config.hosts_per_rack;
  topo.spines = config.spines;
  // Small pools keep allocation-failure paths hot, LDLP mode keeps the
  // batch scheduler in the loop; there is no TCP traffic here, so the
  // stack's UDP path carries everything.
  topo.proto.pool_mbufs = 384;
  topo.proto.pool_clusters = 96;
  topo.proto.mode = core::SchedMode::kLdlp;
  const std::vector<net::HostId> hosts = net::build_fat_tree(fabric, topo);
  // Wheel configuration (including the shed_guard mutation knob) must
  // land before the first arm — the overlay endpoints arm their wakeup
  // timers from their constructors.
  for (const net::HostId id : hosts)
    fabric.host(id).wheel().config() = config.wheel;

  // Fault wiring: the "fabric" spec is the topology-scoped plan, "h<i>"
  // specs are per-host churn injectors (restarts, device-scope noise).
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
  std::vector<fault::FaultInjector*> host_inj(hosts.size(), nullptr);
  std::vector<bool> restart_victim(hosts.size(), false);
  for (const check::InjectorSpec& spec : schedule.injectors) {
    if (spec.host == "fabric") {
      fabric.set_fault_plan(spec.plan, spec.rng_seed);
      continue;
    }
    const int index = host_index(spec.host);
    if (index < 0 || static_cast<std::size_t>(index) >= hosts.size())
      continue;  // shrunk/foreign spec: ignore
    injectors.push_back(
        std::make_unique<fault::FaultInjector>(spec.plan, spec.rng_seed));
    fabric.host(hosts[static_cast<std::size_t>(index)])
        .attach_fault(injectors.back().get());
    host_inj[static_cast<std::size_t>(index)] = injectors.back().get();
    for (const fault::Episode& e : spec.plan.episodes())
      if (e.kind == fault::FaultKind::kHostRestart)
        restart_victim[static_cast<std::size_t>(index)] = true;
  }
  const auto faults_cleared = [&] {
    if (!fabric.faults_cleared()) return false;
    for (const auto& injector : injectors)
      if (!injector->faults_cleared()) return false;
    return true;
  };

  // Per-host structural auditors, as every fleet scenario installs; each
  // runs from its host's post-pass hook.
  std::vector<std::unique_ptr<check::HostAuditor>> auditors;
  auditors.reserve(hosts.size());
  for (const net::HostId id : hosts) {
    auditors.push_back(std::make_unique<check::HostAuditor>(fabric.host(id)));
    auditors.back()->install();
  }

  // Timer oracles (the `clocks` scenario): TimerAuditor per host plus
  // one DeadlineOracle observing every wheel, attached before the overlay
  // endpoints arm their first timers.
  std::vector<std::unique_ptr<check::TimerAuditor>> timer_auditors;
  recover::DeadlineOracle deadlines;
  if (config.timer_oracles) {
    timer_auditors.reserve(hosts.size());
    for (const net::HostId id : hosts) {
      timer_auditors.push_back(
          std::make_unique<check::TimerAuditor>(fabric.host(id)));
      deadlines.attach(fabric.host(id));
    }
  }

  // The overlay fleet. Node i's identity is its IPv4; its bootstrap
  // contact is node 0 (node 0's own contact is node 1, so a restarted
  // bootstrap can rejoin too).
  OverlayConfig overlay_cfg = config.overlay;
  overlay_cfg.seed = schedule.seed;
  std::vector<std::unique_ptr<OverlayNode>> nodes;
  nodes.reserve(hosts.size());
  for (std::size_t i = 0; i < hosts.size(); ++i)
    nodes.push_back(std::make_unique<OverlayNode>(
        fabric.host(hosts[i]), net::host_ip(static_cast<std::uint32_t>(i)),
        overlay_cfg));

  // The three overlay oracles, over the views the pass hook refreshes.
  std::vector<check::OverlayView> views(nodes.size());
  std::vector<std::uint32_t> members;
  for (const auto& node : nodes) members.push_back(node->id());
  check::BroadcastDeliveryOracle delivery(std::move(members));
  check::ViewAuditor views_auditor(views, [&] { return fabric.now(); });
  recover::OverlayConvergenceOracle conv(views);
  conv.add_clearance(faults_cleared);
  std::vector<check::Judge*> per_pass = {&views_auditor, &conv};
  if (config.timer_oracles) {
    for (const auto& ta : timer_auditors) per_pass.push_back(ta.get());
    per_pass.push_back(&deadlines);
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (restart_victim[i]) delivery.mark_unstable(nodes[i]->id());
    OverlayNode* node = nodes[i].get();
    node->set_deliver_hook(
        [&delivery, node](MsgId id, std::span<const std::uint8_t> payload) {
          delivery.delivered(node->id(), id.origin, id.seq, payload);
        });
  }

  // Per tick round: poll every endpoint, snapshot the views, step the
  // judges.
  const auto refresh_views = [&] {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i]->fill_view(views[i]);
      views[i].live = host_inj[i] == nullptr || !host_inj[i]->host_down();
    }
  };
  fabric.set_pass_hook([&] {
    const double now = fabric.now();
    for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i]->poll(now);
    refresh_views();
    for (check::Judge* judge : per_pass) judge->on_pass();
  });

  // Phase 1+2 are interleaved: joins stagger across join_window_sec while
  // the storm's broadcasts pace across the fault horizon, so dissemination
  // and membership repair run concurrently with the adversity.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId contact = net::host_ip(i == 0 ? 1 : 0);
    const double when =
        config.join_window_sec * static_cast<double>(i) /
        static_cast<double>(nodes.size());
    nodes[i]->join(contact, when);
  }

  // Deterministic storm plan: origin k and fire time drawn from the seed,
  // origins restricted to stable (never-restarting) nodes.
  std::vector<std::size_t> stable_nodes;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    if (!restart_victim[i]) stable_nodes.push_back(i);
  if (stable_nodes.empty()) {
    r.fail("no stable node to originate broadcasts");
    return r;
  }
  Rng storm_rng(schedule.seed ^ 0x60551bULL);
  struct PlannedCast {
    double at;
    std::size_t origin;
  };
  std::vector<PlannedCast> storm(config.storm_broadcasts);
  const double storm_begin = config.join_window_sec * 0.5;
  const double storm_end = config.fault_horizon_sec + 0.4;
  for (std::size_t k = 0; k < storm.size(); ++k) {
    storm[k].at = storm_rng.uniform(storm_begin, storm_end);
    storm[k].origin = stable_nodes[storm_rng.bounded(stable_nodes.size())];
  }
  std::sort(storm.begin(), storm.end(),
            [](const PlannedCast& a, const PlannedCast& b) {
              return a.at < b.at;
            });

  std::uint32_t payload_salt = 0;
  const auto cast_from = [&](std::size_t origin) {
    std::vector<std::uint8_t> payload(config.payload_bytes);
    std::uint64_t mix = schedule.seed ^ (++payload_salt * 0x9e3779b9ULL);
    for (auto& b : payload) b = static_cast<std::uint8_t>(splitmix64(mix));
    // Ground truth first: broadcast() delivers to the origin synchronously,
    // and the oracle must already know the id when that hook fires.
    const MsgId id = nodes[origin]->next_broadcast_id();
    delivery.broadcast(id.origin, id.seq, payload);
    (void)nodes[origin]->broadcast(payload, fabric.now());
  };

  std::size_t fired = 0;
  while (fired < storm.size() && !expired()) {
    // Fire everything due at this horizon. The clock itself can stop short
    // of `due` when no event lands inside the window (run_until only
    // advances now() by popping events), so gate on the horizon we asked
    // for, never on fabric.now().
    const double due = storm[fired].at;
    fabric.run_until(due);
    while (fired < storm.size() && storm[fired].at <= due) {
      cast_from(storm[fired].origin);
      ++fired;
    }
  }
  fabric.run_until(std::max(fabric.now(), storm_end));

  // Phase 3: heal and converge. Beacons from a stable node keep the
  // anti-entropy window fresh so any subtree orphaned by churn grafts
  // back in; the loop runs until the views hold still AND every stable
  // member has everything, then one final beacon-free drain settles the
  // last deliveries.
  conv.arm();
  const auto all_complete = [&] {
    for (const std::size_t i : stable_nodes)
      if (!delivery.complete(nodes[i]->id())) return false;
    return true;
  };
  double next_beacon = fabric.now() + 0.5;
  for (int iter = 0; iter < 160 && !expired(); ++iter) {
    if (conv.settled() && all_complete()) break;
    if (fabric.now() >= next_beacon) {
      cast_from(stable_nodes.front());
      next_beacon = fabric.now() + 0.5;
    }
    fabric.run_for(0.25);
  }
  for (int iter = 0; iter < 40 && !all_complete() && !expired(); ++iter)
    fabric.run_for(0.25);

  if (expired())
    r.fail("seed wall-clock budget exceeded (--seed_timeout_ms)");
  else if (!conv.settled())
    r.fail("overlay never converged (views still churning)");
  else if (!all_complete())
    r.fail("broadcast delivery incomplete after drain");

  // Phase 4: judgement. Final view snapshot for the shape checks.
  refresh_views();
  views_auditor.finalize();
  conv.finalize();
  delivery.finalize();
  r.fold(views_auditor, "view");
  r.fold(conv, "conv");
  r.fold(delivery, "bcast");

  // Fabric hygiene, exactly as the fleet scenario asserts it: faults
  // drained, graphs empty, pools leak-free, frame ledger balanced. Mute
  // the endpoints first but keep polling: timers stop feeding the fabric
  // while the in-flight tail still lands and drains out of the sockets —
  // removing the hook before the tail settles would strand the last
  // datagrams in socket queues and read as an mbuf leak.
  for (const auto& node : nodes) node->set_muted(true);
  const auto arp_parked = [&] {
    for (const net::HostId id : hosts)
      if (fabric.host(id).eth().arp().pending_total() != 0) return true;
    return false;
  };
  // ARP parks count too: a probe parked behind an unresolved neighbor
  // holds an mbuf until the resolution lands or the retry ladder gives
  // up (~15 s of sim time worst case), so the settle loop waits for both.
  for (int i = 0; i < 80 && (!faults_cleared() || arp_parked()) && !expired();
       ++i)
    fabric.run_for(0.5);
  fabric.set_pass_hook(nullptr);
  if (!faults_cleared() && !expired())
    r.fail("faults never cleared (active episodes or frames in flight)");
  for (const net::HostId id : hosts) fabric.host(id).attach_fault(nullptr);
  for (const net::HostId id : hosts) check::check_teardown(fabric.host(id), r);
  if (fabric.conservation_residual() != 0)
    r.fail("fabric conservation violated (residual " +
           std::to_string(fabric.conservation_residual()) + ")");
  for (const auto& aud : auditors) r.fold(*aud, "audit");

  // Evidence summary.
  LogHistogram repair_hist(1e-3, 1e2, 20);
  std::uint64_t useful = 0;
  for (const auto& node : nodes) {
    const OverlayStats& s = node->stats();
    r.broadcasts += s.broadcasts;
    r.deliveries += s.deliveries;
    r.gossip_rx += s.gossip_rx;
    r.duplicates += s.duplicates;
    r.grafts += s.grafts_tx;
    r.prunes += s.prunes_tx;
    r.repairs_done += s.repairs_done;
    r.probes_suppressed += s.probes_suppressed;
    useful += s.deliveries - s.broadcasts;  // non-origin deliveries
    for (const double latency : node->repair_latencies())
      repair_hist.add(latency);
  }
  r.suppressed_ticks = fabric.suppressed_ticks();
  r.relay_redundancy =
      useful > 0 ? static_cast<double>(r.gossip_rx) /
                       static_cast<double>(useful)
                 : 0.0;
  const check::BroadcastStats& bs = delivery.stats();
  const std::uint64_t owed =
      bs.broadcasts * (stable_nodes.size() - 1);
  r.delivery_completeness =
      owed > 0 && delivery.ok()
          ? 1.0
          : (owed > 0 ? static_cast<double>(bs.deliveries) /
                            static_cast<double>(owed)
                      : 0.0);
  if (r.delivery_completeness > 1.0) r.delivery_completeness = 1.0;
  r.repair_p99_sec = repair_hist.count() > 0 ? repair_hist.quantile(0.99) : 0.0;
  r.sim_time_sec = fabric.now();
  if (r.pass && r.broadcasts == 0)
    r.fail("no broadcasts issued (storm never started)");

  // Timer judgement last: destroy the endpoints first so their wakeup
  // timers cancel — after that, anything still armed beyond the PCB/ARP
  // consolidated timers is a leak the final audit flags.
  if (config.timer_oracles) {
    nodes.clear();
    for (const auto& ta : timer_auditors) {
      ta->finalize();
      r.fold(*ta, "timer");
    }
    deadlines.finalize();
    deadlines.detach();
    r.fold(deadlines, "deadline");
  }
  for (const net::HostId id : hosts) {
    const time::WheelStats& ws = fabric.host(id).wheel().stats();
    r.timer_arms += ws.arms;
    r.timer_fires += ws.fires;
    r.timer_cancels += ws.cancels;
    r.timer_spurious += ws.spurious_fires;
    r.timer_shed += ws.shed;
  }
  return r;
}

}  // namespace ldlp::overlay
