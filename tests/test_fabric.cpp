// ldlp::net — the multi-host fabric: star/fat-tree/WAN topologies, MAC
// learning and valley-free flooding, bounded link queues, topology-scoped
// fault domains (partition / heal), frame conservation, determinism, and
// ddmin shrinking of fleet schedules.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "check/schedule.hpp"
#include "check/shrink.hpp"
#include "check_testing.hpp"
#include "fault/fault_plan.hpp"
#include "net/fabric.hpp"
#include "net/fleet_plan.hpp"
#include "net/topology.hpp"
#include "obs/bridge.hpp"
#include "obs/metrics.hpp"
#include "recover/convergence.hpp"
#include "recover/partition_heal.hpp"
#include "recover/watchdog.hpp"
#include "stack/host.hpp"

namespace ldlp {
namespace {

/// One src->dst TCP stream on a fabric, drip-fed and read by the caller.
struct Stream {
  net::Fabric* fabric = nullptr;
  stack::Host* src = nullptr;
  stack::Host* dst = nullptr;
  stack::PcbId conn = stack::kNoPcb;
  stack::PcbId accepted = stack::kNoPcb;
  stack::SocketId rx_socket = stack::kNoSocket;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> got;
  std::size_t chunk_bytes = 500;  ///< Per-step send size (drip by default).

  void open(net::Fabric& f, net::HostId s, net::HostId d,
            std::uint16_t port, std::size_t bytes) {
    fabric = &f;
    src = &f.host(s);
    dst = &f.host(d);
    payload.resize(bytes);
    for (std::size_t i = 0; i < bytes; ++i)
      payload[i] = static_cast<std::uint8_t>(i * 17 + 3);
    dst->tcp().set_accept_hook([this](stack::PcbId id) {
      if (rx_socket == stack::kNoSocket) {
        accepted = id;
        rx_socket = dst->tcp().socket_of(id);
      }
    });
    (void)dst->tcp().listen(port);
    conn = src->tcp().connect(net::host_ip(d), port);
  }

  /// One driver step: queue the remaining payload once established, read
  /// whatever arrived. Returns true when the full payload has landed.
  bool step() {
    if (sent_ < payload.size() &&
        src->tcp().state(conn) == stack::TcpState::kEstablished) {
      const std::size_t n =
          std::min<std::size_t>(chunk_bytes, payload.size() - sent_);
      if (src->tcp().send(
              conn, std::span(payload).subspan(sent_, n)))
        sent_ += n;
    }
    if (rx_socket != stack::kNoSocket) {
      std::uint8_t chunk[1024];
      const std::size_t n = dst->sockets().read(rx_socket, chunk);
      got.insert(got.end(), chunk, chunk + n);
    }
    return got.size() >= payload.size();
  }

  [[nodiscard]] bool run(double step_sec, int max_steps) {
    for (int i = 0; i < max_steps; ++i) {
      if (step()) return true;
      fabric->run_for(step_sec);
    }
    return step();
  }

  /// Orderly teardown of both ends (a one-sided close parks the peer in
  /// FIN_WAIT_2 forever, which the convergence oracle rightly condemns).
  void close_both() {
    src->tcp().close(conn);
    if (accepted != stack::kNoPcb) dst->tcp().close(accepted);
  }

 private:
  std::size_t sent_ = 0;
};

// ---- Star: basic reachability and conservation -------------------------

TEST(Fabric, StarDeliversAndConserves) {
  net::Fabric fabric({/*host_tick_sec=*/1e-3, /*fault_seed=*/1});
  net::StarConfig star;
  star.hosts = 4;
  const auto hosts = net::build_star(fabric, star);
  ASSERT_EQ(fabric.host_count(), 4u);
  ASSERT_EQ(fabric.switch_count(), 1u);
  ASSERT_EQ(fabric.link_count(), 4u);

  Stream s;
  s.open(fabric, hosts[0], hosts[3], 4000, 8000);
  ASSERT_TRUE(s.run(0.01, 400));
  EXPECT_EQ(s.got, s.payload);
  // Unicast converges onto learned MAC entries: the switch forwards far
  // more than it floods once the first exchange has seeded the fdb.
  EXPECT_GT(fabric.switch_stats(0).forwarded, fabric.switch_stats(0).flooded);
  EXPECT_EQ(fabric.conservation_residual(), 0);
}

TEST(Fabric, BoundedQueuesDropButConserve) {
  net::Fabric fabric({/*host_tick_sec=*/1e-3, /*fault_seed=*/1});
  net::StarConfig star;
  star.hosts = 2;
  // A starved slow link: 1-frame queue, 1 Mbit/s (a full segment
  // serializes for ~12 ms, spanning many ticks). The sender's bursts
  // must overrun it; the ledger must still balance exactly.
  star.access = {/*delay_sec=*/1e-4, /*gbit_per_sec=*/0.001,
                 /*queue_frames=*/1};
  const auto hosts = net::build_star(fabric, star);
  Stream s;
  s.open(fabric, hosts[0], hosts[1], 4000, 20000);
  s.chunk_bytes = s.payload.size();  // one burst: cwnd-paced back-to-back
  (void)s.run(0.01, 500);
  std::uint64_t queue_drops = 0;
  for (net::LinkId id = 0; id < fabric.link_count(); ++id)
    for (int dir = 0; dir < 2; ++dir)
      queue_drops += fabric.link_stats(id, dir).queue_drops;
  EXPECT_GT(queue_drops, 0u);
  EXPECT_EQ(fabric.conservation_residual(), 0);
}

// ---- Fat-tree: valley-free forwarding, no storms, no duplicates --------

TEST(Fabric, FatTreeMultiSpineIsLoopAndDuplicateFree) {
  net::Fabric fabric({/*host_tick_sec=*/1e-3, /*fault_seed=*/1});
  net::FatTreeConfig topo;
  topo.racks = 3;
  topo.hosts_per_rack = 2;
  topo.spines = 2;  // redundant paths: a learning switch alone would storm
  const auto hosts = net::build_fat_tree(fabric, topo);

  recover::PartitionHealOracle heal;  // exactly-once = duplicate detector
  const auto pid = heal.open_pair(fabric.host(hosts[0]).name(),
                                  fabric.host(hosts[5]).name());
  stack::Host& dst = fabric.host(hosts[5]);
  dst.sockets().set_tap(&heal.rx_tap(dst.name()));
  Stream s;
  s.open(fabric, hosts[0], hosts[5], 4000, 6000);
  dst.tcp().set_accept_hook([&](stack::PcbId id) {
    if (s.rx_socket == stack::kNoSocket) {
      s.rx_socket = dst.tcp().socket_of(id);
      heal.bind_rx(pid, s.rx_socket);
    }
  });
  fabric.host(hosts[0]).tcp().set_send_tap(
      [&](stack::PcbId id, std::span<const std::uint8_t> bytes) {
        if (id == s.conn) heal.sent(pid, bytes);
      });
  ASSERT_TRUE(s.run(0.01, 400));
  EXPECT_EQ(s.got, s.payload);
  heal.finalize();
  EXPECT_TRUE(clean(heal));
  // The broadcast ARP resolution must not have stormed: with valley-free
  // flooding every broadcast crosses each switch at most once.
  EXPECT_EQ(fabric.conservation_residual(), 0);
  std::uint64_t flooded = 0;
  for (net::SwitchId id = 0; id < fabric.switch_count(); ++id)
    flooded += fabric.switch_stats(id).flooded;
  EXPECT_LT(flooded, 200u);  // a storm would be unbounded (queue-capped)
  dst.sockets().set_tap(nullptr);
}

// ---- Fault domains: switch partition cuts the subtree, then heals ------

TEST(Fabric, SwitchFaultPartitionsAndHeals) {
  net::Fabric fabric({/*host_tick_sec=*/1e-3, /*fault_seed=*/1});
  net::StarConfig star;
  star.hosts = 4;
  const auto hosts = net::build_star(fabric, star);

  fault::FaultPlan plan;
  fault::Episode cut;
  cut.kind = fault::FaultKind::kPartition;
  cut.start = 0.05;
  cut.end = 0.60;
  cut.domain = fault::FaultDomain::kSwitch;
  cut.domain_index = 0;  // the star's hub: everything dark at once
  plan.add(cut);
  fabric.set_fault_plan(plan, /*seed=*/7);

  // The domain covers every access link, both directions, only inside
  // the window.
  for (net::LinkId id = 0; id < fabric.link_count(); ++id) {
    EXPECT_TRUE(fabric.link_cut(id, 0, 0.3));
    EXPECT_TRUE(fabric.link_cut(id, 1, 0.3));
    EXPECT_FALSE(fabric.link_cut(id, 0, 0.01));
    EXPECT_FALSE(fabric.link_cut(id, 0, 0.7));
  }

  // Budgets are sim-time allowances divided by the tick: at this 1 ms
  // tick the capped rto_max (8 s) silent gap is 8000 passes, and the
  // post-heal retransmit ladder needs the same 10x scale-up over the
  // 50 ms-tick defaults.
  recover::ConvergenceOracle conv({/*budget_passes=*/20000});
  recover::ProgressWatchdog dog({/*stall_passes=*/10000});
  for (const net::HostId id : hosts) {
    conv.add_host(fabric.host(id));
    dog.add_host(fabric.host(id));
  }
  conv.add_clearance([&] { return fabric.faults_cleared(); });
  dog.add_clearance([&] { return fabric.faults_cleared(); });
  fabric.set_pass_hook([&] {
    conv.on_pass();
    dog.on_pass();
  });

  Stream s;
  s.open(fabric, hosts[1], hosts[2], 4000, 6000);
  // Mid-partition nothing can have arrived (the SYN died on the wire).
  fabric.run_until(0.3);
  (void)s.step();
  EXPECT_TRUE(s.got.empty());
  std::uint64_t fault_drops = 0;
  for (net::LinkId id = 0; id < fabric.link_count(); ++id)
    for (int dir = 0; dir < 2; ++dir)
      fault_drops += fabric.link_stats(id, dir).fault_drops;
  EXPECT_GT(fault_drops, 0u);

  // After the heal, retransmission completes the stream byte-exact.
  ASSERT_TRUE(s.run(0.01, 2000));
  EXPECT_EQ(s.got, s.payload);
  EXPECT_EQ(fabric.conservation_residual(), 0);

  // And the fleet oracles settle: armed post-traffic, every connection
  // reaches a terminal/converged state within budget, no stalls flagged.
  s.close_both();
  conv.arm();
  for (int i = 0; i < 400 && !conv.settled(); ++i) fabric.run_for(0.05);
  EXPECT_TRUE(conv.settled());
  EXPECT_TRUE(clean(conv));
  EXPECT_TRUE(clean(dog));
}

TEST(Fabric, AsymmetricPartitionCutsOneDirection) {
  net::Fabric fabric({/*host_tick_sec=*/1e-3, /*fault_seed=*/1});
  net::StarConfig star;
  star.hosts = 2;
  (void)net::build_star(fabric, star);
  fault::FaultPlan plan;
  fault::Episode cut;
  cut.kind = fault::FaultKind::kPartition;
  cut.start = 0.0;
  cut.end = 1.0;
  cut.domain = fault::FaultDomain::kLink;
  cut.domain_index = 0;
  cut.direction = fault::kDirAtoB;
  plan.add(cut);
  fabric.set_fault_plan(plan, 7);
  EXPECT_TRUE(fabric.link_cut(0, 0, 0.5));
  EXPECT_FALSE(fabric.link_cut(0, 1, 0.5));   // reverse direction clean
  EXPECT_FALSE(fabric.link_cut(1, 0, 0.5));   // other link untouched
}

// ---- WAN pair: two sites over one long link ----------------------------

TEST(Fabric, WanPairCrossesSites) {
  net::Fabric fabric({/*host_tick_sec=*/1e-3, /*fault_seed=*/1});
  net::WanPairConfig topo;
  topo.hosts_per_site = 2;
  const auto hosts = net::build_wan_pair(fabric, topo);
  ASSERT_EQ(fabric.site_count(), 2u);
  Stream s;
  s.open(fabric, hosts[0], hosts[3], 4000, 4000);  // site 0 -> site 1
  ASSERT_TRUE(s.run(0.05, 400));
  EXPECT_EQ(s.got, s.payload);
  EXPECT_EQ(fabric.conservation_residual(), 0);

  // A site-domain partition darkens only links touching that site.
  fault::FaultPlan plan;
  fault::Episode cut;
  cut.kind = fault::FaultKind::kPartition;
  cut.start = 0.0;
  cut.end = 1e9;
  cut.domain = fault::FaultDomain::kSite;
  cut.domain_index = 1;
  plan.add(cut);
  fabric.set_fault_plan(plan, 7);
  const double t = fabric.now() + 0.001;
  EXPECT_FALSE(fabric.link_cut(0, 0, t));  // site-0 access link clean
  EXPECT_TRUE(fabric.link_cut(2, 0, t));   // site-1 access link dark
  EXPECT_TRUE(fabric.link_cut(4, 0, t));   // the WAN link touches site 1
}

// ---- Determinism: same build + workload => bit-identical counters ------

obs::Snapshot fleet_snapshot() {
  net::Fabric fabric({/*host_tick_sec=*/1e-3, /*fault_seed=*/42});
  net::FatTreeConfig topo;
  topo.racks = 2;
  topo.hosts_per_rack = 2;
  topo.spines = 2;
  const auto hosts = net::build_fat_tree(fabric, topo);
  fabric.set_fault_plan(
      net::random_fleet_plan(9, 0.5, net::shape_of(fabric), 4), 43);
  Stream s;
  s.open(fabric, hosts[0], hosts[3], 4000, 5000);
  (void)s.run(0.01, 200);
  obs::Registry reg;
  obs::publish_fabric(reg, fabric);
  return reg.snapshot();
}

TEST(Fabric, RunsAreBitIdentical) {
  const std::string a = fleet_snapshot().to_json().dump(2);
  const std::string b = fleet_snapshot().to_json().dump(2);
  EXPECT_EQ(a, b);
}

// ---- Fleet plans shrink with ddmin -------------------------------------

TEST(Fabric, FleetScheduleShrinksToCulpritEpisode) {
  // A fleet schedule whose only *fatal* episode is the hub-switch
  // partition; the other episodes are noise. The failure predicate
  // rebuilds the fabric from the candidate schedule — exactly what
  // chaos_soak --replay does — and asks whether host 0's access link is
  // dark mid-run. ddmin must isolate the single culprit.
  const auto build_plan = [](const check::Schedule& s) {
    for (const auto& spec : s.injectors)
      if (spec.host == "fabric") return spec.plan;
    return fault::FaultPlan{};
  };
  const auto fails = [&](const check::Schedule& s) {
    net::Fabric fabric({1e-3, 1});
    net::StarConfig star;
    star.hosts = 4;
    (void)net::build_star(fabric, star);
    fabric.set_fault_plan(build_plan(s), 7);
    return fabric.link_cut(/*link=*/0, /*direction=*/0, /*t=*/0.25);
  };

  check::Schedule schedule;
  schedule.scenario = "fleet";
  schedule.seed = 5;
  fault::FaultPlan plan = net::random_fleet_plan(
      5, 1.0, {/*links=*/4, /*switches=*/1, /*racks=*/1, /*sites=*/1,
               /*hosts=*/4});
  fault::Episode culprit;
  culprit.kind = fault::FaultKind::kPartition;
  culprit.start = 0.2;
  culprit.end = 0.3;
  culprit.domain = fault::FaultDomain::kSwitch;
  culprit.domain_index = 0;
  plan.add(culprit);
  schedule.injectors.push_back({"fabric", 7, plan});
  ASSERT_TRUE(fails(schedule));

  const check::ShrinkResult minimal = check::shrink(schedule, fails);
  EXPECT_TRUE(minimal.converged);
  ASSERT_EQ(minimal.schedule.episode_count(), 1u);
  const fault::Episode kept = build_plan(minimal.schedule).episodes().at(0);
  EXPECT_EQ(kept.kind, fault::FaultKind::kPartition);
  EXPECT_EQ(kept.domain, fault::FaultDomain::kSwitch);
}

}  // namespace
}  // namespace ldlp
