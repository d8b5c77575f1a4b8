// Chaos tests: every protocol scenario in the library runs under a
// seeded FaultPlan — loss bursts, corruption, duplication, reordering,
// delay jitter, device stalls, mbuf-pool exhaustion — and must satisfy
// four invariants: no crash, zero mbuf leaks (pool accounting), bounded
// queue occupancy, and eventual convergence once the faults clear. Each
// scenario is parameterized over seeds; a failure's SCOPED_TRACE prints
// the seed and the full episode schedule, which reproduce the run
// exactly (see EXPERIMENTS.md, "Fault injection & chaos runs").
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dns/resolver.hpp"
#include "check/invariants.hpp"
#include "check/oracle.hpp"
#include "check_testing.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "obs/bridge.hpp"
#include "obs/metrics.hpp"
#include "rpc/nfs_lite.hpp"
#include "signal/node.hpp"
#include "stack/host.hpp"

namespace ldlp {
namespace {

using wire::ip_from_parts;

constexpr double kHorizon = 1.0;  ///< Fault window per injector, seconds.

std::string trace_for(std::uint64_t seed, const fault::FaultInjector& inj) {
  return "seed=" + std::to_string(seed) + " plan:\n" + inj.plan().describe();
}

/// Two hosts joined by a wire, each with its own injector running an
/// independent random plan derived from the scenario seed.
struct ChaosPair {
  std::unique_ptr<stack::Host> a;
  std::unique_ptr<stack::Host> b;
  std::unique_ptr<fault::FaultInjector> fault_a;
  std::unique_ptr<fault::FaultInjector> fault_b;

  explicit ChaosPair(std::uint64_t seed,
                     core::SchedMode mode = core::SchedMode::kConventional) {
    stack::HostConfig ca;
    ca.name = "a";
    ca.mac = {2, 0, 0, 0, 0, 1};
    ca.ip = ip_from_parts(10, 0, 0, 1);
    ca.mode = mode;
    stack::HostConfig cb = ca;
    cb.name = "b";
    cb.mac = {2, 0, 0, 0, 0, 2};
    cb.ip = ip_from_parts(10, 0, 0, 2);
    a = std::make_unique<stack::Host>(ca);
    b = std::make_unique<stack::Host>(cb);
    stack::NetDevice::connect(a->device(), b->device());
    fault_a = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::random(seed, kHorizon), seed * 2 + 1);
    fault_b = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::random(seed ^ 0xbeefULL, kHorizon), seed * 2 + 2);
    a->attach_fault(fault_a.get());
    b->attach_fault(fault_b.get());
  }

  void tick(double dt, int rounds = 2) {
    a->advance(dt);
    b->advance(dt);
    for (int i = 0; i < rounds; ++i) {
      a->pump();
      b->pump();
    }
  }

  /// End-of-scenario checks common to every stack scenario: detach the
  /// injectors (returning any held pool buffers), then assert the leak,
  /// queue-bound and backlog invariants on both hosts.
  void check_invariants() {
    // The scenario may have converged mid-plan; run out the clock so
    // delayed frames release and pool pressure lets go.
    for (int i = 0;
         i < 50 && !(fault_a->faults_cleared() && fault_b->faults_cleared());
         ++i)
      tick(0.1);
    EXPECT_TRUE(fault_a->faults_cleared());
    EXPECT_TRUE(fault_b->faults_cleared());
    a->attach_fault(nullptr);
    b->attach_fault(nullptr);
    for (stack::Host* h : {a.get(), b.get()}) {
      h->pump();
      EXPECT_EQ(h->graph().backlog(), 0u) << h->name();
      // Conservation at admission: every message handed to the graph was
      // either shed (at entry or by depth overflow) or enqueued into the
      // entry layer — nothing vanishes under faults.
      const core::GraphStats& gs = h->graph().graph_stats();
      const core::LayerStats& entry = h->graph().layer(0).stats();
      EXPECT_EQ(gs.injected, gs.shed_entry + gs.shed_depth + entry.enqueued)
          << h->name();
      for (core::LayerId id = 0; id < h->graph().layer_count(); ++id) {
        const core::Layer& layer = h->graph().layer(id);
        const core::LayerStats& s = layer.stats();
        EXPECT_LE(s.max_queue, layer.queue_capacity())
            << h->name() << "/" << layer.name();
        // Per-layer conservation: everything enqueued was processed,
        // dropped at the queue bound, or is still sitting in the queue.
        EXPECT_EQ(s.enqueued, s.processed + s.drops + layer.queue_len())
            << h->name() << "/" << layer.name();
      }
      // The published metrics must agree with the raw counters — the obs
      // bridge is how post-mortems read these numbers.
      obs::Registry reg;
      obs::publish_host(reg, *h);
      const obs::Snapshot snap = reg.snapshot();
      EXPECT_DOUBLE_EQ(snap.value(h->name() + ".graph.injected"),
                       static_cast<double>(gs.injected))
          << h->name();
      EXPECT_DOUBLE_EQ(snap.value(h->name() + ".graph.shed_entry"),
                       static_cast<double>(gs.shed_entry))
          << h->name();
    }
  }
};

class ChaosSeeds : public ::testing::TestWithParam<std::uint64_t> {};

// ---- TCP under chaos -------------------------------------------------------

TEST_P(ChaosSeeds, TcpTransferConvergesAfterFaults) {
  const std::uint64_t seed = GetParam();
  ChaosPair net(seed);
  SCOPED_TRACE(trace_for(seed, *net.fault_a));
  SCOPED_TRACE(trace_for(seed ^ 0xbeefULL, *net.fault_b));

  // Conformance checking rides along: structural invariants after every
  // scheduler pass, and a delivery oracle on the a->b stream.
  check::HostAuditor aud_a(*net.a);
  check::HostAuditor aud_b(*net.b);
  aud_a.install();
  aud_b.install();
  check::DeliveryOracle oracle;
  const auto flow = oracle.open_stream("a->b");
  net.b->sockets().set_tap(&oracle);

  stack::PcbId accepted = stack::kNoPcb;
  net.b->tcp().set_accept_hook([&](stack::PcbId id) {
    if (accepted == stack::kNoPcb)
      oracle.bind_stream_rx(flow, net.b->tcp().socket_of(id));
    accepted = id;
  });
  (void)net.b->tcp().listen(80);
  const stack::PcbId conn =
      net.a->tcp().connect(ip_from_parts(10, 0, 0, 2), 80);
  net.a->tcp().set_send_tap(
      [&](stack::PcbId id, std::span<const std::uint8_t> bytes) {
        if (id == conn) oracle.stream_sent(flow, bytes);
      });

  // Connect straight into the fault window; SYN retransmission must carry
  // the handshake through once the faults clear.
  for (int i = 0; i < 1200 &&
                  net.a->tcp().state(conn) != stack::TcpState::kEstablished;
       ++i)
    net.tick(0.05);
  ASSERT_EQ(net.a->tcp().state(conn), stack::TcpState::kEstablished);

  std::vector<std::uint8_t> payload(4000);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 31 + seed);
  ASSERT_TRUE(net.a->tcp().send(conn, payload));

  // The server may still sit in SYN_RECEIVED (the handshake ACK can be a
  // casualty); the data segments carry it to ESTABLISHED, firing the
  // accept hook, after which the stream must arrive intact.
  std::vector<std::uint8_t> got;
  for (int i = 0; i < 1200 && got.size() < payload.size(); ++i) {
    net.tick(0.05);
    if (accepted == stack::kNoPcb) continue;
    std::vector<std::uint8_t> chunk(1500);
    const std::size_t n =
        net.b->sockets().read(net.b->tcp().socket_of(accepted), chunk);
    got.insert(got.end(), chunk.begin(),
               chunk.begin() + static_cast<std::ptrdiff_t>(n));
  }
  ASSERT_NE(accepted, stack::kNoPcb);
  EXPECT_EQ(got, payload);  // delivered in order, uncorrupted, exactly once

  net.a->tcp().close(conn);
  net.b->tcp().close(accepted);
  for (int i = 0; i < 8; ++i) net.tick(1.0);
  net.check_invariants();
  EXPECT_EQ(net.a->pool().stats().mbufs_outstanding(), 0u);
  EXPECT_EQ(net.b->pool().stats().mbufs_outstanding(), 0u);

  oracle.finalize();
  EXPECT_TRUE(clean(oracle));
  EXPECT_TRUE(clean(aud_a));
  EXPECT_TRUE(clean(aud_b));
  EXPECT_GT(aud_a.stats().passes, 0u);
  net.b->sockets().set_tap(nullptr);
}

// ---- DNS under chaos -------------------------------------------------------

TEST_P(ChaosSeeds, DnsResolutionConvergesAfterFaults) {
  const std::uint64_t seed = GetParam();
  ChaosPair net(seed ^ 0xd15ULL);
  SCOPED_TRACE(trace_for(seed, *net.fault_a));
  dns::DnsServer server(*net.b);
  constexpr int kNames = 5;
  for (int i = 0; i < kNames; ++i)
    server.add_a("h" + std::to_string(i) + ".chaos",
                 ip_from_parts(10, 7, 0, static_cast<std::uint8_t>(i)));
  dns::DnsResolver::Config cfg;
  cfg.server_ip = ip_from_parts(10, 0, 0, 2);
  dns::DnsResolver resolver(*net.a, cfg);

  // A lookup may exhaust its retries inside the fault window (that is the
  // clean-failure path); convergence means a later retry succeeds.
  std::vector<std::optional<std::uint32_t>> results(kNames);
  std::vector<bool> outstanding(kNames, false);
  const auto kick = [&](int i) {
    outstanding[i] = true;
    resolver.resolve("h" + std::to_string(i) + ".chaos",
                     [&results, &outstanding, i](const std::string&,
                                                 std::optional<std::uint32_t> addr) {
                       outstanding[i] = false;
                       if (addr.has_value()) results[i] = addr;
                     });
  };
  for (int i = 0; i < kNames; ++i) kick(i);

  for (int iter = 0; iter < 400; ++iter) {
    net.tick(0.25);
    server.poll();
    net.b->pump();
    net.a->pump();
    resolver.poll();
    bool done = true;
    for (int i = 0; i < kNames; ++i) {
      if (results[i].has_value()) continue;
      done = false;
      if (!outstanding[i]) kick(i);  // failed cleanly — try again
    }
    if (done) break;
  }
  for (int i = 0; i < kNames; ++i) {
    ASSERT_TRUE(results[i].has_value()) << "name " << i << " never resolved";
    EXPECT_EQ(*results[i], ip_from_parts(10, 7, 0, static_cast<std::uint8_t>(i)));
  }
  net.check_invariants();
  EXPECT_EQ(net.a->pool().stats().mbufs_outstanding(), 0u);
  EXPECT_EQ(net.b->pool().stats().mbufs_outstanding(), 0u);
}

// ---- NFS under chaos -------------------------------------------------------

TEST_P(ChaosSeeds, NfsOpsConvergeAfterFaults) {
  const std::uint64_t seed = GetParam();
  ChaosPair net(seed ^ 0x9f5ULL);
  SCOPED_TRACE(trace_for(seed, *net.fault_a));
  rpc::NfsServer server(*net.b);
  rpc::NfsClient::Config cfg;
  cfg.server_ip = ip_from_parts(10, 0, 0, 2);
  rpc::NfsClient client(*net.a, cfg, [&net, &server] {
    // Keep both clocks moving so each side's fault window expires.
    net.b->advance(0.05);
    net.a->pump();
    net.b->pump();
    server.poll();
    net.b->pump();
    net.a->pump();
  });

  // Each op retries internally (capped backoff) and may still fail inside
  // the fault window; the outer loop is the application-level retry that
  // must succeed once the faults clear.
  const auto persist = [&](auto op) {
    for (int attempt = 0; attempt < 10; ++attempt) {
      if (op()) return true;
    }
    return false;
  };

  std::optional<rpc::FileHandle> fh;
  ASSERT_TRUE(persist([&] {
    fh = client.create(rpc::kRootHandle, "chaos.dat");
    return fh.has_value();
  }));
  std::vector<std::uint8_t> content(600);
  for (std::size_t i = 0; i < content.size(); ++i)
    content[i] = static_cast<std::uint8_t>(i * 13 + seed);
  ASSERT_TRUE(persist([&] { return client.write(*fh, 0, content); }));
  std::optional<std::vector<std::uint8_t>> back;
  ASSERT_TRUE(persist([&] {
    back = client.read(*fh, 0, static_cast<std::uint32_t>(content.size()));
    return back.has_value();
  }));
  EXPECT_EQ(*back, content);  // duplicate-request cache kept writes single

  // Drain past both horizons so the convergence invariants apply.
  for (int i = 0; i < 30; ++i) net.tick(0.1);
  net.check_invariants();
  EXPECT_EQ(net.a->pool().stats().mbufs_outstanding(), 0u);
  EXPECT_EQ(net.b->pool().stats().mbufs_outstanding(), 0u);
}

// ---- Signalling under chaos ------------------------------------------------

TEST_P(ChaosSeeds, SignallingCallsConvergeAfterFaults) {
  const std::uint64_t seed = GetParam();
  // SignallingNodes carry their own byte pipe (no NetDevice), so the plan
  // drives the pipe's loss rate directly: SSCOP's POLL/STAT machinery with
  // capped backoff must complete every call once the loss window closes.
  fault::FaultPlan plan;
  plan.add({fault::FaultKind::kLossBurst, 0.0, 0.6,
            0.3 + 0.05 * static_cast<double>(seed % 8), 0, 0.0});
  SCOPED_TRACE("seed=" + std::to_string(seed) + " plan:\n" + plan.describe());

  signal::SignallingNode user("user");
  signal::SignallingNode network("net");
  signal::SignallingNode::connect(user, network);

  const std::uint8_t called[] = {1, 2, 3, 4};
  const std::uint8_t calling[] = {9, 9, 9};
  const signal::TrafficDescriptor td{100, 50};
  std::vector<std::uint32_t> refs;
  for (int i = 0; i < 10; ++i)
    refs.push_back(user.calls().originate(called, calling, td));

  bool all_active = false;
  for (int round = 0; round < 1000 && !all_active; ++round) {
    const fault::Episode* loss =
        plan.active(fault::FaultKind::kLossBurst, user.now());
    user.set_loss_rate(loss != nullptr ? loss->rate : 0.0, seed);
    network.set_loss_rate(loss != nullptr ? loss->rate : 0.0, seed + 1);
    user.advance(0.05);
    network.advance(0.05);
    network.pump();
    user.pump();
    all_active = true;
    for (const auto ref : refs)
      all_active &= user.calls().state(ref) == signal::CallState::kActive;
  }
  for (const auto ref : refs)
    EXPECT_EQ(user.calls().state(ref), signal::CallState::kActive) << ref;
  EXPECT_EQ(user.link().unacked(), 0u);
  EXPECT_EQ(network.stats().codec_errors, 0u);
}

// ---- Pool exhaustion -------------------------------------------------------

TEST_P(ChaosSeeds, PoolExhaustionRecoversLeakFree) {
  const std::uint64_t seed = GetParam();
  ChaosPair net(seed);  // random plans on both sides...
  // ...plus a guaranteed squeeze on the sender: only 4 mbufs left free.
  fault::FaultPlan squeeze;
  squeeze.add({fault::FaultKind::kPoolExhaustion, 0.0, 0.4, 1.0, 4, 0.0});
  fault::FaultInjector pinch(squeeze, seed);
  net.a->attach_fault(&pinch);
  SCOPED_TRACE(trace_for(seed, pinch));

  const auto sock =
      net.b->sockets().create(stack::SocketKind::kDatagram, 64 * 1024);
  ASSERT_TRUE(net.b->udp().bind(7777, sock));
  const std::vector<std::uint8_t> payload(64, 0xab);

  // Send through the squeeze: allocation failures are silent drops, never
  // crashes or asserts.
  for (int i = 0; i < 40; ++i) {
    net.a->udp().send(1, ip_from_parts(10, 0, 0, 2), 7777, payload);
    net.tick(0.02);
  }
  EXPECT_GT(pinch.stats().pool_squeezes, 0u);

  // Past the episode the held mbufs return and traffic flows again.
  for (int i = 0; i < 30; ++i) net.tick(0.1);
  ASSERT_TRUE(pinch.faults_cleared());
  const auto rx_before = net.b->udp().udp_stats().rx;
  for (int i = 0; i < 5; ++i) {
    net.a->udp().send(1, ip_from_parts(10, 0, 0, 2), 7777, payload);
    net.tick(0.05);
  }
  EXPECT_EQ(net.b->udp().udp_stats().rx, rx_before + 5);

  net.a->attach_fault(nullptr);
  net.b->attach_fault(nullptr);
  net.a->pump();
  net.b->pump();
  // Socket rx buffers drained, nothing in flight: the pools must balance.
  std::vector<std::uint8_t> sink(4096);
  while (net.b->sockets().read(sock, sink) > 0) {
  }
  EXPECT_EQ(net.a->pool().stats().mbufs_outstanding(), 0u);
  EXPECT_EQ(net.b->pool().stats().mbufs_outstanding(), 0u);
}

// ---- NetDevice drop accounting ---------------------------------------------

TEST_P(ChaosSeeds, DeviceDropAccountingConsistent) {
  // Legacy loss, legacy reorder, a tiny RX ring (overflow) and a random
  // fault plan all active at once: every frame handed to the device must
  // be accounted for exactly once across rx_frames / rx_drops / the ring /
  // the injector's delay queue.
  const std::uint64_t seed = GetParam();
  buf::MbufPool pool(512, 256);
  stack::NetDevice dev("dut", {2, 0, 0, 0, 0, 9}, pool, /*rx_ring_slots=*/8);
  double now = 0.0;
  fault::FaultInjector inj(fault::FaultPlan::random(seed, 0.5), seed);
  inj.set_clock(&now);
  dev.set_fault(&inj);
  dev.set_loss(0.2, seed);
  dev.set_reorder(0.5, seed + 1);
  SCOPED_TRACE(trace_for(seed, inj));

  Rng rng(seed ^ 0xacc7ULL);
  std::uint64_t injected = 0;
  std::uint64_t pulled = 0;
  for (int step = 0; step < 300; ++step) {
    now += 0.004;
    dev.poll();  // flush delay-released frames into the ring
    const std::size_t burst = rng.bounded(3) + 1;
    for (std::size_t k = 0; k < burst; ++k) {
      std::vector<std::uint8_t> frame(64);
      for (auto& byte : frame) byte = static_cast<std::uint8_t>(rng());
      dev.inject(std::move(frame));
      ++injected;
    }
    // Pull intermittently so the tiny ring oscillates between overflow
    // and empty (receive() returns nothing during stall episodes).
    if (rng.chance(0.6)) {
      while (auto pkt = dev.receive()) ++pulled;
    }
  }
  now = 2.0;  // past the horizon: all delayed frames become releasable
  dev.poll();
  while (auto pkt = dev.receive()) ++pulled;

  EXPECT_EQ(inj.delayed_pending(), 0u);
  EXPECT_EQ(dev.rx_pending(), 0u);
  EXPECT_EQ(dev.stats().rx_frames, pulled);
  EXPECT_EQ(injected + inj.stats().duplicated,
            dev.stats().rx_frames + dev.stats().rx_drops);
  EXPECT_GT(dev.stats().rx_drops, 0u);  // loss + overflow really happened
  EXPECT_EQ(pool.stats().mbufs_outstanding(), 0u);

  // tx_drops: no peer connected, and runt frames, are both counted.
  const auto tx_drops_before = dev.stats().tx_drops;
  EXPECT_FALSE(
      dev.transmit(buf::Packet::from_bytes(pool, std::vector<std::uint8_t>(64, 1))));
  EXPECT_FALSE(
      dev.transmit(buf::Packet::from_bytes(pool, std::vector<std::uint8_t>(6, 1))));
  EXPECT_EQ(dev.stats().tx_drops, tx_drops_before + 2);
  EXPECT_EQ(pool.stats().mbufs_outstanding(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSeeds,
                         ::testing::Range<std::uint64_t>(1, 11));

// ---- Scheduler overload protection -----------------------------------------

class CountingLayer final : public core::Layer {
 public:
  explicit CountingLayer(std::string name, std::size_t capacity = 500)
      : core::Layer(std::move(name), capacity) {}

 protected:
  void process(core::Message msg) override { emit(std::move(msg)); }
};

TEST(ChaosOverload, LdlpShedsAtEntryAndDrainsAdmittedWork) {
  core::StackGraph graph;
  graph.set_mode(core::SchedMode::kLdlp);
  CountingLayer bottom("bottom");
  CountingLayer middle("middle", /*capacity=*/4);  // deliberately tight
  CountingLayer top("top");
  const auto b = graph.add_layer(bottom);
  const auto m = graph.add_layer(middle);
  const auto t = graph.add_layer(top);
  graph.connect(b, m);
  graph.connect(m, t);
  graph.set_backlog_limit(32);

  constexpr std::size_t kOffered = 200;
  for (std::size_t i = 0; i < kOffered; ++i) graph.inject(b, core::Message{});

  // Admission control: the graph refused everything beyond its backlog
  // limit at the entry layer, before any queue could grow without bound.
  EXPECT_EQ(graph.backlog(), 32u);
  EXPECT_EQ(graph.graph_stats().shed_entry, kOffered - 32u);

  graph.run();

  // Run-to-completion: every admitted message either finished or was
  // dropped at an explicitly bounded queue — none is stranded.
  EXPECT_EQ(graph.backlog(), 0u);
  EXPECT_EQ(bottom.stats().processed, 32u);
  EXPECT_EQ(middle.stats().processed + middle.stats().drops, 32u);
  EXPECT_LE(middle.stats().max_queue, middle.queue_capacity());
  EXPECT_EQ(top.stats().processed, middle.stats().processed);
  // Full conservation across the graph.
  EXPECT_EQ(kOffered, graph.graph_stats().shed_entry +
                          middle.stats().drops + top.stats().processed);
}

TEST(ChaosOverload, ConventionalEmitCycleIsDepthBounded) {
  // Two layers that bounce every message between each other would recurse
  // forever under procedure-call layering; the depth guard sheds instead
  // of overflowing the call stack.
  core::StackGraph graph;
  CountingLayer ping("ping");
  CountingLayer pong("pong");
  const auto p = graph.add_layer(ping);
  const auto q = graph.add_layer(pong);
  graph.connect(p, q);
  graph.connect(q, p);
  graph.inject(p, core::Message{});
  EXPECT_GE(graph.graph_stats().shed_depth, 1u);
  EXPECT_EQ(graph.backlog(), 0u);
}

}  // namespace
}  // namespace ldlp
