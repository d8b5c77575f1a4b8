// Tests for ldlp::check — conformance oracles, invariant auditors, the
// one Judge interface they all share, the ldlp.schedule.v1 round trip,
// and the delta-debugging shrinker.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/broadcast.hpp"
#include "check/invariants.hpp"
#include "check/oracle.hpp"
#include "check/overlay_audit.hpp"
#include "check/schedule.hpp"
#include "check/shrink.hpp"
#include "check/timer_audit.hpp"
#include "check_testing.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "recover/overlay_convergence.hpp"
#include "stack/host_pair.hpp"
#include "time/timer_wheel.hpp"

namespace ldlp {
namespace {

using wire::ip_from_parts;

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int b : v) out.push_back(static_cast<std::uint8_t>(b));
  return out;
}

// ---- DeliveryOracle: stream flows --------------------------------------

TEST(OracleStream, ExactDeliveryPasses) {
  check::DeliveryOracle oracle;
  const auto flow = oracle.open_stream("t");
  oracle.bind_stream_rx(flow, 7);
  const auto sent = bytes_of({1, 2, 3, 4, 5});
  oracle.stream_sent(flow, sent);
  oracle.on_stream_append(7, {sent.data(), 2});
  oracle.on_stream_append(7, {sent.data() + 2, 3});
  oracle.finalize();
  EXPECT_TRUE(clean(oracle));
  EXPECT_EQ(oracle.stats().stream_bytes_sent, 5u);
  EXPECT_EQ(oracle.stats().stream_bytes_delivered, 5u);
}

TEST(OracleStream, ByteMismatchCondemned) {
  check::DeliveryOracle oracle;
  const auto flow = oracle.open_stream("t");
  oracle.bind_stream_rx(flow, 7);
  oracle.stream_sent(flow, bytes_of({1, 2, 3}));
  oracle.on_stream_append(7, bytes_of({1, 9, 3}));
  EXPECT_FALSE(oracle.ok());
  ASSERT_EQ(oracle.violations().size(), 1u);
  EXPECT_NE(oracle.violations()[0].find("mismatch at offset 1"),
            std::string::npos);
}

TEST(OracleStream, FabricatedBytesCondemned) {
  // Delivering more than was ever sent is fabrication or re-delivery.
  check::DeliveryOracle oracle;
  const auto flow = oracle.open_stream("t");
  oracle.bind_stream_rx(flow, 7);
  oracle.stream_sent(flow, bytes_of({1, 2}));
  oracle.on_stream_append(7, bytes_of({1, 2, 3}));
  EXPECT_FALSE(oracle.ok());
}

TEST(OracleStream, ShortfallCaughtAtFinalize) {
  check::DeliveryOracle oracle;
  const auto flow = oracle.open_stream("t");
  oracle.bind_stream_rx(flow, 7);
  oracle.stream_sent(flow, bytes_of({1, 2, 3}));
  oracle.on_stream_append(7, bytes_of({1}));
  EXPECT_TRUE(oracle.ok());  // a prefix is fine mid-run...
  oracle.finalize();
  EXPECT_FALSE(oracle.ok());  // ...but not at the end.
}

TEST(OracleStream, UnboundSocketIgnored) {
  check::DeliveryOracle oracle;
  const auto flow = oracle.open_stream("t");
  oracle.bind_stream_rx(flow, 7);
  oracle.stream_sent(flow, bytes_of({1}));
  oracle.on_stream_append(99, bytes_of({42, 42}));  // unrelated socket
  oracle.on_stream_append(7, bytes_of({1}));
  oracle.finalize();
  EXPECT_TRUE(clean(oracle));
}

TEST(OracleStream, RecycledSocketSlotIsANewBinding) {
  // A freed stream socket's slot comes back under a new generation, so the
  // oracle never credits the next tenant's bytes to the old flow.
  stack::SocketLayer sockets;
  const stack::SocketId first = sockets.create(stack::SocketKind::kStream);
  sockets.close(first);
  sockets.detach(first);
  const stack::SocketId second = sockets.create(stack::SocketKind::kStream);
  ASSERT_FALSE(sockets.valid(first));
  ASSERT_NE(first, second);
  check::DeliveryOracle oracle;
  const auto flow = oracle.open_stream("t");
  oracle.bind_stream_rx(flow, first);
  oracle.stream_sent(flow, bytes_of({1, 2}));
  oracle.on_stream_append(second, bytes_of({9, 9, 9}));  // next tenant
  oracle.on_stream_append(first, bytes_of({1, 2}));
  oracle.finalize();
  EXPECT_TRUE(clean(oracle));
}

// ---- DeliveryOracle: datagram flows ------------------------------------

stack::Datagram dgram(std::vector<std::uint8_t> payload) {
  stack::Datagram d;
  d.payload = std::move(payload);
  return d;
}

TEST(OracleDatagram, AtMostOncePasses) {
  check::DeliveryOracle oracle;
  const auto flow = oracle.open_datagram("q");
  oracle.bind_datagram_rx(flow, 3);
  oracle.datagram_sent(flow, bytes_of({1, 2}));
  oracle.datagram_sent(flow, bytes_of({3}));
  oracle.on_datagram(3, dgram(bytes_of({1, 2})));
  // The {3} datagram is lost: at-most-once still holds.
  oracle.finalize();
  EXPECT_TRUE(clean(oracle));
  EXPECT_EQ(oracle.stats().datagrams_sent, 2u);
  EXPECT_EQ(oracle.stats().datagrams_delivered, 1u);
}

TEST(OracleDatagram, IdenticalPayloadsCountedNotConfused) {
  // Two sends of the same bytes permit two deliveries — the third is a
  // duplicate.
  check::DeliveryOracle oracle;
  const auto flow = oracle.open_datagram("q");
  oracle.bind_datagram_rx(flow, 3);
  oracle.datagram_sent(flow, bytes_of({5, 5}));
  oracle.datagram_sent(flow, bytes_of({5, 5}));
  oracle.on_datagram(3, dgram(bytes_of({5, 5})));
  oracle.on_datagram(3, dgram(bytes_of({5, 5})));
  EXPECT_TRUE(oracle.ok());
  oracle.on_datagram(3, dgram(bytes_of({5, 5})));
  EXPECT_FALSE(oracle.ok());
}

TEST(OracleDatagram, DuplicatesAllowedWhenWireDuplicates) {
  check::DeliveryOracle oracle;
  oracle.set_allow_duplicates(true);
  const auto flow = oracle.open_datagram("q");
  oracle.bind_datagram_rx(flow, 3);
  oracle.datagram_sent(flow, bytes_of({5}));
  oracle.on_datagram(3, dgram(bytes_of({5})));
  oracle.on_datagram(3, dgram(bytes_of({5})));
  oracle.finalize();
  EXPECT_TRUE(clean(oracle));
  EXPECT_EQ(oracle.stats().datagram_duplicates, 1u);
}

TEST(OracleDatagram, UnknownPayloadCondemned) {
  check::DeliveryOracle oracle;
  const auto flow = oracle.open_datagram("q");
  oracle.bind_datagram_rx(flow, 3);
  oracle.datagram_sent(flow, bytes_of({1}));
  oracle.on_datagram(3, dgram(bytes_of({2})));
  EXPECT_FALSE(oracle.ok());
}

TEST(Oracle, PublishMirrorsStats) {
  check::DeliveryOracle oracle;
  const auto flow = oracle.open_stream("t");
  oracle.bind_stream_rx(flow, 1);
  oracle.stream_sent(flow, bytes_of({1, 2}));
  oracle.on_stream_append(1, bytes_of({1, 2}));
  obs::Registry reg;
  oracle.publish(reg);
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.value("check.stream_bytes_sent"), 2.0);
  EXPECT_DOUBLE_EQ(snap.value("check.stream_bytes_delivered"), 2.0);
  EXPECT_DOUBLE_EQ(snap.value("check.violations"), 0.0);
}

// ---- Live host pair: oracle + auditor + persist timer ------------------

TEST(HostAuditor, CleanTransferAuditsClean) {
  for (const auto mode :
       {core::SchedMode::kConventional, core::SchedMode::kLdlp}) {
    stack::HostPair net({.name = "a", .mode = mode},
                        {.name = "b", .mode = mode});
    check::HostAuditor aud_a(net.a);
    check::HostAuditor aud_b(net.b);
    aud_a.install();
    aud_b.install();

    check::DeliveryOracle oracle;
    const auto flow = oracle.open_stream("a->b");
    net.b.sockets().set_tap(&oracle);
    stack::PcbId accepted = stack::kNoPcb;
    net.b.tcp().set_accept_hook([&](stack::PcbId id) {
      accepted = id;
      oracle.bind_stream_rx(flow, net.b.tcp().socket_of(id));
    });
    (void)net.b.tcp().listen(80);
    const stack::PcbId conn =
        net.a.tcp().connect(ip_from_parts(10, 0, 0, 2), 80);
    net.a.tcp().set_send_tap(
        [&](stack::PcbId id, std::span<const std::uint8_t> bytes) {
          if (id == conn) oracle.stream_sent(flow, bytes);
        });

    std::vector<std::uint8_t> payload(4000);
    for (std::size_t i = 0; i < payload.size(); ++i)
      payload[i] = static_cast<std::uint8_t>(i * 13 + 7);
    std::vector<std::uint8_t> got;
    bool queued = false;
    for (int i = 0; i < 400 && got.size() < payload.size(); ++i) {
      if (!queued &&
          net.a.tcp().state(conn) == stack::TcpState::kEstablished)
        queued = net.a.tcp().send(conn, payload);
      net.tick(0.05, 2);
      if (accepted == stack::kNoPcb) continue;
      std::uint8_t chunk[512];
      const std::size_t n =
          net.b.sockets().read(net.b.tcp().socket_of(accepted), chunk);
      got.insert(got.end(), chunk, chunk + n);
    }
    EXPECT_EQ(got, payload);
    oracle.finalize();
    EXPECT_TRUE(clean(oracle));
    EXPECT_TRUE(clean(aud_a));
    EXPECT_TRUE(clean(aud_b));
    EXPECT_GT(aud_a.stats().passes, 0u);
    EXPECT_GT(aud_b.stats().pcbs_checked, 0u);
    net.b.sockets().set_tap(nullptr);
  }
}

/// Open a connection a -> b, exchange a little data, then either close
/// it in order or abort it (a RST resets both ends). Returns true once
/// the connection was established.
bool run_connection(stack::HostPair& net, bool abort) {
  (void)net.b.tcp().listen(80);
  const stack::PcbId conn =
      net.a.tcp().connect(ip_from_parts(10, 0, 0, 2), 80);
  for (int i = 0; i < 20 && net.a.tcp().state(conn) !=
                                stack::TcpState::kEstablished;
       ++i)
    net.tick(0.01, 2);
  if (net.a.tcp().state(conn) != stack::TcpState::kEstablished) return false;
  if (!net.a.tcp().send(conn, bytes_of({1, 2, 3, 4}))) return false;
  net.tick(0.01, 2);
  if (abort) {
    net.a.tcp().abort(conn);
  } else {
    net.a.tcp().close(conn);
  }
  for (int i = 0; i < 40; ++i) net.tick(0.05, 2);
  return true;
}

}  // namespace
}  // namespace ldlp

namespace ldlp::stack {
/// Reaches into TcpLayer to plant what a reset_connection that skipped
/// its index erase would leave behind: a CLOSED slot still indexed by the
/// tuple it held.
struct TcpLayerTestPeer {
  static void keep_stale_entry(TcpLayer& tcp, PcbId id) {
    ASSERT_EQ(tcp.state(id), TcpState::kClosed);
    tcp.index_.emplace(key_of(tcp.pcb(id)), id);
  }
};
}  // namespace ldlp::stack

namespace ldlp {
namespace {

TEST(HostAuditor, StaleDemuxEntryCaughtCalmRunClean) {
  // Mutation: reset_connection forgets to erase the dead connection's
  // tuple from the demux index. The audit must flag the stale entry left
  // by a reset, and stay green through a reset and a calm run without it.
  for (const auto mode :
       {core::SchedMode::kConventional, core::SchedMode::kLdlp}) {
    {
      stack::HostPair net({.name = "a", .mode = mode},
                          {.name = "b", .mode = mode});
      check::HostAuditor aud_a(net.a);
      check::HostAuditor aud_b(net.b);
      aud_a.install();
      aud_b.install();
      ASSERT_TRUE(run_connection(net, /*abort=*/true));
      aud_a.on_pass();  // the aborting side's pass may have handled no frames
      aud_b.on_pass();
      EXPECT_TRUE(clean(aud_a));
      EXPECT_TRUE(clean(aud_b));
      ASSERT_GT(net.a.tcp().tcp_stats().conns_reset, 0u);
      ASSERT_GT(net.b.tcp().tcp_stats().conns_reset, 0u);

      // The RST reset both ends: a's connection (pcb 0) and b's child
      // (pcb 1, next to the listener).
      stack::TcpLayerTestPeer::keep_stale_entry(net.a.tcp(), 0);
      stack::TcpLayerTestPeer::keep_stale_entry(net.b.tcp(), 1);
      net.tick(0.05, 2);
      aud_a.on_pass();
      aud_b.on_pass();
      for (const check::HostAuditor* aud : {&aud_a, &aud_b}) {
        ASSERT_FALSE(aud->ok());
        EXPECT_NE(aud->violations()[0].find("(CLOSED), which owns no tuple"),
                  std::string::npos)
            << aud->violations()[0];
      }
    }
    {
      // Calm: an orderly close never resets.
      stack::HostPair net({.name = "a", .mode = mode},
                          {.name = "b", .mode = mode});
      check::HostAuditor aud_a(net.a);
      check::HostAuditor aud_b(net.b);
      aud_a.install();
      aud_b.install();
      ASSERT_TRUE(run_connection(net, /*abort=*/false));
      aud_a.on_pass();
      aud_b.on_pass();
      EXPECT_TRUE(clean(aud_a));
      EXPECT_TRUE(clean(aud_b));
    }
  }
}

TEST(HostAuditor, KeepsTheFirst64FindingsAndCountsEveryOne) {
  // A planted fault that persists is found again on every pass: the
  // auditor counts every finding but keeps only the first 64.
  stack::HostPair net({.name = "a"}, {.name = "b"});
  check::HostAuditor aud(net.a);
  ASSERT_TRUE(run_connection(net, /*abort=*/true));
  aud.on_pass();
  ASSERT_TRUE(clean(aud));
  stack::TcpLayerTestPeer::keep_stale_entry(net.a.tcp(), 0);
  for (int i = 0; i < 100; ++i) aud.on_pass();
  EXPECT_EQ(aud.violation_count(), 100u);
  EXPECT_EQ(aud.violations().size(), 64u);
  EXPECT_NE(aud.violations().back().find("tcp demux"), std::string::npos);
}

// ---- Every judge through the one interface -----------------------------

/// Three live overlay nodes, fully meshed: each has the other two in its
/// active view and eager set.
std::vector<check::OverlayView> meshed_views() {
  std::vector<check::OverlayView> views(3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    views[i].self = i + 1;
    views[i].active_max = 4;
    views[i].passive_max = 8;
    for (std::uint32_t peer = 1; peer <= 3; ++peer)
      if (peer != i + 1) views[i].active.push_back(peer);
    views[i].eager = views[i].active;
  }
  return views;
}

TEST(Judge, EachJudgeFlagsItsBadInputAndPassesCleanInput) {
  // Each row builds one judge over clean or planted-bad input; the rest
  // runs through check::Judge& alone: five passes, then finalize().
  std::vector<check::OverlayView> views;
  std::unique_ptr<stack::Host> host;
  const std::vector<std::uint8_t> payload = bytes_of({7, 7});
  struct Row {
    const char* judge;
    std::vector<const char*> findings;  ///< Expected on bad input.
    std::function<std::unique_ptr<check::Judge>(bool bad)> make;
  };
  const Row rows[] = {
      {"ViewAuditor",
       {"self in active view"},
       [&](bool bad) {
         views = meshed_views();
         if (bad) views[0].active.push_back(views[0].self);
         return std::make_unique<check::ViewAuditor>(views,
                                                     [] { return 1.0; });
       }},
      {"BroadcastDeliveryOracle",
       {"phantom message (9,9)", "node 2 never delivered (1,1)"},
       [&](bool bad) {
         auto oracle = std::make_unique<check::BroadcastDeliveryOracle>(
             std::vector<std::uint32_t>{1, 2});
         oracle->broadcast(1, 1, payload);
         oracle->delivered(1, 1, 1, payload);
         if (bad)
           oracle->delivered(2, 9, 9, payload);
         else
           oracle->delivered(2, 1, 1, payload);
         return oracle;
       }},
      {"OverlayConvergenceOracle",
       {"eager-push tree disconnected"},
       [&](bool bad) {
         views = meshed_views();
         if (bad) {  // node 3 keeps its active links but no tree link
           views[0].eager = {2};
           views[1].eager = {1};
           views[2].eager.clear();
         }
         auto oracle = std::make_unique<recover::OverlayConvergenceOracle>(
             views, recover::OverlayConvergenceConfig{/*budget_passes=*/100,
                                                      /*stable_passes=*/2});
         oracle->arm();
         return oracle;
       }},
      {"TimerAuditor",
       {"1 armed timer(s) leaked past teardown"},
       [&](bool bad) {
         host = std::make_unique<stack::Host>(stack::HostConfig{});
         if (bad)  // armed straight on the wheel, never cancelled
           (void)host->wheel().arm(5.0, time::TimerClass::kCadence, [] {});
         return std::make_unique<check::TimerAuditor>(*host);
       }},
  };
  for (const Row& row : rows) {
    for (const bool bad : {false, true}) {
      SCOPED_TRACE(std::string(row.judge) + (bad ? " on bad" : " on clean") +
                   " input");
      const std::unique_ptr<check::Judge> made = row.make(bad);
      check::Judge& judge = *made;
      for (int pass = 0; pass < 5; ++pass) judge.on_pass();
      judge.finalize();
      if (!bad) {
        EXPECT_TRUE(clean(judge));
        continue;
      }
      EXPECT_FALSE(judge.ok());
      for (const char* finding : row.findings) {
        bool seen = false;
        for (const std::string& v : judge.violations())
          seen |= v.find(finding) != std::string::npos;
        EXPECT_TRUE(seen) << "no finding names '" << finding << "'";
      }
    }
  }
}

TEST(HostAuditor, PersistProbeBreaksZeroWindowDeadlock) {
  // Regression for the zero-window deadlock the chaos oracles surfaced:
  // the receiver's window closes with nothing in flight, and since the
  // peer only announces a reopened window on an ACK — of which there are
  // none — only the sender's persist probe can restart the transfer.
  // Conventional mode appends synchronously, so advertised windows track
  // the receive buffer exactly and the stall forms deterministically.
  stack::HostPair net({.name = "a"}, {.name = "b"});
  check::HostAuditor aud_a(net.a);
  aud_a.install();

  stack::PcbId accepted = stack::kNoPcb;
  net.b.tcp().set_accept_hook([&](stack::PcbId id) { accepted = id; });
  (void)net.b.tcp().listen(80);
  const stack::PcbId conn =
      net.a.tcp().connect(ip_from_parts(10, 0, 0, 2), 80);
  for (int i = 0; i < 100 &&
                  net.a.tcp().state(conn) != stack::TcpState::kEstablished;
       ++i)
    net.tick(0.05, 2);
  ASSERT_EQ(net.a.tcp().state(conn), stack::TcpState::kEstablished);

  // Fill b's receive buffer (nobody reads) until a's window closes.
  std::vector<std::uint8_t> payload(24000);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 31 + 5);
  std::size_t queued = 0;
  for (int i = 0; i < 200 && queued < payload.size(); ++i) {
    const std::span<const std::uint8_t> rest(payload.data() + queued,
                                             payload.size() - queued);
    if (net.a.tcp().send(conn, rest)) queued = payload.size();
    net.tick(0.05, 2);
  }
  ASSERT_EQ(queued, payload.size()) << "send buffer never drained";
  for (int i = 0; i < 40; ++i) net.tick(0.05, 2);

  // Now drain the receiver; completion requires a persist probe.
  std::vector<std::uint8_t> got;
  ASSERT_NE(accepted, stack::kNoPcb);
  for (int i = 0; i < 600 && got.size() < payload.size(); ++i) {
    net.tick(0.05, 2);
    std::uint8_t chunk[2048];
    const std::size_t n =
        net.b.sockets().read(net.b.tcp().socket_of(accepted), chunk);
    got.insert(got.end(), chunk, chunk + n);
  }
  EXPECT_EQ(got.size(), payload.size());
  EXPECT_EQ(got, payload);
  EXPECT_GT(net.a.tcp().pcb_stats(conn).persist_probes, 0u);
  EXPECT_TRUE(clean(aud_a));
}

// ---- Schedule JSON round trip ------------------------------------------

check::Schedule sample_schedule() {
  check::Schedule s;
  s.scenario = "tcp";
  s.seed = 42;
  fault::FaultPlan plan_a;
  plan_a.add({fault::FaultKind::kGilbertElliott, 0.1, 0.4, 0.75, 6, 0.157});
  plan_a.add({fault::FaultKind::kDuplicate, 0.2, 0.3, 0.33, 0, 0.0});
  fault::FaultPlan plan_b;
  plan_b.add({fault::FaultKind::kPoolExhaustion, 0.1, 0.4, 1.0, 4, 0.0});
  s.injectors.push_back({"a", 85, plan_a});
  s.injectors.push_back({"b", 86, plan_b});
  return s;
}

TEST(Schedule, JsonRoundTrip) {
  const check::Schedule s = sample_schedule();
  std::string error;
  const auto back = check::Schedule::from_json(s.to_json(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->scenario, s.scenario);
  EXPECT_EQ(back->seed, s.seed);
  ASSERT_EQ(back->injectors.size(), 2u);
  EXPECT_EQ(back->injectors[0].host, "a");
  EXPECT_EQ(back->injectors[0].rng_seed, 85u);
  ASSERT_EQ(back->injectors[0].plan.episodes().size(), 2u);
  const fault::Episode& e = back->injectors[0].plan.episodes()[0];
  EXPECT_EQ(e.kind, fault::FaultKind::kGilbertElliott);
  EXPECT_DOUBLE_EQ(e.start, 0.1);
  EXPECT_DOUBLE_EQ(e.end, 0.4);
  EXPECT_DOUBLE_EQ(e.rate, 0.75);
  EXPECT_EQ(e.param, 6u);
  EXPECT_DOUBLE_EQ(e.magnitude, 0.157);
  EXPECT_EQ(back->episode_count(), 3u);
  EXPECT_TRUE(back->has_kind(fault::FaultKind::kDuplicate));
  EXPECT_FALSE(back->has_kind(fault::FaultKind::kReorder));
  // Byte-stable: serialising the parsed schedule reproduces the document.
  EXPECT_EQ(back->to_json().dump(2), s.to_json().dump(2));
}

TEST(Schedule, FileRoundTrip) {
  const check::Schedule s = sample_schedule();
  const std::string path =
      testing::TempDir() + "/ldlp_schedule_roundtrip.json";
  ASSERT_TRUE(s.save(path));
  std::string error;
  const auto back = check::Schedule::load(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->to_json().dump(2), s.to_json().dump(2));
  std::remove(path.c_str());
}

TEST(Schedule, FaultDomainRoundTrip) {
  check::Schedule s;
  s.scenario = "fleet";
  s.seed = 7;
  fault::FaultPlan plan;
  fault::Episode cut;
  cut.kind = fault::FaultKind::kPartition;
  cut.start = 0.2;
  cut.end = 0.6;
  cut.domain = fault::FaultDomain::kSwitch;
  cut.domain_index = 3;
  cut.direction = fault::kDirAtoB;
  plan.add(cut);
  fault::Episode flap;
  flap.kind = fault::FaultKind::kLinkFlap;
  flap.start = 0.1;
  flap.end = 0.9;
  flap.rate = 0.4;
  flap.magnitude = 0.05;
  flap.domain = fault::FaultDomain::kRack;
  flap.domain_index = 2;
  plan.add(flap);
  s.injectors.push_back({"fabric", 99, plan});

  std::string error;
  const auto back = check::Schedule::from_json(s.to_json(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  const auto& episodes = back->injectors[0].plan.episodes();
  ASSERT_EQ(episodes.size(), 2u);
  // FaultPlan::add keeps episodes start-sorted: the flap (0.1) first.
  EXPECT_EQ(episodes[0].domain, fault::FaultDomain::kRack);
  EXPECT_EQ(episodes[0].domain_index, 2u);
  EXPECT_EQ(episodes[0].direction, fault::kDirBoth);
  EXPECT_EQ(episodes[1].domain, fault::FaultDomain::kSwitch);
  EXPECT_EQ(episodes[1].domain_index, 3u);
  EXPECT_EQ(episodes[1].direction, fault::kDirAtoB);
  EXPECT_EQ(back->to_json().dump(2), s.to_json().dump(2));
}

TEST(Schedule, LegacyEpisodesDefaultToNoDomain) {
  // A pre-fleet document has no domain keys at all; it must load with
  // every episode scoped kNone (per-host injector semantics unchanged)
  // and serialise byte-identically (no keys invented on the way out).
  const check::Schedule legacy = sample_schedule();
  const obs::Json doc = legacy.to_json();
  EXPECT_EQ(doc.dump(2).find("\"domain\""), std::string::npos);
  std::string error;
  const auto back = check::Schedule::from_json(doc, &error);
  ASSERT_TRUE(back.has_value()) << error;
  for (const auto& spec : back->injectors)
    for (const auto& e : spec.plan.episodes()) {
      EXPECT_EQ(e.domain, fault::FaultDomain::kNone);
      EXPECT_EQ(e.direction, fault::kDirBoth);
    }
  EXPECT_EQ(back->to_json().dump(2), doc.dump(2));
}

TEST(Schedule, UnknownFieldsTolerated) {
  // Forward compatibility: a document written by a newer tool may carry
  // extra keys; loading must ignore them rather than reject the file.
  obs::Json doc = sample_schedule().to_json();
  doc.set("future_top_level", obs::Json("ignored"));
  std::string error;
  const auto back = check::Schedule::from_json(doc, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->episode_count(), 3u);
}

TEST(Schedule, UnknownDomainNameRejected) {
  // An unknown domain *name* is a hard error: silently treating a scoped
  // outage as unscoped would change what the schedule means.
  check::Schedule s;
  s.scenario = "fleet";
  fault::FaultPlan plan;
  fault::Episode cut;
  cut.kind = fault::FaultKind::kPartition;
  cut.end = 1.0;
  cut.domain = fault::FaultDomain::kSite;
  plan.add(cut);
  s.injectors.push_back({"fabric", 1, plan});
  obs::Json doc = s.to_json();
  std::string text = doc.dump(2);
  const auto pos = text.find("\"site\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 6, "\"zone\"");
  std::string parse_error;
  const auto redoc = obs::Json::parse(text, &parse_error);
  ASSERT_TRUE(redoc.has_value()) << parse_error;
  std::string error;
  EXPECT_FALSE(check::Schedule::from_json(*redoc, &error).has_value());
  EXPECT_NE(error.find("zone"), std::string::npos);
}

TEST(Schedule, RejectsWrongSchema) {
  obs::Json doc = sample_schedule().to_json();
  doc.set("schema", obs::Json("not.a.schedule"));
  std::string error;
  EXPECT_FALSE(check::Schedule::from_json(doc, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Schedule, LoadReportsMissingFile) {
  std::string error;
  EXPECT_FALSE(
      check::Schedule::load("/nonexistent/nope.json", &error).has_value());
  EXPECT_NE(error.find("nope.json"), std::string::npos);
}

// ---- Shrinker ----------------------------------------------------------

/// A schedule fails iff it still contains the poison episode (param 42).
bool has_poison(const check::Schedule& s) {
  for (const auto& spec : s.injectors)
    for (const auto& e : spec.plan.episodes())
      if (e.param == 42) return true;
  return false;
}

TEST(Shrink, ReducesToSinglePoisonEpisode) {
  check::Schedule s;
  s.scenario = "synthetic";
  s.seed = 7;
  for (int host = 0; host < 2; ++host) {
    fault::FaultPlan plan;
    for (int i = 0; i < 6; ++i) {
      fault::Episode e;
      e.kind = fault::FaultKind::kLossBurst;
      e.start = i * 0.1;
      e.end = e.start + 0.05;
      e.param = (host == 1 && i == 3) ? 42u : static_cast<std::uint32_t>(i);
      plan.add(e);
    }
    s.injectors.push_back({host == 0 ? "a" : "b", 99, plan});
  }
  ASSERT_TRUE(has_poison(s));

  const check::ShrinkResult res = check::shrink(s, has_poison);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.episodes_before, 12u);
  EXPECT_EQ(res.episodes_after, 1u);
  EXPECT_TRUE(has_poison(res.schedule));
  // Injector wiring survives even when a plan empties out.
  ASSERT_EQ(res.schedule.injectors.size(), 2u);
  EXPECT_TRUE(res.schedule.injectors[0].plan.empty());
  EXPECT_EQ(res.schedule.injectors[1].plan.episodes().size(), 1u);
  EXPECT_EQ(res.schedule.injectors[1].plan.episodes()[0].param, 42u);
}

TEST(Shrink, RunBudgetRespected) {
  check::Schedule s = sample_schedule();
  std::size_t calls = 0;
  const auto pred = [&](const check::Schedule&) {
    ++calls;
    return true;  // everything "fails": shrinks all the way to empty
  };
  const check::ShrinkResult res = check::shrink(s, pred, 4);
  EXPECT_LE(res.runs, 4u);
  EXPECT_LE(calls, 4u);
}

// ---- Gilbert-Elliott determinism ---------------------------------------

TEST(GilbertElliott, SameSeedSameBursts) {
  // Two identical runs through a GE channel must take identical Good/Bad
  // transitions and drop identical frames — schedules replay exactly.
  const auto run_once = [] {
    fault::FaultPlan plan;
    plan.add({fault::FaultKind::kGilbertElliott, 0.0, 10.0, 0.9, 5, 0.1});
    fault::FaultInjector inj(plan, 1234);
    double t = 0.0;
    inj.set_clock(&t);
    std::vector<std::uint8_t> frame(64, 0xab);
    std::uint64_t dropped = 0;
    for (int i = 0; i < 2000; ++i) {
      t += 0.001;
      const fault::FrameVerdict v = inj.on_frame(frame);
      if (v.drop) ++dropped;
    }
    return std::pair<std::uint64_t, fault::FaultStats>(dropped, inj.stats());
  };
  const auto [dropped1, stats1] = run_once();
  const auto [dropped2, stats2] = run_once();
  EXPECT_EQ(dropped1, dropped2);
  EXPECT_GT(stats1.burst_entries, 0u);
  EXPECT_GT(stats1.burst_dropped, 0u);
  EXPECT_EQ(stats1.burst_dropped, stats2.burst_dropped);
  EXPECT_EQ(stats1.burst_entries, stats2.burst_entries);
  EXPECT_EQ(dropped1, stats1.burst_dropped);
}

}  // namespace
}  // namespace ldlp
