// Recovery and liveness tests: RST generation/acceptance windows,
// keepalive teardown of dead peers, TIME_WAIT reuse, and the
// ldlp::recover oracles — ConvergenceOracle settling after partition,
// link-flap and host-restart episodes, and the ProgressWatchdog catching
// silent wedges (the persist-timer mutation revert-guard).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "check_testing.hpp"
#include "fault/injector.hpp"
#include "recover/convergence.hpp"
#include "recover/watchdog.hpp"
#include "stack_testing.hpp"

namespace ldlp::recover {
namespace {

using stack::kNoPcb;
using stack::PcbId;
using stack::TcpConfig;
using stack::TcpPair;
using stack::TcpState;
using wire::ip_from_parts;

std::size_t read_server(TcpPair& net, std::vector<std::uint8_t>& out) {
  std::uint8_t chunk[2048];
  const std::size_t n = net.server.sockets().read(net.accepted_socket, chunk);
  out.insert(out.end(), chunk, chunk + n);
  return n;
}

// ---- RST lifecycle -----------------------------------------------------

TEST(RstRecovery, SendToRestartedPeerResetsConnection) {
  TcpPair net;
  ASSERT_TRUE(net.establish());

  // The server reboots: all connection state vanishes without a trace on
  // the wire. The client's next segment must draw a RST (no PCB matches)
  // and the client must tear its half down instead of retransmitting
  // into the void forever.
  net.server.restart();
  const std::vector<std::uint8_t> data(256, 0xab);
  ASSERT_TRUE(net.client.tcp().send(net.conn, data));
  for (int i = 0;
       i < 40 && net.client.tcp().state(net.conn) != TcpState::kClosed; ++i)
    net.tick(0.05);

  EXPECT_EQ(net.client.tcp().state(net.conn), TcpState::kClosed);
  EXPECT_GE(net.server.tcp().tcp_stats().rsts_sent, 1u);
  EXPECT_GE(net.client.tcp().tcp_stats().conns_reset, 1u);
}

TEST(RstRecovery, OutOfWindowRstIgnored) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  const std::uint16_t cport = net.client.tcp().pcb_view(net.conn).local_port;
  const std::uint32_t rcv_nxt =
      net.server.tcp().pcb_view(net.accepted).rcv_nxt;

  // A blind RST far outside the receive window must be dropped silently
  // (RFC 5961 spirit): honouring it would hand off-path attackers — or a
  // stale duplicate from an old incarnation — a connection kill.
  net.inject_to_server(cport, 80, rcv_nxt + (1u << 20), 0,
                       wire::tcpflags::kRst);
  net.settle();

  EXPECT_EQ(net.server.tcp().state(net.accepted), TcpState::kEstablished);
  EXPECT_EQ(net.server.tcp().tcp_stats().rsts_ignored, 1u);
  EXPECT_EQ(net.server.tcp().tcp_stats().conns_reset, 0u);
}

TEST(RstRecovery, InWindowRstAbortsConnection) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  const std::uint16_t cport = net.client.tcp().pcb_view(net.conn).local_port;
  const std::uint32_t rcv_nxt =
      net.server.tcp().pcb_view(net.accepted).rcv_nxt;

  // The same RST at exactly rcv_nxt is a legitimate abort.
  net.inject_to_server(cport, 80, rcv_nxt, 0, wire::tcpflags::kRst);
  net.settle();

  EXPECT_EQ(net.server.tcp().state(net.accepted), TcpState::kClosed);
  EXPECT_EQ(net.server.tcp().tcp_stats().conns_reset, 1u);
  EXPECT_EQ(net.server.tcp().tcp_stats().rsts_ignored, 0u);
}

// ---- Keepalive ---------------------------------------------------------

TcpConfig keepalive_config() {
  TcpConfig tcp;
  tcp.keepalive_idle_sec = 1.0;
  tcp.keepalive_intvl_sec = 0.5;
  tcp.keepalive_probes = 3;
  return tcp;
}

TEST(Keepalive, DeadPeerTornDownAfterProbes) {
  TcpPair net(core::SchedMode::kConventional, keepalive_config());
  ASSERT_TRUE(net.establish());

  // Everything addressed to the client now vanishes: from the client's
  // perspective the peer has silently died. Idle detection must probe
  // (1 s idle, then every 0.5 s) and give up after 3 unanswered probes
  // instead of holding the connection open forever.
  net.client.device().set_loss(1.0);
  for (int i = 0;
       i < 120 && net.client.tcp().state(net.conn) != TcpState::kClosed; ++i)
    net.tick(0.1);

  EXPECT_EQ(net.client.tcp().state(net.conn), TcpState::kClosed);
  EXPECT_EQ(net.client.tcp().tcp_stats().keepalive_drops, 1u);
  EXPECT_EQ(net.client.tcp().pcb_view(net.conn).stats.keepalive_probes, 3u);
}

TEST(Keepalive, LivePeerAnswersProbesConnectionSurvives) {
  TcpPair net(core::SchedMode::kConventional, keepalive_config());
  ASSERT_TRUE(net.establish());

  // Idle well past several probe cycles. A live peer answers each probe
  // (zero-length acceptability ACK), so the connection must survive and
  // still carry data afterwards.
  for (int i = 0; i < 40; ++i) net.tick(0.1);
  EXPECT_EQ(net.client.tcp().state(net.conn), TcpState::kEstablished);
  EXPECT_EQ(net.server.tcp().state(net.accepted), TcpState::kEstablished);
  EXPECT_GE(net.client.tcp().pcb_view(net.conn).stats.keepalive_probes, 1u);
  EXPECT_EQ(net.client.tcp().tcp_stats().keepalive_drops, 0u);

  const std::vector<std::uint8_t> data(64, 0x5e);
  ASSERT_TRUE(net.client.tcp().send(net.conn, data));
  net.settle();
  std::vector<std::uint8_t> got;
  read_server(net, got);
  EXPECT_EQ(got, data);
}

// ---- Close choreography ------------------------------------------------

TEST(CloseRecovery, SimultaneousCloseConverges) {
  TcpPair net;
  ASSERT_TRUE(net.establish());

  // Both ends close before either FIN has flown: the FINs cross in
  // flight. Both sides must still converge to a terminal state within
  // the liveness budget — no handshake ordering assumption.
  net.client.tcp().close(net.conn);
  net.server.tcp().close(net.accepted);

  ConvergenceOracle conv;
  conv.add_host(net.client);
  conv.add_host(net.server);
  conv.arm();
  for (int i = 0; i < 400 && !conv.settled(); ++i) {
    net.tick(0.05);
    conv.on_pass();
  }
  EXPECT_TRUE(conv.settled());
  EXPECT_TRUE(clean(conv));

  // After 2MSL both sides must be fully Closed, not parked in TimeWait.
  for (int i = 0; i < 30; ++i) net.tick(0.1);
  EXPECT_EQ(net.client.tcp().state(net.conn), TcpState::kClosed);
  EXPECT_EQ(net.server.tcp().state(net.accepted), TcpState::kClosed);
}

TEST(CloseRecovery, FreshSynShortcutsTimeWait) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  const std::uint16_t cport = net.client.tcp().pcb_view(net.conn).local_port;

  // Server closes first, then the client: the server's side ends up in
  // TIME_WAIT holding the 4-tuple.
  net.server.tcp().close(net.accepted);
  for (int i = 0; i < 10; ++i) net.tick(0.02);
  net.client.tcp().close(net.conn);
  for (int i = 0; i < 10 && net.server.tcp().state(net.accepted) !=
                                TcpState::kTimeWait;
       ++i)
    net.tick(0.02);
  ASSERT_EQ(net.server.tcp().state(net.accepted), TcpState::kTimeWait);

  // A fresh SYN on the same 4-tuple with a sequence beyond the old
  // incarnation's receive point cannot be a stray duplicate: the 2MSL
  // wait is cut short and the SYN goes to the listener.
  const std::uint32_t rcv_nxt =
      net.server.tcp().pcb_view(net.accepted).rcv_nxt;
  net.inject_to_server(cport, 80, rcv_nxt + 1000, 0, wire::tcpflags::kSyn);
  net.settle();

  EXPECT_EQ(net.server.tcp().tcp_stats().time_wait_reuses, 1u);
}

// ---- Persist-timer revert guard ----------------------------------------

/// Drive the zero-window wedge from the PR-4 persist fix: fill the
/// receiver until the window closes with nothing in flight, then drain.
/// Only a persist probe can restart the transfer. Returns bytes read.
std::size_t run_zero_window_drain(TcpPair& net, ConvergenceOracle& conv,
                                  ProgressWatchdog* dog, int drain_ticks) {
  std::vector<std::uint8_t> payload(24000);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 31 + 5);
  std::size_t queued = 0;
  for (int i = 0; i < 200 && queued < payload.size(); ++i) {
    const std::span<const std::uint8_t> rest(payload.data() + queued,
                                             payload.size() - queued);
    if (net.client.tcp().send(net.conn, rest)) queued = payload.size();
    net.tick(0.05);
  }
  EXPECT_EQ(queued, payload.size()) << "send buffer never drained";
  for (int i = 0; i < 40; ++i) net.tick(0.05);

  conv.arm();
  std::vector<std::uint8_t> got;
  for (int i = 0; i < drain_ticks && !conv.settled(); ++i) {
    net.tick(0.05);
    conv.on_pass();
    if (dog != nullptr) dog->on_pass();
    read_server(net, got);
  }
  // Settling is a kernel-level verdict (all bytes ACKed, queues empty);
  // whatever reached the receive socket is still waiting for the app.
  while (read_server(net, got) > 0) {
  }
  return got.size();
}

TEST(PersistGuard, ConvergenceOracleCatchesDisabledPersistTimer) {
  // Mutation revert-guard: re-introduce the PR-4 bug via the config
  // hook. With the persist timer off, the transfer wedges at the closed
  // window — the oracle must flag it, proving the fix is load-bearing
  // and the oracle would catch a regression.
  TcpConfig broken;
  broken.enable_persist_timer = false;
  TcpPair net(core::SchedMode::kConventional, broken);
  ASSERT_TRUE(net.establish());

  ConvergenceOracle conv(ConvergenceConfig{/*budget_passes=*/400});
  conv.add_host(net.client);
  conv.add_host(net.server);
  const std::size_t got = run_zero_window_drain(net, conv, nullptr, 600);

  EXPECT_LT(got, 24000u) << "wedge did not form — mutation not exercised";
  EXPECT_FALSE(conv.ok())
      << "oracle missed the persist-timer wedge";
  ASSERT_FALSE(conv.violations().empty());
  EXPECT_EQ(net.client.tcp().pcb_stats(net.conn).persist_probes, 0u);
}

TEST(PersistGuard, PersistTimerEnabledConvergesCleanly) {
  // Control arm: the shipped configuration completes the same transfer
  // and settles within the default liveness budget.
  TcpPair net;
  ASSERT_TRUE(net.establish());

  ConvergenceOracle conv;
  conv.add_host(net.client);
  conv.add_host(net.server);
  const std::size_t got = run_zero_window_drain(net, conv, nullptr, 900);

  EXPECT_EQ(got, 24000u);
  EXPECT_TRUE(conv.settled());
  EXPECT_TRUE(clean(conv));
  EXPECT_GT(net.client.tcp().pcb_stats(net.conn).persist_probes, 0u);
}

TEST(Watchdog, FlagsSilentZeroWindowStall) {
  // Same wedge, watched by the ProgressWatchdog: the client holds 8 KB
  // of send buffer while its progress counters stand perfectly still —
  // total silence with work pending is exactly its trigger.
  TcpConfig broken;
  broken.enable_persist_timer = false;
  TcpPair net(core::SchedMode::kConventional, broken);
  ASSERT_TRUE(net.establish());

  ConvergenceOracle conv(ConvergenceConfig{/*budget_passes=*/100000});
  ProgressWatchdog dog(WatchdogConfig{/*stall_passes=*/100});
  dog.add_host(net.client);
  conv.add_host(net.client);
  (void)run_zero_window_drain(net, conv, &dog, 250);

  EXPECT_FALSE(dog.ok());
  EXPECT_GE(dog.stats().stalls_flagged, 1u);
}

TEST(Watchdog, QuietOnHealthyTransfer) {
  TcpPair net;
  ASSERT_TRUE(net.establish());

  ProgressWatchdog dog(WatchdogConfig{/*stall_passes=*/100});
  dog.add_host(net.client);
  dog.add_host(net.server);

  const std::vector<std::uint8_t> payload(8000, 0x3c);
  ASSERT_TRUE(net.client.tcp().send(net.conn, payload));
  std::vector<std::uint8_t> got;
  for (int i = 0; i < 200 && got.size() < payload.size(); ++i) {
    net.tick(0.05);
    dog.on_pass();
    read_server(net, got);
  }
  EXPECT_EQ(got.size(), payload.size());
  EXPECT_TRUE(clean(dog));
  EXPECT_EQ(dog.stats().stalls_flagged, 0u);
}

// ---- Healing fault episodes --------------------------------------------

TEST(Heal, PartitionHealsAndTransferCompletes) {
  TcpPair net;
  ASSERT_TRUE(net.establish());

  // One-way partition at the client's NIC from the first tick: ACKs
  // vanish, the client backs off and retransmits, and once the
  // partition lifts the stream must complete byte-exact and every
  // connection must settle.
  fault::FaultPlan plan;
  fault::Episode ep;
  ep.kind = fault::FaultKind::kPartition;
  ep.start = 0.0;
  ep.end = 0.5;
  plan.add(ep);
  fault::FaultInjector inj(std::move(plan), /*seed=*/7);
  net.client.attach_fault(&inj);

  ConvergenceOracle conv;
  ProgressWatchdog dog;
  conv.add_host(net.client, &inj);
  conv.add_host(net.server);
  dog.add_host(net.client, &inj);
  dog.add_host(net.server);

  std::vector<std::uint8_t> payload(8000);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 13 + 1);
  ASSERT_TRUE(net.client.tcp().send(net.conn, payload));
  conv.arm();

  std::vector<std::uint8_t> got;
  for (int i = 0; i < 600 && !conv.settled(); ++i) {
    net.tick(0.05);
    conv.on_pass();
    dog.on_pass();
    read_server(net, got);
  }
  read_server(net, got);

  EXPECT_EQ(got, payload);
  EXPECT_TRUE(conv.settled());
  EXPECT_TRUE(clean(conv));
  EXPECT_TRUE(clean(dog));
  EXPECT_GE(inj.stats().partition_dropped, 1u);
  net.client.attach_fault(nullptr);
}

TEST(Heal, HostRestartConvergesToCleanReset) {
  TcpPair net;
  ASSERT_TRUE(net.establish());

  // The server crashes mid-transfer and comes back with no memory of
  // the connection. The client's retransmissions after the reboot draw
  // a RST; convergence here means "reset cleanly", not "complete". The
  // payload overfills the receive window (nobody reads), so the client
  // is guaranteed to still hold undelivered bytes when the crash hits.
  fault::FaultPlan plan;
  fault::Episode ep;
  ep.kind = fault::FaultKind::kHostRestart;
  ep.start = 0.5;
  ep.end = 0.9;
  plan.add(ep);
  fault::FaultInjector inj(std::move(plan), /*seed=*/7);
  net.server.attach_fault(&inj);

  ConvergenceOracle conv;
  conv.add_host(net.client);
  conv.add_host(net.server, &inj);

  const std::vector<std::uint8_t> payload(60000, 0x77);
  ASSERT_TRUE(net.client.tcp().send(net.conn, payload));
  conv.arm();

  for (int i = 0; i < 400 && !conv.settled(); ++i) {
    net.tick(0.05);
    conv.on_pass();
  }

  EXPECT_TRUE(conv.settled());
  EXPECT_TRUE(clean(conv));
  EXPECT_EQ(inj.stats().host_restarts, 1u);
  EXPECT_EQ(net.client.tcp().state(net.conn), TcpState::kClosed);
  net.server.attach_fault(nullptr);
}

TEST(Heal, OracleNotReadyWhileFaultsActive) {
  TcpPair net;
  ASSERT_TRUE(net.establish());

  fault::FaultPlan plan;
  fault::Episode ep;
  ep.kind = fault::FaultKind::kPartition;
  ep.start = 0.0;
  ep.end = 1.0;
  plan.add(ep);
  fault::FaultInjector inj(std::move(plan), /*seed=*/7);
  net.client.attach_fault(&inj);

  ConvergenceOracle conv(ConvergenceConfig{/*budget_passes=*/5});
  conv.add_host(net.client, &inj);
  conv.add_host(net.server);
  conv.arm();

  // The liveness budget must not tick while the world is still burning:
  // twenty passes inside the episode, far past the 5-pass budget, with
  // an unconverged connection on the books must flag nothing.
  const std::vector<std::uint8_t> payload(4000, 0x21);
  ASSERT_TRUE(net.client.tcp().send(net.conn, payload));
  for (int i = 0; i < 20; ++i) {
    net.tick(0.02);
    conv.on_pass();
  }
  EXPECT_FALSE(conv.ready());
  EXPECT_TRUE(conv.ok());

  // After the episode ends the budget starts counting — and since
  // post-heal retransmit recovery takes far more than 5 passes, the
  // deliberately tiny budget must now flag, proving it is live.
  std::vector<std::uint8_t> got;
  for (int i = 0; i < 400 && !conv.settled(); ++i) {
    net.tick(0.05);
    conv.on_pass();
    read_server(net, got);
  }
  EXPECT_TRUE(conv.ready());
  EXPECT_TRUE(conv.settled());
  EXPECT_FALSE(conv.ok());
  net.client.attach_fault(nullptr);
}

// ---- ARP retry timer ---------------------------------------------------
//
// ARP requests used to be sent only when a packet parked, with a
// park-count backoff. A lone parked packet whose single request died on
// the wire was therefore never re-requested: the mbuf sat in the park
// queue forever (the 256-seed heal soak caught this as an mbuf leak).
// The timer-driven retry path below is the fix's revert-guard.

TEST(ArpRetry, LostRequestRetriedByTimer) {
  TcpPair net;
  // Kill the server's RX so the client's first (and only) ARP request
  // dies in flight, leaving the datagram parked with no request pending.
  net.server.device().set_loss(1.0, 11);

  const std::uint32_t server_ip = net.server.ip().ip_addr();
  const std::vector<std::uint8_t> payload = {0xde, 0xad, 0xbe, 0xef};
  net.client.udp().send(5000, server_ip, 7000, payload);
  for (int i = 0; i < 3; ++i) net.tick(0.1);
  ASSERT_EQ(net.client.eth().arp().stats().requests_allowed, 1u);
  ASSERT_EQ(net.client.eth().arp().stats().retries, 0u);
  ASSERT_FALSE(net.client.eth().arp().lookup(server_ip).has_value());

  // Heal the link; only the retry timer can rescue the parked datagram.
  net.server.device().set_loss(0.0);
  for (int i = 0; i < 8; ++i) net.tick(0.1);

  EXPECT_GE(net.client.eth().arp().stats().retries, 1u);
  EXPECT_TRUE(net.client.eth().arp().lookup(server_ip).has_value());
  EXPECT_EQ(net.server.udp().udp_stats().rx, 1u);
  EXPECT_EQ(net.client.eth().arp().stats().resolve_failures, 0u);
}

TEST(ArpRetry, UnresolvableTargetExpiresParkedPackets) {
  TcpPair net;
  const std::uint64_t before = net.client.pool().stats().mbufs_outstanding();

  const std::vector<std::uint8_t> payload = {0x42};
  net.client.udp().send(5000, ip_from_parts(10, 0, 0, 99), 7000, payload);
  net.tick(0.05);
  ASSERT_GT(net.client.pool().stats().mbufs_outstanding(), before);

  // Retries back off 0.5 s doubling to 4 s; five tries then the entry is
  // expired and its parked packets freed — EHOSTDOWN, not a leak.
  for (int i = 0; i < 40; ++i) net.tick(0.5);

  const stack::ArpCacheStats& as = net.client.eth().arp().stats();
  EXPECT_EQ(as.retries, 5u);
  EXPECT_EQ(as.resolve_failures, 1u);
  EXPECT_EQ(net.client.pool().stats().mbufs_outstanding(), before);
  std::string why;
  EXPECT_TRUE(net.client.eth().arp().audit(&why)) << why;
}

}  // namespace
}  // namespace ldlp::recover
