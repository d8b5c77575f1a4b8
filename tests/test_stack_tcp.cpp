// TCP behaviour tests: handshake, data transfer, header-prediction fast
// path, delayed ACKs, loss recovery, out-of-order buffering, orderly and
// abortive close, PCB demux (single-entry cache and hashed index), and
// the connection lifecycle: PCB and socket slot recycling.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/byteorder.hpp"
#include "stack_testing.hpp"

namespace ldlp::stack {
namespace {

using wire::ip_from_parts;

/// PCBs holding a slot: every state but CLOSED (live, listening and
/// TIME_WAIT connections alike).
std::size_t pcbs_in_use(const TcpLayer& tcp) {
  std::size_t n = 0;
  for (PcbId id = 0; id < tcp.pcb_count(); ++id)
    if (tcp.state(id) != TcpState::kClosed) ++n;
  return n;
}

void expect_audit_clean(const TcpLayer& tcp) {
  std::string why;
  EXPECT_TRUE(tcp.audit(&why)) << why;
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(TcpHandshake, ThreeWayEstablishes) {
  TcpPair net;
  EXPECT_TRUE(net.establish());
  EXPECT_EQ(net.client.tcp().tcp_stats().conns_established, 1u);
  EXPECT_EQ(net.server.tcp().tcp_stats().conns_established, 1u);
}

TEST(TcpHandshake, SynToClosedPortGetsRst) {
  TcpPair net;
  const PcbId conn = net.client.tcp().connect(ip_from_parts(10, 0, 0, 2), 81);
  net.settle();
  EXPECT_EQ(net.client.tcp().state(conn), TcpState::kClosed);
  EXPECT_EQ(net.server.tcp().tcp_stats().rsts_sent, 1u);
}

TEST(TcpHandshake, MssNegotiatedDownward) {
  TcpConfig small;
  small.mss = 512;
  TcpPair net(core::SchedMode::kConventional, small);
  ASSERT_TRUE(net.establish());
  // Send more than one MSS; every segment on the wire must respect it.
  std::vector<std::uint8_t> data(2000, 0x5c);
  ASSERT_TRUE(net.client.tcp().send(net.conn, data));
  net.settle();
  EXPECT_EQ(net.drain_server_socket(4000), data);
  EXPECT_GE(net.client.tcp().pcb_stats(net.conn).segs_out, 4u);
}

TEST(TcpData, SimpleTransfer) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  const auto msg = bytes_of("the quick brown fox");
  ASSERT_TRUE(net.client.tcp().send(net.conn, msg));
  net.settle();
  EXPECT_EQ(net.drain_server_socket(100), msg);
}

TEST(TcpData, BidirectionalTransfer) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  ASSERT_TRUE(net.client.tcp().send(net.conn, bytes_of("ping")));
  net.settle();
  ASSERT_TRUE(net.server.tcp().send(net.accepted, bytes_of("pong")));
  net.settle();
  EXPECT_EQ(net.drain_server_socket(10), bytes_of("ping"));
  std::vector<std::uint8_t> out(10);
  const std::size_t got = net.client.sockets().read(
      net.client.tcp().socket_of(net.conn), out);
  out.resize(got);
  EXPECT_EQ(out, bytes_of("pong"));
}

TEST(TcpData, LargeTransferIsByteExact) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  std::vector<std::uint8_t> data(20000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  // Send in chunks, draining as we go so the receive window keeps moving.
  std::vector<std::uint8_t> received;
  std::size_t sent = 0;
  for (int round = 0; round < 100 && received.size() < data.size(); ++round) {
    if (sent < data.size()) {
      const std::size_t take = std::min<std::size_t>(4000, data.size() - sent);
      if (net.client.tcp().send(
              net.conn, {data.data() + sent, take}))
        sent += take;
    }
    net.tick(0.01, 3);
    const auto chunk = net.drain_server_socket(8000);
    received.insert(received.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(received, data);
}

TEST(TcpData, FastPathDominatesBulkReceive) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        net.client.tcp().send(net.conn, std::vector<std::uint8_t>(512, i)));
    net.settle(3);
    (void)net.drain_server_socket(2000);
  }
  const auto& stats = net.server.tcp().pcb_stats(net.accepted);
  EXPECT_GE(stats.fast_path, 15u);
  EXPECT_GT(stats.fast_path, stats.slow_path);
}

TEST(TcpData, AckEverySecondSegment) {
  TcpConfig cfg;
  cfg.delack_every = 2;
  TcpPair net(core::SchedMode::kConventional, cfg);
  ASSERT_TRUE(net.establish());
  const auto& before = net.server.tcp().pcb_stats(net.accepted);
  const auto acks_before = before.acks_sent;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        net.client.tcp().send(net.conn, std::vector<std::uint8_t>(100, i)));
    net.settle(2);
  }
  const auto acks_after = net.server.tcp().pcb_stats(net.accepted).acks_sent;
  // 8 data segments -> ~4 ACKs (every second one).
  EXPECT_GE(acks_after - acks_before, 3u);
  EXPECT_LE(acks_after - acks_before, 5u);
}

TEST(TcpData, SingleEntryPcbCacheHits) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        net.client.tcp().send(net.conn, std::vector<std::uint8_t>(64, i)));
    net.settle(2);
  }
  const auto& stats = net.server.tcp().tcp_stats();
  EXPECT_GT(stats.pcb_cache_hits, stats.pcb_cache_misses);
}

TEST(TcpLoss, RetransmissionRecovers) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  // Drop everything the server hears for a while.
  net.server.device().set_loss(1.0, 7);
  ASSERT_TRUE(net.client.tcp().send(net.conn, bytes_of("lost-once")));
  net.settle();
  EXPECT_TRUE(net.drain_server_socket(100).empty());
  // Heal the wire; the retransmit timer resends.
  net.server.device().set_loss(0.0);
  for (int i = 0; i < 10; ++i) net.tick(0.3);
  EXPECT_EQ(net.drain_server_socket(100), bytes_of("lost-once"));
  EXPECT_GE(net.client.tcp().pcb_stats(net.conn).retransmits, 1u);
}

TEST(TcpLoss, LossyLinkEventuallyDeliversEverything) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  net.server.device().set_loss(0.3, 11);
  net.client.device().set_loss(0.3, 13);
  std::vector<std::uint8_t> data(4000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i);
  ASSERT_TRUE(net.client.tcp().send(net.conn, data));
  std::vector<std::uint8_t> received;
  for (int round = 0; round < 400 && received.size() < data.size(); ++round) {
    net.tick(0.25, 2);
    const auto chunk = net.drain_server_socket(8000);
    received.insert(received.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(received, data);
}

TEST(TcpLoss, ReorderedSegmentsUseOooBuffer) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  net.server.device().set_reorder(0.5, 23);
  std::vector<std::uint8_t> data(6000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 5 + 1);
  ASSERT_TRUE(net.client.tcp().send(net.conn, data));
  std::vector<std::uint8_t> received;
  for (int round = 0; round < 200 && received.size() < data.size(); ++round) {
    net.tick(0.05, 2);
    const auto chunk = net.drain_server_socket(8000);
    received.insert(received.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(received, data);
  EXPECT_GT(net.server.tcp().pcb_stats(net.accepted).ooo_buffered, 0u);
}

TEST(TcpLoss, ReorderAndLossTogether) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  net.server.device().set_reorder(0.3, 29);
  net.server.device().set_loss(0.15, 31);
  std::vector<std::uint8_t> data(3000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i ^ 0x55);
  ASSERT_TRUE(net.client.tcp().send(net.conn, data));
  std::vector<std::uint8_t> received;
  for (int round = 0; round < 400 && received.size() < data.size(); ++round) {
    net.tick(0.2, 2);
    const auto chunk = net.drain_server_socket(8000);
    received.insert(received.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(received, data);
}

TEST(TcpClose, OrderlyFinSequence) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  net.client.tcp().close(net.conn);
  net.settle();
  EXPECT_EQ(net.server.tcp().state(net.accepted), TcpState::kCloseWait);
  net.server.tcp().close(net.accepted);
  net.settle();
  EXPECT_EQ(net.server.tcp().state(net.accepted), TcpState::kClosed);
  EXPECT_EQ(net.client.tcp().state(net.conn), TcpState::kTimeWait);
  net.tick(2.0);  // 2MSL (shortened) expires
  EXPECT_EQ(net.client.tcp().state(net.conn), TcpState::kClosed);
}

TEST(TcpClose, CloseFlushesQueuedData) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  ASSERT_TRUE(net.client.tcp().send(net.conn, bytes_of("final words")));
  net.client.tcp().close(net.conn);
  net.settle();
  EXPECT_EQ(net.drain_server_socket(100), bytes_of("final words"));
  EXPECT_EQ(net.server.tcp().state(net.accepted), TcpState::kCloseWait);
}

TEST(TcpClose, AbortSendsRst) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  net.client.tcp().abort(net.conn);
  net.settle();
  EXPECT_EQ(net.client.tcp().state(net.conn), TcpState::kClosed);
  EXPECT_EQ(net.server.tcp().state(net.accepted), TcpState::kClosed);
  EXPECT_GE(net.server.tcp().tcp_stats().conns_reset, 1u);
}

TEST(TcpClose, SendAfterCloseRefused) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  net.client.tcp().close(net.conn);
  EXPECT_FALSE(net.client.tcp().send(net.conn, bytes_of("late")));
}

TEST(TcpScheduling, LdlpDeliversIdenticalStream) {
  std::vector<std::uint8_t> data(6000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 3);
  for (const auto mode :
       {core::SchedMode::kConventional, core::SchedMode::kLdlp}) {
    TcpPair net(mode);
    ASSERT_TRUE(net.establish());
    ASSERT_TRUE(net.client.tcp().send(net.conn, data));
    std::vector<std::uint8_t> received;
    for (int round = 0; round < 60 && received.size() < data.size(); ++round) {
      net.tick(0.01, 3);
      const auto chunk = net.drain_server_socket(8000);
      received.insert(received.end(), chunk.begin(), chunk.end());
    }
    EXPECT_EQ(received, data) << "mode=" << static_cast<int>(mode);
  }
}

TEST(TcpScheduling, LdlpBatchesBackloggedSegments) {
  TcpPair net(core::SchedMode::kLdlp);
  ASSERT_TRUE(net.establish());
  net.server.eth().reset_stats();  // discard per-frame handshake batches
  // Queue several segments on the wire before the server pumps once.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        net.client.tcp().send(net.conn, std::vector<std::uint8_t>(200, i)));
    net.client.pump();
  }
  EXPECT_GE(net.server.device().rx_pending(), 6u);
  net.server.pump();
  // All six data segments traversed the stack in one blocked pass.
  EXPECT_EQ(net.drain_server_socket(4000).size(), 1200u);
  const auto& eth_stats = net.server.eth().stats();
  EXPECT_GE(eth_stats.mean_batch(), 5.0);
}

TEST(TcpPools, NoMbufLeakAcrossSession) {
  std::uint64_t outstanding = 0;
  {
    TcpPair net;
    ASSERT_TRUE(net.establish());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(net.client.tcp().send(net.conn,
                                        std::vector<std::uint8_t>(700, i)));
      net.settle(3);
      (void)net.drain_server_socket(8000);
    }
    net.client.tcp().close(net.conn);
    net.server.tcp().close(net.accepted);
    net.tick(2.0);
    outstanding = net.client.pool().stats().mbufs_outstanding() +
                  net.server.pool().stats().mbufs_outstanding();
  }
  EXPECT_EQ(outstanding, 0u);
}

// ---- Send buffer and zero-copy delivery ------------------------------------

/// A TCP segment as it left on the wire.
struct WireSegment {
  std::uint32_t seq = 0;
  std::uint8_t flags = 0;
  std::vector<std::uint8_t> payload;
};

WireSegment segment_of(std::span<const std::uint8_t> frame) {
  constexpr std::size_t kIpOff = wire::kEthHeaderLen;
  constexpr std::size_t kTcpOff = kIpOff + wire::kIpMinHeaderLen;
  const auto header = wire::parse_tcp(frame.subspan(kTcpOff));
  EXPECT_TRUE(header.has_value());
  if (!header) return {};
  const std::size_t ip_len = load_be16(frame.data() + kIpOff + 2);
  const std::size_t data_off = kTcpOff + header->header_len();
  const std::size_t data_len = ip_len - wire::kIpMinHeaderLen -
                               header->header_len();
  return {header->seq, header->flags,
          {frame.begin() + static_cast<std::ptrdiff_t>(data_off),
           frame.begin() + static_cast<std::ptrdiff_t>(data_off + data_len)}};
}

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = static_cast<std::uint8_t>(i * 31 + i / 251);
  return data;
}

TEST(TcpSendBuffer, PartialAckRetransmitsOnlyTheUnackedBytes) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  // Capture what the client transmits instead of delivering it.
  std::vector<std::vector<std::uint8_t>> frames;
  net.client.device().set_tx_sink([&](std::vector<std::uint8_t>&& frame) {
    frames.push_back(std::move(frame));
    return true;
  });
  const std::vector<std::uint8_t> data = pattern(100);
  const TcpPcb& p = net.client.tcp().pcb_view(net.conn);
  const std::uint32_t una = p.snd_una;
  ASSERT_TRUE(net.client.tcp().send(net.conn, data));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(segment_of(frames[0]).payload, data);

  // The peer acknowledges the segment's first 40 bytes: they leave the
  // send buffer, and the segment in flight shrinks to the other 60.
  inject_segment(net.server, net.client, p.remote_port, p.local_port,
                 p.rcv_nxt, una + 40, wire::tcpflags::kAck);
  net.client.pump();
  EXPECT_EQ(p.snd_una, una + 40);
  EXPECT_EQ(p.send_buffer.size(), 60u);
  EXPECT_EQ(p.sent_bytes, 60u);
  ASSERT_EQ(p.rtx.size(), 1u);
  EXPECT_EQ(p.rtx.front().seq, una + 40);
  EXPECT_EQ(p.rtx.front().len, 60u);

  // The retransmission carries exactly the unacknowledged bytes.
  frames.clear();
  net.client.advance(1.0);
  ASSERT_EQ(frames.size(), 1u);
  const WireSegment rtx = segment_of(frames[0]);
  EXPECT_EQ(rtx.seq, una + 40);
  EXPECT_EQ(rtx.payload, std::vector<std::uint8_t>(data.begin() + 40,
                                                   data.end()));
  EXPECT_EQ(net.client.tcp().pcb_stats(net.conn).retransmits, 1u);
}

TEST(TcpSendBuffer, PersistProbeSendsTheFirstUnsentByteOnce) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  // Nobody reads at the server, so its window closes with data unsent.
  const std::vector<std::uint8_t> data = pattern(40000);
  ASSERT_TRUE(net.client.tcp().send(net.conn, data));
  for (int i = 0; i < 20; ++i) net.tick(0.01);
  const TcpPcb& p = net.client.tcp().pcb_view(net.conn);
  ASSERT_EQ(p.snd_wnd, 0u);
  ASSERT_TRUE(p.rtx.empty());
  const std::size_t unsent = p.unsent_bytes();
  ASSERT_GT(unsent, 0u);
  EXPECT_EQ(p.send_buffer.size(), unsent);  // everything sent is acked
  const std::uint32_t next = p.snd_nxt;

  // The persist timer fires: the probe is the first unsent byte. It is
  // sent once and stays in the buffer until acknowledged.
  net.client.advance(1.0);
  EXPECT_EQ(net.client.tcp().pcb_stats(net.conn).persist_probes, 1u);
  ASSERT_EQ(p.rtx.size(), 1u);
  EXPECT_EQ(p.rtx.front().seq, next);
  EXPECT_EQ(p.rtx.front().len, 1u);
  EXPECT_EQ(p.sent_bytes, 1u);
  EXPECT_EQ(p.unsent_bytes(), unsent - 1);
  EXPECT_EQ(p.send_buffer.size(), unsent);

  // Drain the receiver: every byte arrives once, in order.
  std::vector<std::uint8_t> got;
  for (int i = 0; i < 2000 && got.size() < data.size(); ++i) {
    net.tick(0.05);
    const std::vector<std::uint8_t> chunk = net.drain_server_socket(8192);
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(got, data);
  EXPECT_TRUE(p.send_buffer.empty());
}

TEST(TcpSendBuffer, PoolExhaustionMidStreamLosesNoByte) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  const std::vector<std::uint8_t> data = pattern(60000);
  std::vector<std::uint8_t> got;
  std::size_t sent = 0;
  const auto run = [&](int rounds) {
    for (int i = 0; i < rounds && got.size() < data.size(); ++i) {
      const std::size_t n = std::min<std::size_t>(3 * 1460, data.size() - sent);
      if (n != 0 && net.client.tcp().send(
                        net.conn, std::span(data).subspan(sent, n)))
        sent += n;
      net.tick(0.01);
      const std::vector<std::uint8_t> chunk = net.drain_server_socket(65536);
      got.insert(got.end(), chunk.begin(), chunk.end());
    }
  };
  run(10);
  ASSERT_GT(got.size(), 0u);
  ASSERT_LT(got.size(), data.size());

  // Run both pools dry mid-stream: no segment can be built, no ACK or
  // frame can leave device memory, and retransmissions fail too.
  std::vector<buf::Packet> held;
  for (Host* h : {&net.client, &net.server}) {
    while (buf::Packet pkt = buf::Packet::make(h->pool()))
      held.push_back(std::move(pkt));
  }
  run(40);
  EXPECT_GT(net.client.pool().stats().alloc_failures, 0u);
  EXPECT_GT(net.server.pool().stats().alloc_failures, 0u);

  held.clear();
  run(4000);
  EXPECT_EQ(got, data);
}

/// Records every byte the socket layer appends, and how many calls it took.
struct RecordingTap final : SocketTap {
  void on_stream_append(SocketId,
                        std::span<const std::uint8_t> bytes) override {
    appended.insert(appended.end(), bytes.begin(), bytes.end());
    ++calls;
  }
  void on_datagram(SocketId, const Datagram&) override {}

  std::vector<std::uint8_t> appended;
  std::size_t calls = 0;
};

TEST(TcpDelivery, SocketTapSeesEachByteOnceAcrossMultiMbufChains) {
  for (const core::SchedMode mode :
       {core::SchedMode::kConventional, core::SchedMode::kLdlp}) {
    TcpPair net(mode);
    ASSERT_TRUE(net.establish());
    RecordingTap tap;
    net.server.sockets().set_tap(&tap);
    // Six full-size segments. The device copies each 1514-byte frame into
    // a header mbuf and a cluster, and TCP hands that chain up trimmed of
    // its headers, so each segment's payload spans two mbufs.
    const std::vector<std::uint8_t> data = pattern(6 * 1460);
    ASSERT_TRUE(net.client.tcp().send(net.conn, data));
    net.settle();
    EXPECT_EQ(tap.appended, data);
    EXPECT_EQ(tap.calls, 12u);
    EXPECT_EQ(net.drain_server_socket(data.size() + 1), data);
  }
}

TEST(TcpClose, NoRetransmitTimerFiresAfterAbort) {
  // Regression: a PCB's retransmit timer must be disarmed when the
  // connection dies. Leave data unacked (armed rtx), abort, then advance
  // far past every rtx deadline — nothing may leave the closed PCB.
  TcpPair net;
  ASSERT_TRUE(net.establish());
  net.server.device().set_loss(1.0, 42);  // black-hole: data stays unacked
  ASSERT_TRUE(net.client.tcp().send(net.conn, bytes_of("doomed")));
  net.settle();
  net.client.tcp().abort(net.conn);
  net.client.pump();
  ASSERT_EQ(net.client.tcp().state(net.conn), TcpState::kClosed);
  const auto tx_before = net.client.device().stats().tx_frames;
  const auto rtx_before = net.client.tcp().pcb_stats(net.conn).retransmits;
  for (int i = 0; i < 24; ++i) net.tick(0.5);  // >> rto_max_sec
  EXPECT_EQ(net.client.device().stats().tx_frames, tx_before);
  EXPECT_EQ(net.client.tcp().pcb_stats(net.conn).retransmits, rtx_before);
}

TEST(TcpClose, CloseFromSynSentCancelsTimers) {
  // Connect toward a host that never answers, close while in SYN_SENT;
  // the SYN rtx timer must not keep firing afterwards.
  TcpPair net;
  net.server.device().set_loss(1.0, 7);  // server never hears the SYN
  const PcbId conn = net.client.tcp().connect(ip_from_parts(10, 0, 0, 2), 80);
  net.settle();
  ASSERT_EQ(net.client.tcp().state(conn), TcpState::kSynSent);
  net.client.tcp().close(conn);
  EXPECT_EQ(net.client.tcp().state(conn), TcpState::kClosed);
  const auto tx_before = net.client.device().stats().tx_frames;
  const auto arp_before = net.client.eth().arp().stats().retries;
  for (int i = 0; i < 40; ++i) net.tick(0.5);
  // The SYN itself is parked awaiting ARP (the dark server never answers
  // requests either), so the retry timer legitimately re-requests until
  // it gives up — but nothing TCP may leave the closed PCB.
  const auto arp_retries = net.client.eth().arp().stats().retries - arp_before;
  EXPECT_EQ(net.client.device().stats().tx_frames, tx_before + arp_retries);
  EXPECT_EQ(net.client.eth().arp().stats().resolve_failures, 1u);
}

// ---- Demux index and connection lifecycle ------------------------------

TEST(TcpLifecycle, ChurnRecyclesSlotsAndNeverRepeatsSocketIds) {
  // 5,000 connect/request/reply/close cycles. TIME_WAIT lasts ten cycles,
  // so about ten client PCBs linger at a time; the slot tables must stay
  // at that high-water mark instead of growing with every connection.
  TcpConfig cfg;
  cfg.time_wait_sec = 0.01;
  TcpPair net(core::SchedMode::kConventional, cfg);
  TcpLayer& ctcp = net.client.tcp();
  TcpLayer& stcp = net.server.tcp();
  (void)stcp.listen(80);
  std::set<SocketId> seen_client;  // SocketIds are host-local
  std::set<SocketId> seen_server;
  std::size_t peak_client = 0;
  std::size_t peak_server = 0;
  const auto sample = [&] {
    peak_client = std::max(peak_client, pcbs_in_use(ctcp));
    peak_server = std::max(peak_server, pcbs_in_use(stcp));
  };
  constexpr int kCycles = 5000;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    net.accepted = kNoPcb;
    const PcbId conn = ctcp.connect(ip_from_parts(10, 0, 0, 2), 80);
    const SocketId csock = ctcp.socket_of(conn);
    std::vector<std::uint8_t> request(64);
    for (std::size_t i = 0; i < request.size(); ++i)
      request[i] = static_cast<std::uint8_t>(cycle * 7 + i);
    ASSERT_TRUE(ctcp.send(conn, request));
    net.settle(4);
    sample();
    ASSERT_NE(net.accepted, kNoPcb) << "cycle " << cycle;
    const SocketId ssock = stcp.socket_of(net.accepted);
    ASSERT_TRUE(seen_client.insert(csock).second) << "client socket id reused";
    ASSERT_TRUE(seen_server.insert(ssock).second) << "server socket id reused";

    std::vector<std::uint8_t> buf(128);
    ASSERT_EQ(net.server.sockets().read(ssock, buf), request.size());
    std::vector<std::uint8_t> reply(request);
    for (std::uint8_t& b : reply) b ^= 0xff;
    ASSERT_TRUE(stcp.send(net.accepted, reply));
    net.settle(4);
    ASSERT_EQ(net.client.sockets().read(csock, buf), reply.size());
    ASSERT_TRUE(std::equal(reply.begin(), reply.end(), buf.begin()));

    ctcp.close(conn);
    net.settle(4);
    ASSERT_EQ(stcp.state(net.accepted), TcpState::kCloseWait);
    stcp.close(net.accepted);
    net.settle(4);
    sample();
    ASSERT_EQ(ctcp.state(conn), TcpState::kTimeWait);
    ASSERT_EQ(stcp.state(net.accepted), TcpState::kClosed);
    net.tick(0.001, 1);
  }
  EXPECT_EQ(seen_client.size(), static_cast<std::size_t>(kCycles));
  EXPECT_EQ(seen_server.size(), static_cast<std::size_t>(kCycles));
  EXPECT_LT(peak_client, 16u);
  EXPECT_LE(ctcp.pcb_count(), peak_client);
  EXPECT_LE(stcp.pcb_count(), peak_server);
  EXPECT_LE(net.client.sockets().slot_count(), peak_client);
  EXPECT_LE(net.server.sockets().slot_count(), peak_server);
  expect_audit_clean(ctcp);
  expect_audit_clean(stcp);

  // Once TIME_WAIT drains, every socket has been handed back.
  net.tick(0.1);
  for (Host* host : {&net.client, &net.server}) {
    EXPECT_EQ(host->sockets().live_count(), 0u);
    EXPECT_EQ(host->sockets().layer_stats().freed,
              static_cast<std::uint64_t>(kCycles));
    EXPECT_EQ(host->sockets().layer_stats().stale_drops, 0u);
  }
  EXPECT_EQ(pcbs_in_use(ctcp), 0u);
  EXPECT_EQ(pcbs_in_use(stcp), 1u);  // the listener
}

TEST(TcpLifecycle, SegmentQueuedForAFreedSocketIsDroppedAndCounted) {
  // Under LDLP a batch can carry data and then a RST for one connection:
  // TCP queues the data for the socket, the RST frees the socket (the
  // application had already closed it), and only then does the socket
  // layer drain. The bytes must not reach the slot's next tenant.
  TcpPair net(core::SchedMode::kLdlp);
  ASSERT_TRUE(net.establish());
  const SocketId old_sock = net.server.tcp().socket_of(net.accepted);
  net.server.tcp().close(net.accepted);  // half-close: FIN_WAIT_1
  ASSERT_TRUE(net.client.tcp().send(net.conn, bytes_of("late data")));
  net.client.tcp().abort(net.conn);  // data and RST now queue at the server
  net.server.pump();
  EXPECT_EQ(net.server.tcp().state(net.accepted), TcpState::kClosed);
  EXPECT_FALSE(net.server.sockets().valid(old_sock));
  EXPECT_EQ(net.server.sockets().layer_stats().stale_drops, 1u);

  // The next tenant takes the freed slot under a new generation and
  // starts empty.
  net.settle();
  net.accepted = kNoPcb;
  const PcbId conn = net.client.tcp().connect(ip_from_parts(10, 0, 0, 2), 80);
  net.settle();
  ASSERT_EQ(net.client.tcp().state(conn), TcpState::kEstablished);
  const SocketId new_sock = net.server.tcp().socket_of(net.accepted);
  EXPECT_NE(new_sock, old_sock);
  EXPECT_EQ(new_sock & 0xffffffffu, old_sock & 0xffffffffu);
  EXPECT_EQ(net.server.sockets().readable_bytes(new_sock), 0u);
  EXPECT_EQ(net.server.sockets().readable_bytes(old_sock), 0u);
}

TEST(TcpLifecycle, SocketOutlivesAResetUntilTheApplicationCloses) {
  // sofree in the other order: the PCB reaches CLOSED first and the
  // socket keeps its unread bytes until the application closes it.
  TcpPair net;
  ASSERT_TRUE(net.establish());
  ASSERT_TRUE(net.client.tcp().send(net.conn, bytes_of("unread")));
  net.settle();
  net.client.tcp().abort(net.conn);
  net.settle();
  ASSERT_EQ(net.server.tcp().state(net.accepted), TcpState::kClosed);
  const SocketId sock = net.server.tcp().socket_of(net.accepted);
  ASSERT_TRUE(net.server.sockets().valid(sock));
  EXPECT_EQ(net.drain_server_socket(64), bytes_of("unread"));
  net.server.tcp().close(net.accepted);
  EXPECT_FALSE(net.server.sockets().valid(sock));
  EXPECT_EQ(net.server.sockets().live_count(), 0u);
}

TEST(TcpLifecycle, RestartFreesEveryStreamSocket) {
  // A restart kills the host's applications with its kernel: sockets of
  // live connections and of reset ones the application never closed are
  // all freed, and the handles cached across the restart go stale.
  TcpPair net;
  ASSERT_TRUE(net.establish());
  const PcbId reset_conn = net.conn;
  const PcbId reset_child = net.accepted;
  const SocketId reset_sock = net.server.tcp().socket_of(reset_child);
  net.accepted = kNoPcb;
  net.conn = net.client.tcp().connect(ip_from_parts(10, 0, 0, 2), 80);
  net.settle();
  ASSERT_EQ(net.server.tcp().state(net.accepted), TcpState::kEstablished);
  const SocketId live_sock = net.server.tcp().socket_of(net.accepted);
  net.client.tcp().abort(reset_conn);
  ASSERT_TRUE(net.client.tcp().send(net.conn, bytes_of("unread")));
  net.settle();
  ASSERT_EQ(net.server.tcp().state(reset_child), TcpState::kClosed);
  ASSERT_EQ(net.server.sockets().readable_bytes(live_sock), 6u);
  ASSERT_EQ(net.server.sockets().live_count(), 2u);

  net.server.restart();
  EXPECT_EQ(net.server.sockets().live_count(), 0u);
  EXPECT_FALSE(net.server.sockets().valid(reset_sock));
  EXPECT_FALSE(net.server.sockets().valid(live_sock));
  std::vector<std::uint8_t> buf(16);
  EXPECT_EQ(net.server.sockets().read(live_sock, buf), 0u);
  expect_audit_clean(net.server.tcp());

  // The rebooted host serves again from recycled slots, and the
  // application's close of the new connection frees its socket.
  net.accepted = kNoPcb;
  ASSERT_TRUE(net.establish());
  const SocketId fresh = net.server.tcp().socket_of(net.accepted);
  EXPECT_NE(fresh, live_sock);
  EXPECT_NE(fresh, reset_sock);
  EXPECT_EQ(net.server.sockets().live_count(), 1u);
  net.client.tcp().abort(net.conn);
  net.settle();
  net.server.tcp().close(net.accepted);
  EXPECT_EQ(net.server.sockets().live_count(), 0u);
}

TEST(TcpLifecycle, UnacceptedChildFreesItsSocket) {
  // A connection that dies in SYN_RCVD was never handed to the
  // application, so nothing else will ever close its socket.
  TcpPair net;
  (void)net.server.tcp().listen(80);
  net.inject_to_server(40000, 80, 1000, 0, wire::tcpflags::kSyn);
  net.server.pump();
  ASSERT_EQ(net.server.tcp().state(1), TcpState::kSynReceived);
  EXPECT_EQ(net.server.sockets().live_count(), 1u);
  net.inject_to_server(40000, 80, 1001, 0, wire::tcpflags::kRst);
  net.server.pump();
  EXPECT_EQ(net.server.tcp().state(1), TcpState::kClosed);
  EXPECT_EQ(net.server.sockets().live_count(), 0u);
  EXPECT_EQ(net.accepted, kNoPcb);
  expect_audit_clean(net.server.tcp());
}

TEST(TcpDemux, ManyConnectionsEachReachTheirOwnSocket) {
  TcpPair net;
  (void)net.server.tcp().listen(80);
  std::vector<PcbId> conns;
  std::vector<PcbId> accepted;
  net.server.tcp().set_accept_hook([&](PcbId id) { accepted.push_back(id); });
  for (int i = 0; i < 40; ++i) {
    conns.push_back(net.client.tcp().connect(ip_from_parts(10, 0, 0, 2), 80));
    net.settle();
  }
  ASSERT_EQ(accepted.size(), conns.size());
  // Round-robin: consecutive segments belong to different connections, so
  // each one misses the single-entry cache and goes to the index.
  const auto misses_before = net.server.tcp().tcp_stats().pcb_cache_misses;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < conns.size(); ++i)
      ASSERT_TRUE(net.client.tcp().send(
          conns[i], bytes_of("c" + std::to_string(i) + ";")));
    net.settle();
  }
  EXPECT_GE(net.server.tcp().tcp_stats().pcb_cache_misses - misses_before,
            3 * conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) {
    // The i-th connection established i-th, so accepted[i] is its peer.
    const std::string want = "c" + std::to_string(i) + ";";
    std::vector<std::uint8_t> out(64);
    out.resize(net.server.sockets().read(
        net.server.tcp().socket_of(accepted[i]), out));
    EXPECT_EQ(out, bytes_of(want + want + want)) << "connection " << i;
  }
  expect_audit_clean(net.client.tcp());
  expect_audit_clean(net.server.tcp());
}

TEST(TcpDemux, TimeWaitReuseHandsTheSynToTheListener) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  const std::uint16_t cport =
      net.client.tcp().pcb_view(net.conn).local_port;
  // Server closes first, so its side holds the tuple in TIME_WAIT.
  net.server.tcp().close(net.accepted);
  net.settle();
  net.client.tcp().close(net.conn);
  net.settle();
  ASSERT_EQ(net.server.tcp().state(net.accepted), TcpState::kTimeWait);
  const PcbId old_id = net.accepted;
  const std::uint32_t rcv_nxt =
      net.server.tcp().pcb_view(old_id).rcv_nxt;
  const auto rsts_before = net.server.tcp().tcp_stats().rsts_sent;

  // A fresh SYN beyond the old receive point: TIME_WAIT is cut short and
  // the listener's child takes the freed slot, the lowest one free.
  net.inject_to_server(cport, 80, rcv_nxt + 1000, 0, wire::tcpflags::kSyn);
  net.server.pump();
  const TcpLayer& tcp = net.server.tcp();
  EXPECT_EQ(tcp.tcp_stats().time_wait_reuses, 1u);
  EXPECT_EQ(tcp.tcp_stats().rsts_sent, rsts_before);
  EXPECT_EQ(tcp.state(old_id), TcpState::kSynReceived);
  EXPECT_EQ(tcp.pcb_view(old_id).irs, rcv_nxt + 1000);
  EXPECT_EQ(tcp.pcb_count(), 2u);  // listener + the recycled slot
  expect_audit_clean(tcp);

  // A SYN at or below the old receive point is not fresh: it stays with
  // the TIME_WAIT PCB, which answers with an ACK, not a new connection.
  TcpPair again;
  ASSERT_TRUE(again.establish());
  const std::uint16_t port2 =
      again.client.tcp().pcb_view(again.conn).local_port;
  again.server.tcp().close(again.accepted);
  again.settle();
  again.client.tcp().close(again.conn);
  again.settle();
  ASSERT_EQ(again.server.tcp().state(again.accepted), TcpState::kTimeWait);
  const std::uint32_t rcv2 =
      again.server.tcp().pcb_view(again.accepted).rcv_nxt;
  again.inject_to_server(port2, 80, rcv2 - 1, 0, wire::tcpflags::kSyn);
  again.server.pump();
  EXPECT_EQ(again.server.tcp().tcp_stats().time_wait_reuses, 0u);
  EXPECT_EQ(again.server.tcp().state(again.accepted), TcpState::kTimeWait);
}

TEST(TcpDemux, NoPcbAndListenerFallbackAnswerAsBefore) {
  TcpPair net;
  (void)net.server.tcp().listen(80);
  const TcpLayer& tcp = net.server.tcp();
  using wire::tcpflags::kAck;
  using wire::tcpflags::kRst;
  using wire::tcpflags::kSyn;

  // No PCB and no listener: a RST answers an ACK and a SYN, never a RST.
  net.inject_to_server(40000, 81, 100, 200, kAck);
  net.server.pump();
  EXPECT_EQ(tcp.tcp_stats().no_pcb, 1u);
  EXPECT_EQ(tcp.tcp_stats().rsts_sent, 1u);
  net.inject_to_server(40000, 81, 100, 0, kSyn);
  net.server.pump();
  EXPECT_EQ(tcp.tcp_stats().no_pcb, 2u);
  EXPECT_EQ(tcp.tcp_stats().rsts_sent, 2u);
  net.inject_to_server(40000, 81, 100, 0, kRst);
  net.server.pump();
  EXPECT_EQ(tcp.tcp_stats().no_pcb, 3u);
  EXPECT_EQ(tcp.tcp_stats().rsts_sent, 2u);

  // An unknown tuple on a listening port goes to the listener: an ACK
  // draws a RST from it, and a SYN opens a child connection.
  net.inject_to_server(40001, 80, 100, 200, kAck);
  net.server.pump();
  EXPECT_EQ(tcp.tcp_stats().no_pcb, 3u);
  EXPECT_EQ(tcp.tcp_stats().rsts_sent, 3u);
  EXPECT_EQ(tcp.pcb_count(), 1u);
  net.inject_to_server(40002, 80, 100, 0, kSyn);
  net.server.pump();
  EXPECT_EQ(tcp.pcb_count(), 2u);
  EXPECT_EQ(tcp.state(1), TcpState::kSynReceived);
  EXPECT_EQ(tcp.pcb_view(1).remote_port, 40002);
  expect_audit_clean(tcp);
}

}  // namespace
}  // namespace ldlp::stack
