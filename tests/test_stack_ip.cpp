// Integration-style tests of the lower stack: device wire, ARP resolution,
// Ethernet demux, IP validation/fragmentation/reassembly, ICMP echo, UDP,
// datagram socket lifetime and IGMP report timers on the host wheel.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "dns/resolver.hpp"
#include "stack/host_pair.hpp"
#include "stack/reassembly.hpp"
#include "wire/checksum.hpp"
#include "wire/udp.hpp"

namespace ldlp::stack {
namespace {

using wire::ip_from_parts;

const HostConfig kA{.name = "a"};
const HostConfig kB{.name = "b"};
const std::uint32_t kIpA = ip_from_parts(10, 0, 0, 1);
const std::uint32_t kIpB = ip_from_parts(10, 0, 0, 2);

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Device, WireCopiesFrames) {
  HostPair net(kA, kB);
  buf::Packet frame = buf::Packet::make(net.a.pool());
  std::vector<std::uint8_t> payload(100, 0x5a);
  ASSERT_TRUE(frame.append(payload));
  std::uint8_t* front = frame.prepend(wire::kEthHeaderLen);
  ASSERT_NE(front, nullptr);
  wire::EthHeader eth;
  eth.dst = net.b.device().mac();
  eth.src = net.a.device().mac();
  eth.ether_type = 0x0800;
  wire::write_eth(eth, {front, wire::kEthHeaderLen});
  ASSERT_TRUE(net.a.device().transmit(std::move(frame)));
  EXPECT_EQ(net.b.device().rx_pending(), 1u);
  buf::Packet got = net.b.device().receive();
  ASSERT_TRUE(got);
  EXPECT_EQ(got.length(), 114u);
  EXPECT_EQ(net.b.device().stats().rx_frames, 1u);
}

TEST(Device, OversizedFrameDropped) {
  HostPair net(kA, kB);
  std::vector<std::uint8_t> huge(2000, 1);
  buf::Packet frame = buf::Packet::from_bytes(net.a.pool(), huge);
  EXPECT_FALSE(net.a.device().transmit(std::move(frame)));
  EXPECT_EQ(net.a.device().stats().tx_drops, 1u);
}

TEST(Device, LossInjectionDrops) {
  HostPair net(kA, kB);
  net.b.device().set_loss(1.0);
  buf::Packet frame =
      buf::Packet::from_bytes(net.a.pool(), std::vector<std::uint8_t>(64, 0));
  std::uint8_t* front = frame.prepend(0);
  (void)front;
  (void)net.a.device().transmit(std::move(frame));
  EXPECT_EQ(net.b.device().rx_pending(), 0u);
  EXPECT_EQ(net.b.device().stats().rx_drops, 1u);
}

TEST(Udp, SendReceiveWithArpResolution) {
  HostPair net(kA, kB);
  const SocketId rx_sock = net.b.sockets().create(SocketKind::kDatagram);
  ASSERT_TRUE(net.b.udp().bind(9000, rx_sock));

  const auto payload = bytes_of("hello, small message");
  // First send triggers ARP: the datagram is parked, a request goes out,
  // the reply returns, and the parked datagram is released.
  net.a.udp().send(9001, kIpB, 9000, payload);
  net.settle(10);

  ASSERT_EQ(net.b.sockets().pending_datagrams(rx_sock), 1u);
  const auto dgram = net.b.sockets().read_datagram(rx_sock);
  ASSERT_TRUE(dgram.has_value());
  EXPECT_EQ(dgram->payload, payload);
  EXPECT_EQ(dgram->from_ip, kIpA);
  EXPECT_EQ(dgram->from_port, 9001);
  EXPECT_GT(net.a.eth().arp().entries(), 0u);

  // Second send goes straight through the warm ARP cache.
  net.a.udp().send(9001, kIpB, 9000, payload);
  net.settle(2);
  EXPECT_EQ(net.b.sockets().pending_datagrams(rx_sock), 1u);
}

TEST(Udp, UnboundPortCounted) {
  HostPair net(kA, kB);
  net.a.udp().send(1, kIpB, 4242, bytes_of("x"));
  net.settle(10);
  EXPECT_EQ(net.b.udp().udp_stats().rx_no_port, 1u);
}

TEST(Udp, BindConflictRefused) {
  HostPair net(kA, kB);
  const SocketId s1 = net.b.sockets().create(SocketKind::kDatagram);
  const SocketId s2 = net.b.sockets().create(SocketKind::kDatagram);
  EXPECT_TRUE(net.b.udp().bind(5000, s1));
  EXPECT_FALSE(net.b.udp().bind(5000, s2));
  net.b.udp().unbind(5000);
  EXPECT_TRUE(net.b.udp().bind(5000, s2));
}

TEST(Ip, FragmentationAndReassembly) {
  HostPair net({.name = "a", .mtu = 600},  // small MTU forces frags
               {.name = "b", .mtu = 600});
  const SocketId rx_sock = net.b.sockets().create(SocketKind::kDatagram);
  ASSERT_TRUE(net.b.udp().bind(7000, rx_sock));

  std::vector<std::uint8_t> big(2500);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 13);
  net.a.udp().send(7001, kIpB, 7000, big);
  net.settle(10);

  EXPECT_GT(net.a.ip().ip_stats().tx_fragmented, 0u);
  EXPECT_GT(net.b.ip().ip_stats().rx_fragments, 0u);
  EXPECT_EQ(net.b.ip().ip_stats().rx_reassembled, 1u);
  const auto dgram = net.b.sockets().read_datagram(rx_sock);
  ASSERT_TRUE(dgram.has_value());
  EXPECT_EQ(dgram->payload, big);
}

TEST(Ip, IcmpEchoReplied) {
  HostPair net(kA, kB);
  // Build an ICMP echo request by hand and push it through A's IP output.
  std::vector<std::uint8_t> icmp(16, 0);
  icmp[0] = 8;  // echo request
  icmp[4] = 0x12;
  icmp[5] = 0x34;  // identifier
  const std::uint16_t sum = wire::cksum_simple(icmp);
  icmp[2] = static_cast<std::uint8_t>(sum >> 8);
  icmp[3] = static_cast<std::uint8_t>(sum);
  buf::Packet pkt = buf::Packet::from_bytes(net.a.pool(), icmp);
  net.a.ip().output(std::move(pkt), kIpB, wire::IpProto::kIcmp);
  net.settle(10);
  EXPECT_EQ(net.b.ip().ip_stats().rx_icmp_echo, 1u);
  // A receives the reply (delivered to ICMP handler; not an echo request,
  // so consumed silently — verify it arrived at IP intact).
  EXPECT_GE(net.a.ip().ip_stats().rx, 1u);
  EXPECT_EQ(net.a.ip().ip_stats().rx_bad, 0u);
}

TEST(Ip, ForeignDestinationIgnored) {
  HostPair net(kA, kB);
  const SocketId rx_sock = net.b.sockets().create(SocketKind::kDatagram);
  ASSERT_TRUE(net.b.udp().bind(7000, rx_sock));
  // Prime the ARP cache so the bogus-destination datagram actually goes
  // out on the wire toward B's MAC.
  net.a.udp().send(1, kIpB, 7000, bytes_of("warm"));
  net.settle(10);
  net.a.eth().arp().insert(ip_from_parts(10, 0, 0, 77), net.b.device().mac());
  net.a.udp().send(1, ip_from_parts(10, 0, 0, 77), 7000, bytes_of("lost"));
  net.settle(10);
  EXPECT_EQ(net.b.ip().ip_stats().rx_not_mine, 1u);
  EXPECT_EQ(net.b.sockets().pending_datagrams(rx_sock), 1u);  // only "warm"
}

TEST(Reassembly, OutOfOrderFragmentsComplete) {
  buf::MbufPool pool(64, 16);
  ReassemblyTable table;
  wire::Ipv4Header base;
  base.src = 1;
  base.dst = 2;
  base.ident = 42;
  base.protocol = 17;

  auto frag = [&](std::uint16_t offset8, std::uint32_t len, bool more) {
    wire::Ipv4Header h = base;
    h.frag_offset = offset8;
    h.more_fragments = more;
    std::vector<std::uint8_t> payload(len);
    for (std::uint32_t i = 0; i < len; ++i)
      payload[i] = static_cast<std::uint8_t>(offset8 * 8 + i);
    return std::pair{h, buf::Packet::from_bytes(pool, payload)};
  };

  // Deliver middle, last, first.
  auto [h2, p2] = frag(100, 800, true);
  EXPECT_FALSE(table.offer(h2, std::move(p2), 0.0).has_value());
  auto [h3, p3] = frag(200, 100, false);
  EXPECT_FALSE(table.offer(h3, std::move(p3), 0.0).has_value());
  auto [h1, p1] = frag(0, 800, true);
  auto whole = table.offer(h1, std::move(p1), 0.0);
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->length(), 1700u);
  std::uint8_t probe[4];
  ASSERT_TRUE(whole->copy_out(800, probe));
  EXPECT_EQ(probe[0], static_cast<std::uint8_t>(800));
  EXPECT_EQ(table.pending(), 0u);
}

TEST(Reassembly, DuplicateFragmentIgnored) {
  buf::MbufPool pool(64, 16);
  ReassemblyTable table;
  wire::Ipv4Header h;
  h.src = 1;
  h.dst = 2;
  h.ident = 7;
  h.protocol = 17;
  h.more_fragments = true;
  EXPECT_FALSE(table
                   .offer(h, buf::Packet::from_bytes(
                                 pool, std::vector<std::uint8_t>(8, 1)),
                          0.0)
                   .has_value());
  EXPECT_FALSE(table
                   .offer(h, buf::Packet::from_bytes(
                                 pool, std::vector<std::uint8_t>(8, 2)),
                          0.0)
                   .has_value());
  EXPECT_EQ(table.stats().fragments_in, 2u);
  EXPECT_EQ(table.pending(), 1u);
}

TEST(Reassembly, TimeoutExpiresStaleDatagrams) {
  buf::MbufPool pool(64, 16);
  ReassemblyTable table(64, 30.0);
  wire::Ipv4Header h;
  h.ident = 9;
  h.protocol = 17;
  h.more_fragments = true;
  (void)table.offer(
      h, buf::Packet::from_bytes(pool, std::vector<std::uint8_t>(8, 0)), 0.0);
  table.expire(10.0);
  EXPECT_EQ(table.pending(), 1u);
  table.expire(31.0);
  EXPECT_EQ(table.pending(), 0u);
  EXPECT_EQ(table.stats().timeouts, 1u);
}

TEST(Arp, RequestOnlyOncePerDestination) {
  HostPair net(kA, kB);
  // Two sends before any reply: only one ARP request should leave.
  net.a.udp().send(1, kIpB, 5555, bytes_of("one"));
  net.a.udp().send(1, kIpB, 5555, bytes_of("two"));
  EXPECT_EQ(net.a.device().stats().tx_frames, 1u);  // single ARP request
  net.settle(10);
  // Both datagrams eventually delivered (parked then released).
  EXPECT_EQ(net.b.udp().udp_stats().rx, 2u);
}

TEST(Ip, RouteSelectionPicksGateway) {
  HostPair net(kA, kB);
  // A "remote" destination routed via B as gateway: the frame's IP dst
  // stays remote while the Ethernet next hop resolves to B.
  const std::uint32_t remote = ip_from_parts(192, 168, 7, 7);
  net.a.ip().add_route(Route{ip_from_parts(192, 168, 0, 0),
                              ip_from_parts(255, 255, 0, 0), kIpB});
  net.a.udp().send(1, remote, 7000, bytes_of("via-gw"));
  net.settle(10);
  // B receives the frame (ARP resolved to B) but the datagram is not for
  // B's IP, so IP counts it as not-mine — proving the gateway path.
  EXPECT_EQ(net.b.ip().ip_stats().rx_not_mine, 1u);
}

TEST(Ip, DefaultRouteFallsBackToOnLink) {
  HostPair net(kA, kB);
  // No matching route: next hop is the destination itself (on-link).
  const SocketId rx_sock = net.b.sockets().create(SocketKind::kDatagram);
  ASSERT_TRUE(net.b.udp().bind(7000, rx_sock));
  net.a.ip().add_route(Route{ip_from_parts(172, 16, 0, 0),
                              ip_from_parts(255, 255, 0, 0),
                              ip_from_parts(172, 16, 0, 1)});
  net.a.udp().send(1, kIpB, 7000, bytes_of("direct"));
  net.settle(10);
  EXPECT_EQ(net.b.sockets().pending_datagrams(rx_sock), 1u);
}

TEST(Udp, CorruptChecksumDropped) {
  HostPair net(kA, kB);
  const SocketId rx_sock = net.b.sockets().create(SocketKind::kDatagram);
  ASSERT_TRUE(net.b.udp().bind(7000, rx_sock));

  // Hand-craft a full Ethernet+IP+UDP frame whose UDP checksum is wrong
  // and inject it straight into B's device RX ring.
  std::vector<std::uint8_t> frame(wire::kEthHeaderLen +
                                  wire::kIpMinHeaderLen +
                                  wire::kUdpHeaderLen + 4);
  wire::EthHeader eth;
  eth.dst = net.b.device().mac();
  eth.src = net.a.device().mac();
  eth.ether_type = static_cast<std::uint16_t>(wire::EtherType::kIpv4);
  wire::write_eth(eth, frame);

  wire::Ipv4Header ip;
  ip.total_len = wire::kIpMinHeaderLen + wire::kUdpHeaderLen + 4;
  ip.protocol = static_cast<std::uint8_t>(wire::IpProto::kUdp);
  ip.src = kIpA;
  ip.dst = kIpB;
  wire::write_ipv4(ip, {frame.data() + wire::kEthHeaderLen,
                        wire::kIpMinHeaderLen});

  wire::UdpHeader udp{1, 7000, wire::kUdpHeaderLen + 4, 0xdead};  // bogus sum
  wire::write_udp(udp, {frame.data() + wire::kEthHeaderLen +
                            wire::kIpMinHeaderLen,
                        wire::kUdpHeaderLen});

  net.b.device().inject(frame);
  net.settle(2);
  EXPECT_EQ(net.b.sockets().pending_datagrams(rx_sock), 0u);
  EXPECT_EQ(net.b.udp().udp_stats().rx_bad, 1u);
}

TEST(Sockets, ReceiveBufferOverflowCounted) {
  HostPair net(kA, kB);
  const SocketId rx_sock =
      net.b.sockets().create(SocketKind::kDatagram, 64);  // tiny buffer
  ASSERT_TRUE(net.b.udp().bind(7000, rx_sock));
  for (int i = 0; i < 8; ++i)
    net.a.udp().send(1, kIpB, 7000, std::vector<std::uint8_t>(32, i));
  net.settle(10);
  EXPECT_LE(net.b.sockets().pending_datagrams(rx_sock), 2u);
  EXPECT_GT(net.b.sockets().socket_stats(rx_sock).overflows, 0u);
}

TEST(Sockets, DatagramRoomComesBackOnReadAndCrash) {
  // The queued-byte count behind the hiwat check is kept incrementally:
  // a read and a crash must both hand the room back.
  SocketLayer sockets;
  const SocketId sock = sockets.create(SocketKind::kDatagram, 64);
  const auto deliver = [&] {
    Datagram d;
    d.payload.assign(32, 0x5a);
    sockets.deliver_datagram(sock, std::move(d));
  };
  deliver();
  deliver();
  deliver();  // past hiwat: dropped
  EXPECT_EQ(sockets.pending_datagrams(sock), 2u);
  EXPECT_EQ(sockets.socket_stats(sock).overflows, 1u);
  ASSERT_TRUE(sockets.read_datagram(sock).has_value());
  deliver();
  EXPECT_EQ(sockets.pending_datagrams(sock), 2u);
  EXPECT_EQ(sockets.socket_stats(sock).overflows, 1u);
  sockets.crash();
  deliver();
  deliver();
  EXPECT_EQ(sockets.pending_datagrams(sock), 2u);
  EXPECT_EQ(sockets.socket_stats(sock).overflows, 1u);
}

TEST(Sockets, DatagramSocketFreedByUnbindAndCloseInEitherOrder) {
  for (const bool unbind_first : {true, false}) {
    HostPair net(kA, kB);
    SocketLayer& sockets = net.b.sockets();
    const SocketId sock = sockets.create(SocketKind::kDatagram);
    ASSERT_TRUE(net.b.udp().bind(7000, sock));
    if (unbind_first) {
      net.b.udp().unbind(7000);
      EXPECT_TRUE(sockets.valid(sock)) << "the application still holds it";
      sockets.close(sock);
    } else {
      sockets.close(sock);
      EXPECT_TRUE(sockets.valid(sock)) << "the port still holds it";
      net.b.udp().unbind(7000);
    }
    EXPECT_EQ(sockets.live_count(), 0u) << "unbind_first=" << unbind_first;
    EXPECT_FALSE(sockets.valid(sock)) << "unbind_first=" << unbind_first;
    // The port and the slot are both free for the next tenant.
    EXPECT_TRUE(net.b.udp().bind(7000, sockets.create(SocketKind::kDatagram)));
  }
}

TEST(Sockets, DnsEndpointsFreeTheirSocketsWhenDestroyed) {
  HostPair net(kA, kB);
  {
    dns::DnsServer server(net.b);
    server.add_a("www.example", ip_from_parts(10, 0, 0, 9));
    dns::DnsResolver::Config cfg;
    cfg.server_ip = kIpB;
    dns::DnsResolver resolver(net.a, cfg);
    std::optional<std::uint32_t> answer;
    resolver.resolve("www.example",
                     [&](const std::string&, std::optional<std::uint32_t> a) {
                       answer = a;
                     });
    for (int i = 0; i < 10 && !answer.has_value(); ++i) {
      net.settle(2);
      server.poll();
      resolver.poll();
    }
    EXPECT_EQ(answer, ip_from_parts(10, 0, 0, 9));
    EXPECT_EQ(net.a.sockets().live_count(), 1u);
    EXPECT_EQ(net.b.sockets().live_count(), 1u);
  }
  EXPECT_EQ(net.a.sockets().live_count(), 0u);
  EXPECT_EQ(net.b.sockets().live_count(), 0u);
}

TEST(Igmp, SuppressedReportNeverFiresFromTheWheel) {
  HostPair net(kA, kB);
  constexpr std::uint32_t kGroup = 0xe1000005;  // 225.0.0.5
  const std::size_t idle = net.a.wheel().armed_count();
  net.a.igmp().join(kGroup);  // one report now, one armed on the wheel
  EXPECT_EQ(net.a.wheel().armed_count(), idle + 1);
  // Another member reports for the group first: ours is suppressed and
  // leaves the wheel.
  IgmpMessage report;
  report.type = IgmpType::kReportV2;
  report.group = kGroup;
  net.a.igmp().on_message(report, kIpB);
  EXPECT_EQ(net.a.igmp().stats().suppressed, 1u);
  EXPECT_EQ(net.a.wheel().armed_count(), idle);
  for (int i = 0; i < 30; ++i) net.a.advance(1.0);  // past any deadline
  EXPECT_EQ(net.a.igmp().stats().reports_sent, 1u);
}

TEST(Scheduling, LdlpAndConventionalDeliverSameData) {
  for (const auto mode :
       {core::SchedMode::kConventional, core::SchedMode::kLdlp}) {
    HostPair net({.name = "a", .mode = mode}, {.name = "b", .mode = mode});
    const SocketId rx_sock = net.b.sockets().create(SocketKind::kDatagram);
    ASSERT_TRUE(net.b.udp().bind(8080, rx_sock));
    // Warm the ARP cache first (a cold cache parks at most a handful of
    // packets per unresolved destination, as in BSD).
    net.a.udp().send(8081, kIpB, 8080, bytes_of("warm"));
    net.settle(10);
    ASSERT_TRUE(net.b.sockets().read_datagram(rx_sock).has_value());
    for (int i = 0; i < 20; ++i)
      net.a.udp().send(8081, kIpB, 8080, bytes_of(std::to_string(i)));
    net.settle(10);
    EXPECT_EQ(net.b.sockets().pending_datagrams(rx_sock), 20u);
    // In-order delivery either way.
    for (int i = 0; i < 20; ++i) {
      const auto dgram = net.b.sockets().read_datagram(rx_sock);
      ASSERT_TRUE(dgram.has_value());
      EXPECT_EQ(dgram->payload, bytes_of(std::to_string(i)));
    }
  }
}

}  // namespace
}  // namespace ldlp::stack
