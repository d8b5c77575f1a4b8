// IGMP tests: message codec, join/leave report behaviour, query-driven
// delayed reports, report suppression, and multicast datagram delivery
// filtered by group membership — over the real two-host stack.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stack/host_pair.hpp"

namespace ldlp::stack {
namespace {

using wire::ip_from_parts;

constexpr std::uint32_t kGroup = 0xe1000005;  // 225.0.0.5

TEST(IgmpCodec, RoundTripWithChecksum) {
  IgmpMessage msg;
  msg.type = IgmpType::kReportV2;
  msg.max_resp_deciseconds = 0;
  msg.group = kGroup;
  std::uint8_t bytes[kIgmpLen];
  ASSERT_EQ(write_igmp(msg, bytes), kIgmpLen);
  const auto parsed = parse_igmp(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, IgmpType::kReportV2);
  EXPECT_EQ(parsed->group, kGroup);
}

TEST(IgmpCodec, CorruptionRejected) {
  IgmpMessage msg;
  msg.type = IgmpType::kQuery;
  std::uint8_t bytes[kIgmpLen];
  write_igmp(msg, bytes);
  bytes[5] ^= 0x01;
  EXPECT_FALSE(parse_igmp(bytes).has_value());
  // Unknown type.
  write_igmp(msg, bytes);
  bytes[0] = 0x42;
  EXPECT_FALSE(parse_igmp(bytes).has_value());
}

TEST(IgmpCodec, MulticastPredicates) {
  EXPECT_TRUE(is_multicast(kAllHostsGroup));
  EXPECT_TRUE(is_multicast(kGroup));
  EXPECT_FALSE(is_multicast(ip_from_parts(10, 0, 0, 1)));
  EXPECT_FALSE(is_multicast(0xffffffff));
}

TEST(IgmpHostSide, JoinSendsUnsolicitedReport) {
  HostPair net({.name = "a"}, {.name = "b"});
  net.a.igmp().join(kGroup);
  EXPECT_EQ(net.a.igmp().stats().reports_sent, 1u);
  EXPECT_TRUE(net.a.igmp().is_member(kGroup));
  net.settle(6);
  // The peer (also not a member) sees the report at IP as IGMP protocol.
  EXPECT_GE(net.b.ip().ip_stats().rx_igmp, 0u);  // filtered: not a member
  // Second unsolicited report after the random delay.
  for (int i = 0; i < 12; ++i) {
    net.a.advance(1.0);
    net.settle(1);
  }
  EXPECT_EQ(net.a.igmp().stats().reports_sent, 2u);
}

TEST(IgmpHostSide, LeaveSendsLeaveWhenLastReporter) {
  HostPair net({.name = "a"}, {.name = "b"});
  net.a.igmp().join(kGroup);
  net.a.igmp().leave(kGroup);
  EXPECT_EQ(net.a.igmp().stats().leaves_sent, 1u);
  EXPECT_FALSE(net.a.igmp().is_member(kGroup));
  // Leaving a group we never joined: silent.
  net.a.igmp().leave(kGroup);
  EXPECT_EQ(net.a.igmp().stats().leaves_sent, 1u);
}

TEST(IgmpHostSide, QueryTriggersDelayedReport) {
  HostPair net({.name = "a"}, {.name = "b"});
  net.b.igmp().join(kGroup);
  net.settle(6);
  const auto reports_before = net.b.igmp().stats().reports_sent;

  // Host A plays router: general query to all-hosts.
  std::uint8_t bytes[kIgmpLen];
  IgmpMessage query;
  query.type = IgmpType::kQuery;
  query.max_resp_deciseconds = 20;  // 2 s window
  query.group = 0;
  write_igmp(query, bytes);
  buf::Packet pkt = buf::Packet::from_bytes(net.a.pool(), bytes);
  net.a.ip().output(std::move(pkt), kAllHostsGroup, wire::IpProto::kIgmp, 1);
  net.settle(6);
  EXPECT_EQ(net.b.igmp().stats().queries_heard, 1u);

  // Within the response window, the report fires.
  for (int i = 0; i < 25; ++i) {
    net.b.advance(0.1);
    net.settle(1);
  }
  EXPECT_GT(net.b.igmp().stats().reports_sent, reports_before);
}

TEST(IgmpHostSide, ReportSuppression) {
  HostPair net({.name = "a"}, {.name = "b"});
  net.a.igmp().join(kGroup);
  net.b.igmp().join(kGroup);
  net.settle(6);

  // Query both; whoever fires first suppresses the other.
  std::uint8_t bytes[kIgmpLen];
  IgmpMessage query;
  query.type = IgmpType::kQuery;
  query.max_resp_deciseconds = 50;
  write_igmp(query, bytes);
  for (Host* h : {&net.a, &net.b}) {
    buf::Packet pkt = buf::Packet::from_bytes(h->pool(), bytes);
    // Inject locally as though a router on the wire queried everyone.
    h->ip().output(std::move(pkt), kAllHostsGroup, wire::IpProto::kIgmp, 1);
  }
  net.settle(6);
  for (int i = 0; i < 60; ++i) net.tick(0.1, 1);
  const auto suppressed =
      net.a.igmp().stats().suppressed + net.b.igmp().stats().suppressed;
  EXPECT_GE(suppressed, 1u);
}

TEST(IgmpHostSide, MulticastDeliveryFollowsMembership) {
  HostPair net({.name = "a"}, {.name = "b"});
  const SocketId sock = net.b.sockets().create(SocketKind::kDatagram);
  ASSERT_TRUE(net.b.udp().bind(6000, sock));

  auto send_to_group = [&] {
    const std::vector<std::uint8_t> payload{'m', 'c'};
    net.a.udp().send(6001, kGroup, 6000, payload);
    net.settle(6);
  };

  // Not a member: the datagram is filtered at IP.
  send_to_group();
  EXPECT_EQ(net.b.sockets().pending_datagrams(sock), 0u);
  EXPECT_GE(net.b.ip().ip_stats().rx_not_mine, 1u);

  // Join, then the same datagram is delivered.
  net.b.igmp().join(kGroup);
  net.settle(6);
  send_to_group();
  EXPECT_EQ(net.b.sockets().pending_datagrams(sock), 1u);
  EXPECT_GE(net.b.ip().ip_stats().rx_multicast, 1u);

  // Leave again: filtered again.
  net.b.igmp().leave(kGroup);
  net.settle(6);
  send_to_group();
  EXPECT_EQ(net.b.sockets().pending_datagrams(sock), 1u);
}

}  // namespace
}  // namespace ldlp::stack
