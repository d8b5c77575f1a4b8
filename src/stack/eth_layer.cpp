#include "stack/eth_layer.hpp"

#include "common/assert.hpp"
#include "stack/footprints.hpp"
#include "stack/igmp.hpp"
#include "wire/arp.hpp"

namespace ldlp::stack {

EthLayer::EthLayer(NetDevice& device, std::uint32_t my_ip,
                   time::TimerWheel& wheel)
    : core::Layer("ethernet"), device_(device), my_ip_(my_ip), wheel_(wheel) {}

void EthLayer::process(core::Message msg) {
  trace_fn(Fn::kEtherInput);
  trace_rgn(Rgn::kEthIfnetRo);
  trace_rgn(Rgn::kEthStatsMut);

  std::uint8_t header_bytes[wire::kEthHeaderLen];
  if (!msg.packet.copy_out(0, header_bytes)) {
    ++stats_.rx_dropped;
    return;
  }
  trace_pkt(trace::RefKind::kRead, wire::kEthHeaderLen);
  const auto header = wire::parse_eth(header_bytes);
  if (!header.has_value()) {
    ++stats_.rx_dropped;
    return;
  }
  // Accept our unicast MAC, broadcast, and any group (multicast) MAC —
  // the IP layer filters multicast by group membership.
  const bool group_addressed = (header->dst[0] & 0x01) != 0;
  if (header->dst != device_.mac() && !header->is_broadcast() &&
      !group_addressed) {
    ++stats_.rx_dropped;
    return;
  }

  msg.packet.adj(static_cast<std::int32_t>(wire::kEthHeaderLen));
  trace_fn(Fn::kMAdj);

  switch (header->ether_type) {
    case static_cast<std::uint16_t>(wire::EtherType::kIpv4):
      ++stats_.rx_ip;
      emit(std::move(msg), ethports::kIp);
      break;
    case static_cast<std::uint16_t>(wire::EtherType::kArp):
      ++stats_.rx_arp;
      handle_arp(std::move(msg.packet));
      break;
    default:
      ++stats_.rx_dropped;
      break;
  }
}

void EthLayer::handle_arp(buf::Packet pkt) {
  std::uint8_t bytes[wire::kArpLen];
  if (!pkt.copy_out(0, bytes)) return;
  const auto arp = wire::parse_arp(bytes);
  if (!arp.has_value()) return;

  // Learn the sender mapping either way (standard ARP behaviour).
  arp_.insert(arp->sender_ip, arp->sender_mac);
  for (buf::Packet& held : arp_.take_pending(arp->sender_ip)) {
    output_ip(std::move(held), arp->sender_ip);
  }
  resync_wheel();  // the resolved IP's retry deadline is gone

  if (arp->op == wire::ArpOp::kRequest && arp->target_ip == my_ip_) {
    send_arp(wire::ArpOp::kReply, arp->sender_ip, arp->sender_mac);
  }
}

void EthLayer::send_arp(wire::ArpOp op, std::uint32_t target_ip,
                        const wire::MacAddr& target_mac) {
  buf::Packet pkt = buf::Packet::make(device_.pool());
  if (!pkt) return;
  wire::ArpPacket arp;
  arp.op = op;
  arp.sender_mac = device_.mac();
  arp.sender_ip = my_ip_;
  arp.target_mac = op == wire::ArpOp::kRequest ? wire::MacAddr{} : target_mac;
  arp.target_ip = target_ip;
  std::uint8_t bytes[wire::kArpLen];
  if (wire::write_arp(arp, bytes) != wire::kArpLen) return;
  if (!pkt.append(bytes)) return;
  const wire::MacAddr dst =
      op == wire::ArpOp::kRequest ? wire::kBroadcastMac : target_mac;
  send_frame(std::move(pkt), dst, wire::EtherType::kArp);
}

void EthLayer::send_frame(buf::Packet payload, const wire::MacAddr& dst,
                          wire::EtherType type) {
  std::uint8_t* front = payload.prepend(wire::kEthHeaderLen);
  if (front == nullptr) return;
  wire::EthHeader header;
  header.dst = dst;
  header.src = device_.mac();
  header.ether_type = static_cast<std::uint16_t>(type);
  wire::write_eth(header, {front, wire::kEthHeaderLen});
  payload.sync_pkt_len();
  ++stats_.tx_frames;
  (void)device_.transmit(std::move(payload));
}

void EthLayer::output_ip(buf::Packet datagram, std::uint32_t next_hop_ip) {
  trace_fn(Fn::kEtherOutput);
  // Multicast maps algorithmically to a group MAC (01:00:5e + low 23
  // bits, RFC 1112) — no ARP involved.
  if (is_multicast(next_hop_ip)) {
    const wire::MacAddr group_mac{
        0x01,
        0x00,
        0x5e,
        static_cast<std::uint8_t>((next_hop_ip >> 16) & 0x7f),
        static_cast<std::uint8_t>(next_hop_ip >> 8),
        static_cast<std::uint8_t>(next_hop_ip)};
    send_frame(std::move(datagram), group_mac, wire::EtherType::kIpv4);
    return;
  }
  trace_fn(Fn::kArpResolve);
  const auto mac = arp_.lookup(next_hop_ip);
  if (!mac.has_value()) {
    ++stats_.tx_arp_held;
    // Park-queue overflow drops the datagram but must still count as a
    // resolution attempt: if the queue filled and then the ARP reply was
    // lost, suppressing the request here would deadlock the next hop
    // forever (the parked packets keep the queue full, so no later send
    // could ever re-request).
    (void)arp_.hold(next_hop_ip, std::move(datagram));
    if (arp_.should_request(next_hop_ip)) {
      send_arp(wire::ArpOp::kRequest, next_hop_ip, {});
    }
    arp_.arm_retry(next_hop_ip, wheel_.now());
    resync_wheel();
    return;
  }
  send_frame(std::move(datagram), *mac, wire::EtherType::kIpv4);
}

void EthLayer::on_timer(double now) {
  for (const std::uint32_t ip : arp_.poll_retries(now)) {
    send_arp(wire::ArpOp::kRequest, ip, {});
  }
  resync_wheel();
}

void EthLayer::resync_wheel() {
  arp_timer_ = wheel_.rearm(arp_timer_, arp_.next_retry_deadline(),
                            time::TimerClass::kLiveness,
                            [this] { on_timer(wheel_.now()); });
}

}  // namespace ldlp::stack
