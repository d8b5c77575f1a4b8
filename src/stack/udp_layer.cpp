#include "stack/udp_layer.hpp"

#include <vector>

#include "common/byteorder.hpp"
#include "stack/footprints.hpp"
#include "wire/checksum.hpp"
#include "wire/udp.hpp"

namespace ldlp::stack {

bool UdpLayer::bind(std::uint16_t port, SocketId socket) {
  return ports_.emplace(port, socket).second;
}

void UdpLayer::unbind(std::uint16_t port) {
  const auto it = ports_.find(port);
  if (it == ports_.end()) return;
  sockets_.detach(it->second);
  ports_.erase(it);
}

void UdpLayer::process(core::Message msg) {
  ++stats_.rx;
  std::uint8_t* base = msg.packet.pullup(wire::kUdpHeaderLen);
  if (base == nullptr) {
    ++stats_.rx_bad;
    return;
  }
  const auto header = wire::parse_udp({base, wire::kUdpHeaderLen});
  if (!header.has_value() || header->length > msg.packet.length()) {
    ++stats_.rx_bad;
    return;
  }
  const std::uint32_t src_ip = flow_src(msg.flow_id);
  const std::uint32_t dst_ip = flow_dst(msg.flow_id);
  if (header->checksum != 0) {
    trace_fn(Fn::kInCksum, 1.0, 4.0);
    const std::uint16_t sum = wire::transport_cksum(
        msg.packet, 0, header->length, src_ip, dst_ip,
        static_cast<std::uint8_t>(wire::IpProto::kUdp));
    if (sum != 0) {
      ++stats_.rx_bad;
      return;
    }
  }
  const auto it = ports_.find(header->dst_port);
  if (it == ports_.end()) {
    ++stats_.rx_no_port;
    return;
  }
  Datagram dgram;
  dgram.from_ip = src_ip;
  dgram.from_port = header->src_port;
  const std::uint32_t payload_len = header->length - wire::kUdpHeaderLen;
  dgram.payload.resize(payload_len);
  if (!msg.packet.copy_out(wire::kUdpHeaderLen, dgram.payload)) {
    ++stats_.rx_bad;
    return;
  }
  trace_pkt(trace::RefKind::kRead, payload_len);
  sockets_.deliver_datagram(it->second, std::move(dgram));
}

void UdpLayer::send(std::uint16_t src_port, std::uint32_t dst_ip,
                    std::uint16_t dst_port,
                    std::span<const std::uint8_t> payload) {
  ++stats_.tx;
  if (send_tap_) send_tap_(src_port, dst_ip, dst_port, payload);
  buf::Packet pkt = buf::Packet::make(ip_.pool());
  if (!pkt) return;
  std::uint8_t header_bytes[wire::kUdpHeaderLen];
  wire::UdpHeader header;
  header.src_port = src_port;
  header.dst_port = dst_port;
  header.length =
      static_cast<std::uint16_t>(wire::kUdpHeaderLen + payload.size());
  header.checksum = 0;
  wire::write_udp(header, header_bytes);
  if (!pkt.append(header_bytes) || !pkt.append(payload)) return;
  // Compute the real checksum now that the bytes are in place.
  const std::uint16_t sum = wire::transport_cksum(
      pkt, 0, header.length, ip_.ip_addr(), dst_ip,
      static_cast<std::uint8_t>(wire::IpProto::kUdp));
  std::uint8_t sum_bytes[2];
  store_be16(sum_bytes, sum == 0 ? 0xffff : sum);
  if (!pkt.copy_in(6, sum_bytes)) return;
  pkt.sync_pkt_len();
  ip_.output(std::move(pkt), dst_ip, wire::IpProto::kUdp);
}

}  // namespace ldlp::stack
