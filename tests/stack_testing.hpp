// Shared TCP fixture for the stack tests: a client (a) and a server (b)
// on a HostPair, the connection between them, and hand-made segments for
// the paths no well-behaved peer takes.
#pragma once

#include <cstdint>
#include <vector>

#include "stack/host_pair.hpp"
#include "wire/checksum.hpp"
#include "wire/tcp.hpp"

namespace ldlp::stack {

/// Put a hand-made segment `from` -> `to` (no payload, valid checksum)
/// straight into `to`'s receive ring.
inline void inject_segment(Host& from, Host& to, std::uint16_t src_port,
                           std::uint16_t dst_port, std::uint32_t seq,
                           std::uint32_t ack, std::uint8_t flags) {
  constexpr std::size_t kTcpOff = wire::kEthHeaderLen + wire::kIpMinHeaderLen;
  std::vector<std::uint8_t> frame(kTcpOff + wire::kTcpMinHeaderLen);
  wire::EthHeader eth;
  eth.dst = to.device().mac();
  eth.src = from.device().mac();
  eth.ether_type = static_cast<std::uint16_t>(wire::EtherType::kIpv4);
  wire::write_eth(eth, frame);
  wire::Ipv4Header ip;
  ip.total_len = wire::kIpMinHeaderLen + wire::kTcpMinHeaderLen;
  ip.protocol = static_cast<std::uint8_t>(wire::IpProto::kTcp);
  ip.src = from.ip().ip_addr();
  ip.dst = to.ip().ip_addr();
  wire::write_ipv4(ip, {frame.data() + wire::kEthHeaderLen,
                        wire::kIpMinHeaderLen});
  wire::TcpHeader tcp;
  tcp.src_port = src_port;
  tcp.dst_port = dst_port;
  tcp.seq = seq;
  tcp.ack = ack;
  tcp.flags = flags;
  tcp.window = 4096;
  wire::write_tcp(tcp, {frame.data() + kTcpOff, wire::kTcpMinHeaderLen});
  wire::CksumAccumulator acc;
  acc.sum = wire::pseudo_header_sum(
      ip.src, ip.dst, static_cast<std::uint8_t>(wire::IpProto::kTcp),
      wire::kTcpMinHeaderLen);
  acc.add({frame.data() + kTcpOff, wire::kTcpMinHeaderLen}, /*simple=*/true);
  const std::uint16_t sum = acc.finish();
  frame[kTcpOff + 16] = static_cast<std::uint8_t>(sum >> 8);
  frame[kTcpOff + 17] = static_cast<std::uint8_t>(sum & 0xff);
  to.device().inject(frame);
}

/// "client" and "server", both under `mode` and `tcp`.
struct TcpPair : HostPair {
  explicit TcpPair(core::SchedMode mode = core::SchedMode::kConventional,
                   TcpConfig tcp = {})
      : HostPair({.name = "client", .mode = mode, .tcp = tcp},
                 {.name = "server", .mode = mode, .tcp = tcp}) {
    server.tcp().set_accept_hook([this](PcbId id) {
      accepted = id;
      accepted_socket = server.tcp().socket_of(id);
    });
  }

  void settle(int rounds = 12) { HostPair::settle(rounds); }
  void tick(double dt, int rounds = 4) { HostPair::tick(dt, rounds); }

  /// Listen on `port` at the server, connect from the client, settle;
  /// true when both ends are ESTABLISHED.
  bool establish(std::uint16_t port = 80) {
    (void)server.tcp().listen(port);
    conn = client.tcp().connect(server.ip().ip_addr(), port);
    settle();
    return client.tcp().state(conn) == TcpState::kEstablished &&
           accepted != kNoPcb &&
           server.tcp().state(accepted) == TcpState::kEstablished;
  }

  /// Read up to `n` bytes from the accepted connection's socket.
  std::vector<std::uint8_t> drain_server_socket(std::size_t n) {
    std::vector<std::uint8_t> out(n);
    out.resize(server.sockets().read(server.tcp().socket_of(accepted), out));
    return out;
  }

  void inject_to_server(std::uint16_t src_port, std::uint16_t dst_port,
                        std::uint32_t seq, std::uint32_t ack,
                        std::uint8_t flags) {
    inject_segment(client, server, src_port, dst_port, seq, ack, flags);
  }

  Host& client = a;
  Host& server = b;
  PcbId conn = kNoPcb;
  PcbId accepted = kNoPcb;
  /// Cached at accept time: the slot stays addressable after a restart
  /// wipes the PCB, while socket_of(accepted) would not.
  SocketId accepted_socket = kNoSocket;
};

}  // namespace ldlp::stack
