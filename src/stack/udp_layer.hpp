// UDP: datagram demultiplexing onto sockets.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "core/stack_graph.hpp"
#include "stack/ip_layer.hpp"
#include "stack/socket_layer.hpp"

namespace ldlp::stack {

struct UdpStats {
  std::uint64_t rx = 0;
  std::uint64_t rx_bad = 0;
  std::uint64_t rx_no_port = 0;
  std::uint64_t tx = 0;
};

class UdpLayer final : public core::Layer {
 public:
  UdpLayer(Ip4Layer& ip, SocketLayer& sockets)
      : core::Layer("udp"), ip_(ip), sockets_(sockets) {}

  /// Bind a local port to a datagram socket. Returns false if taken.
  [[nodiscard]] bool bind(std::uint16_t port, SocketId socket);
  /// Release `port` and let go of its socket (in_pcbdetach): the socket
  /// is freed once the application has closed it too, in either order.
  void unbind(std::uint16_t port);

  /// Send a datagram from `src_port` to dst:dst_port.
  void send(std::uint16_t src_port, std::uint32_t dst_ip,
            std::uint16_t dst_port, std::span<const std::uint8_t> payload);

  /// Wire-tap on the send API: fires once per send() with the exact
  /// payload handed down, before any wire impairment can touch it.
  void set_send_tap(
      std::function<void(std::uint16_t src_port, std::uint32_t dst_ip,
                         std::uint16_t dst_port,
                         std::span<const std::uint8_t>)>
          tap) {
    send_tap_ = std::move(tap);
  }

  [[nodiscard]] const UdpStats& udp_stats() const noexcept { return stats_; }

 protected:
  void process(core::Message msg) override;

 private:
  Ip4Layer& ip_;
  SocketLayer& sockets_;
  std::unordered_map<std::uint16_t, SocketId> ports_;
  std::function<void(std::uint16_t, std::uint32_t, std::uint16_t,
                     std::span<const std::uint8_t>)>
      send_tap_;
  UdpStats stats_;
};

}  // namespace ldlp::stack
