// Ethernet layer: input demultiplexing (IP / ARP), output encapsulation
// with ARP resolution, and the host-side ARP responder.
#pragma once

#include <cstdint>

#include "core/stack_graph.hpp"
#include "stack/arp_cache.hpp"
#include "stack/netdev.hpp"
#include "time/timer_wheel.hpp"
#include "wire/arp.hpp"

namespace ldlp::stack {

/// Output ports of the Ethernet input layer.
namespace ethports {
inline constexpr int kIp = 0;
inline constexpr int kArp = 1;  ///< Consumed internally; port kept for tests.
}  // namespace ethports

struct EthLayerStats {
  std::uint64_t rx_ip = 0;
  std::uint64_t rx_arp = 0;
  std::uint64_t rx_dropped = 0;   ///< Bad/foreign/unknown frames.
  std::uint64_t tx_frames = 0;
  std::uint64_t tx_arp_held = 0;  ///< Packets parked awaiting resolution.
};

class EthLayer final : public core::Layer {
 public:
  /// ARP retries ride one consolidated timer on `wheel`, armed at the
  /// cache's earliest retry deadline.
  EthLayer(NetDevice& device, std::uint32_t my_ip, time::TimerWheel& wheel);

  /// Send an IP datagram (IP header already built) to `next_hop_ip`.
  /// Resolves via ARP; parks the packet and emits a request on a miss.
  void output_ip(buf::Packet datagram, std::uint32_t next_hop_ip);

  /// Reconcile the consolidated retry timer with the cache — needed
  /// after out-of-band cache surgery (Host::restart flushes the cache,
  /// leaving the timer pointing at forgotten entries).
  void resync_wheel();

  [[nodiscard]] const EthLayerStats& eth_stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] ArpCache& arp() noexcept { return arp_; }
  [[nodiscard]] std::uint32_t ip_addr() const noexcept { return my_ip_; }
  [[nodiscard]] NetDevice& device() noexcept { return device_; }

 protected:
  void process(core::Message msg) override;

 private:
  /// The retry timer's handler: re-request stalled ARP resolutions (and
  /// expire hopeless ones).
  void on_timer(double now);
  void handle_arp(buf::Packet pkt);
  void send_arp(wire::ArpOp op, std::uint32_t target_ip,
                const wire::MacAddr& target_mac);
  void send_frame(buf::Packet payload_with_room, const wire::MacAddr& dst,
                  wire::EtherType type);

  NetDevice& device_;
  std::uint32_t my_ip_;
  ArpCache arp_;
  time::TimerWheel& wheel_;
  time::TimerId arp_timer_ = time::kNoTimer;
  EthLayerStats stats_;
};

}  // namespace ldlp::stack
