#include "stack/netdev.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/assert.hpp"
#include "fault/injector.hpp"
#include "stack/footprints.hpp"
#include "wire/ipv4.hpp"
#include "wire/tcp.hpp"
#include "wire/udp.hpp"

namespace ldlp::stack {

FlowHash::FlowHash(bool symmetric, std::uint64_t key_seed)
    : symmetric_(symmetric) {
  // Expand the seed into the 40-byte RSS key (plus 4 bytes of window
  // padding) with splitmix64 — deterministic and well-mixed.
  std::uint64_t state = key_seed;
  for (std::size_t i = 0; i < key_.size(); i += 8) {
    const std::uint64_t word = splitmix64(state);
    for (std::size_t b = 0; b < 8 && i + b < key_.size(); ++b) {
      key_[i + b] = static_cast<std::uint8_t>(word >> (56 - 8 * b));
    }
  }
}

std::uint32_t FlowHash::operator()(const FlowKey& key) const noexcept {
  std::uint32_t src_ip = key.src_ip;
  std::uint32_t dst_ip = key.dst_ip;
  std::uint16_t src_port = key.src_port;
  std::uint16_t dst_port = key.dst_port;
  if (symmetric_) {
    // Canonical endpoint order: both directions of a connection present
    // the same tuple, so they co-steer onto one queue.
    if (std::tie(src_ip, src_port) > std::tie(dst_ip, dst_port)) {
      std::swap(src_ip, dst_ip);
      std::swap(src_port, dst_port);
    }
  }
  // RSS input layout: src addr, dst addr, src port, dst port — big-endian,
  // with the protocol appended (a common vendor extension).
  const std::uint8_t input[13] = {
      static_cast<std::uint8_t>(src_ip >> 24),
      static_cast<std::uint8_t>(src_ip >> 16),
      static_cast<std::uint8_t>(src_ip >> 8),
      static_cast<std::uint8_t>(src_ip),
      static_cast<std::uint8_t>(dst_ip >> 24),
      static_cast<std::uint8_t>(dst_ip >> 16),
      static_cast<std::uint8_t>(dst_ip >> 8),
      static_cast<std::uint8_t>(dst_ip),
      static_cast<std::uint8_t>(src_port >> 8),
      static_cast<std::uint8_t>(src_port),
      static_cast<std::uint8_t>(dst_port >> 8),
      static_cast<std::uint8_t>(dst_port),
      key.proto,
  };
  std::uint32_t result = 0;
  for (std::size_t byte = 0; byte < sizeof input; ++byte) {
    // 32-bit key window starting at bit position `byte * 8`.
    std::uint64_t window = (std::uint64_t{key_[byte]} << 32) |
                           (std::uint64_t{key_[byte + 1]} << 24) |
                           (std::uint64_t{key_[byte + 2]} << 16) |
                           (std::uint64_t{key_[byte + 3]} << 8) |
                           std::uint64_t{key_[byte + 4]};
    for (int bit = 7; bit >= 0; --bit) {
      if ((input[byte] >> bit) & 1) {
        // 32-bit slice of the 40-bit window at offset (7 - bit).
        result ^= static_cast<std::uint32_t>(window >> (bit + 1));
      }
    }
  }
  return result;
}

std::optional<FlowKey> FlowHash::classify(
    std::span<const std::uint8_t> frame) noexcept {
  const auto eth = wire::parse_eth(frame);
  if (!eth ||
      eth->ether_type != static_cast<std::uint16_t>(wire::EtherType::kIpv4)) {
    return std::nullopt;
  }
  const auto payload = frame.subspan(wire::kEthHeaderLen);
  const auto ip = wire::parse_ipv4(payload);
  if (!ip) return std::nullopt;
  FlowKey key;
  key.src_ip = ip->src;
  key.dst_ip = ip->dst;
  key.proto = ip->protocol;
  if (ip->frag_offset != 0) {
    // Non-first fragment: the transport header is elsewhere. Hash on the
    // address pair only (ports stay 0) so all fragments still co-steer
    // with everything between these hosts.
    return key;
  }
  if (payload.size() < ip->header_len()) return key;
  const auto l4 = payload.subspan(ip->header_len());
  if (ip->protocol == static_cast<std::uint8_t>(wire::IpProto::kTcp)) {
    if (const auto tcp = wire::parse_tcp(l4)) {
      key.src_port = tcp->src_port;
      key.dst_port = tcp->dst_port;
    }
  } else if (ip->protocol == static_cast<std::uint8_t>(wire::IpProto::kUdp)) {
    if (const auto udp = wire::parse_udp(l4)) {
      key.src_port = udp->src_port;
      key.dst_port = udp->dst_port;
    }
  }
  return key;
}

NetDevice::NetDevice(std::string name, wire::MacAddr mac, buf::MbufPool& pool,
                     std::size_t rx_ring_slots)
    : name_(std::move(name)),
      mac_(mac),
      pool_(pool),
      rx_ring_slots_(rx_ring_slots),
      rings_(1),
      rx_queue_frames_(1, 0) {
  spare_frames_.reserve(rx_ring_slots_);
}

void NetDevice::connect(NetDevice& a, NetDevice& b) noexcept {
  a.peer_ = &b;
  b.peer_ = &a;
}

void NetDevice::set_rx_queues(std::size_t queues, bool symmetric) {
  LDLP_ASSERT_MSG(queues >= 1, "a device needs at least one RX queue");
  hash_ = FlowHash(symmetric);
  std::vector<Ring<std::vector<std::uint8_t>>> old;
  old.swap(rings_);
  rings_.resize(queues);
  rx_queue_frames_.assign(queues, 0);
  // Re-steer anything already buffered, oldest first per old queue — the
  // deterministic repartition that makes reconfiguration safe mid-run.
  for (auto& ring : old) {
    while (!ring.empty()) ring_push(ring.pop_front(), 0);
  }
}

std::size_t NetDevice::steer(
    std::span<const std::uint8_t> frame_bytes) const noexcept {
  if (rings_.size() == 1) return 0;
  const auto key = FlowHash::classify(frame_bytes);
  if (!key) return 0;  // ARP and friends share the housekeeping queue
  return hash_(*key) % rings_.size();
}

bool NetDevice::transmit(buf::Packet frame) noexcept {
  const std::uint32_t len = frame.length();
  if ((peer_ == nullptr && !tx_sink_) || len < wire::kEthHeaderLen ||
      len > wire::kEthHeaderLen + wire::kEthMaxPayload) {
    ++stats_.tx_drops;
    return false;
  }
  // Outage faults are bidirectional: a partition, a carrier-down flap
  // phase, or a dark (restarting) host loses frames leaving this side
  // just as inject() loses frames arriving at it.
  if (fault_ != nullptr && fault_->link_blocked()) {
    fault_->count_blocked_frame();
    ++stats_.tx_drops;
    return false;
  }
  // Driver transmit path: stage the frame into device buffer memory.
  trace_fn(Fn::kLeStart);
  trace_fn(Fn::kCopyToBufGap2);
  trace_fn(Fn::kCopyToBufGap16);
  trace_fn(Fn::kZeroBufGap16);
  trace_fn(Fn::kLeWriteReg);
  trace_rgn(Rgn::kDevRingMut, 0.5);
  trace_pkt(trace::RefKind::kRead, len);

  // Back to back, the frame lands in the peer's ring: reuse one of the
  // buffers that ring has released.
  NetDevice& memory = tx_sink_ ? *this : *peer_;
  std::vector<std::uint8_t> bytes = memory.take_frame(len);
  if (!frame.copy_out(0, bytes)) {
    memory.release_frame(std::move(bytes));
    ++stats_.tx_drops;
    return false;
  }
  if (tx_sink_) {
    // Fabric attachment: the sink owns delivery (links, switches, delays).
    if (!tx_sink_(std::move(bytes))) {
      ++stats_.tx_drops;
      return false;
    }
    ++stats_.tx_frames;
    stats_.tx_bytes += len;
    return true;
  }
  ++stats_.tx_frames;
  stats_.tx_bytes += len;
  peer_->inject(std::move(bytes));
  return true;
}

std::vector<std::uint8_t> NetDevice::take_frame(std::size_t len) {
  std::vector<std::uint8_t> frame;
  if (!spare_frames_.empty()) {
    frame = std::move(spare_frames_.back());
    spare_frames_.pop_back();
  } else {
    frame.reserve(wire::kEthHeaderLen + wire::kEthMaxPayload);
  }
  frame.resize(len);
  return frame;
}

void NetDevice::release_frame(std::vector<std::uint8_t>&& frame) noexcept {
  if (spare_frames_.size() < rx_ring_slots_)
    spare_frames_.push_back(std::move(frame));
}

void NetDevice::ring_push(std::vector<std::uint8_t> frame_bytes,
                          std::uint32_t reorder_depth) noexcept {
  const std::size_t q = steer(frame_bytes);
  auto& ring = rings_[q];
  if (ring.size() >= rx_ring_slots_) {
    ++stats_.rx_drops;
    release_frame(std::move(frame_bytes));
    return;
  }
  ring.push_back(std::move(frame_bytes));
  ++rx_queue_frames_[q];
  if (reorder_depth == 0 && reorder_rate_ > 0.0 &&
      reorder_rng_.chance(reorder_rate_)) {
    reorder_depth = 1;
  }
  // Displace the new arrival up to `reorder_depth` slots toward the head
  // of its own queue (reordering across queues cannot happen: a flow's
  // frames all share one queue).
  std::size_t at = ring.size() - 1;
  while (reorder_depth > 0 && at > 0) {
    std::swap(ring[at], ring[at - 1]);
    --at;
    --reorder_depth;
  }
}

void NetDevice::inject(std::vector<std::uint8_t> frame_bytes) noexcept {
  if (fault_ != nullptr && fault_->link_blocked()) {
    fault_->count_blocked_frame();
    ++stats_.rx_drops;
    return;
  }
  if (loss_rate_ > 0.0 && loss_rng_.chance(loss_rate_)) {
    ++stats_.rx_drops;
    return;
  }
  std::uint32_t reorder_depth = 0;
  bool duplicate = false;
  if (fault_ != nullptr) {
    const fault::FrameVerdict v = fault_->on_frame(frame_bytes);
    if (v.drop) {
      ++stats_.rx_drops;
      return;
    }
    if (v.delayed) return;  // injector holds the bytes until release
    duplicate = v.duplicate;
    reorder_depth = v.reorder_depth;
  }
  if (duplicate) {
    ring_push(frame_bytes, 0);  // copy first, original may be displaced
  }
  ring_push(std::move(frame_bytes), reorder_depth);
}

void NetDevice::poll() noexcept {
  if (fault_ == nullptr) return;
  for (auto& bytes : fault_->collect_released()) ring_push(std::move(bytes), 0);
}

std::size_t NetDevice::clear_rx_ring() noexcept {
  std::size_t lost = 0;
  for (auto& ring : rings_) {
    lost += ring.size();
    while (!ring.empty()) release_frame(ring.pop_front());
  }
  stats_.rx_drops += lost;
  return lost;
}

buf::Packet NetDevice::receive() noexcept {
  for (std::size_t q = 0; q < rings_.size(); ++q) {
    if (!rings_[q].empty()) return receive_queue(q);
    // Queue order is the scan order; a stalled device returns empty from
    // receive_queue, and every later queue would too.
    if (fault_ != nullptr && fault_->device_stalled()) return {};
  }
  return {};
}

buf::Packet NetDevice::receive_queue(std::size_t queue) noexcept {
  if (fault_ != nullptr && fault_->device_stalled()) {
    // Stall episode: the adaptor buffers but the host sees nothing —
    // exactly the backlog-formation regime LDLP batches through later.
    return {};
  }
  if (queue >= rings_.size() || rings_[queue].empty()) return {};
  auto& ring = rings_[queue];
  const std::vector<std::uint8_t>& bytes = ring.front();
  buf::Packet pkt = buf::Packet::from_bytes(pool_, bytes);
  if (!pkt) {
    // Pool exhausted: leave the frame in device memory for a later pull
    // (the adaptor keeps buffering, which is what enables batching).
    return {};
  }
  ++stats_.rx_frames;
  stats_.rx_bytes += bytes.size();
  release_frame(ring.pop_front());
  return pkt;
}

}  // namespace ldlp::stack
