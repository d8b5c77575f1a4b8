#include "check/oracle.hpp"

#include <algorithm>

namespace ldlp::check {

namespace {

/// First index where the two ranges disagree (== len when equal).
std::size_t mismatch_at(std::span<const std::uint8_t> a,
                        std::span<const std::uint8_t> b) {
  const auto [ita, itb] = std::mismatch(a.begin(), a.end(), b.begin());
  return static_cast<std::size_t>(ita - a.begin());
}

}  // namespace

DeliveryOracle::FlowId DeliveryOracle::open_stream(std::string label) {
  streams_.push_back(StreamFlow{std::move(label), {}, 0, false});
  return static_cast<FlowId>(streams_.size() - 1);
}

DeliveryOracle::FlowId DeliveryOracle::open_datagram(std::string label) {
  datagrams_.push_back(DatagramFlow{std::move(label), {}});
  return static_cast<FlowId>(datagrams_.size() - 1);
}

void DeliveryOracle::stream_sent(FlowId flow,
                                 std::span<const std::uint8_t> bytes) {
  StreamFlow& f = streams_.at(flow);
  f.sent.insert(f.sent.end(), bytes.begin(), bytes.end());
  stats_.stream_bytes_sent += bytes.size();
}

void DeliveryOracle::datagram_sent(FlowId flow,
                                   std::span<const std::uint8_t> payload) {
  DatagramFlow& f = datagrams_.at(flow);
  std::vector<std::uint8_t> key(payload.begin(), payload.end());
  ++f.payloads[std::move(key)].first;
  ++stats_.datagrams_sent;
}

void DeliveryOracle::bind_stream_rx(FlowId flow, stack::SocketId socket) {
  stream_rx_[socket] = flow;
}

void DeliveryOracle::bind_datagram_rx(FlowId flow, stack::SocketId socket) {
  datagram_rx_[socket] = flow;
}

void DeliveryOracle::on_stream_append(stack::SocketId id,
                                      std::span<const std::uint8_t> bytes) {
  const auto it = stream_rx_.find(id);
  if (it == stream_rx_.end()) return;
  StreamFlow& f = streams_.at(it->second);
  stats_.stream_bytes_delivered += bytes.size();
  if (f.poisoned) return;
  if (f.delivered + bytes.size() > f.sent.size()) {
    violation("stream '" + f.label + "': delivered " +
              std::to_string(f.delivered + bytes.size()) +
              " bytes but only " + std::to_string(f.sent.size()) +
              " were sent (fabricated or re-delivered data)");
    f.poisoned = true;
    return;
  }
  const std::span<const std::uint8_t> expect(f.sent.data() + f.delivered,
                                             bytes.size());
  const std::size_t diff = mismatch_at(bytes, expect);
  if (diff != bytes.size()) {
    violation("stream '" + f.label + "': byte mismatch at offset " +
              std::to_string(f.delivered + diff) + " (got byte " +
              std::to_string(bytes[diff]) + ", sent " +
              std::to_string(expect[diff]) + ")");
    f.poisoned = true;
    return;
  }
  f.delivered += bytes.size();
}

void DeliveryOracle::on_datagram(stack::SocketId id,
                                 const stack::Datagram& dgram) {
  const auto it = datagram_rx_.find(id);
  if (it == datagram_rx_.end()) return;
  DatagramFlow& f = datagrams_.at(it->second);
  ++stats_.datagrams_delivered;
  const auto entry = f.payloads.find(dgram.payload);
  if (entry == f.payloads.end()) {
    violation("datagram '" + f.label + "': delivered a " +
              std::to_string(dgram.payload.size()) +
              "-byte payload that was never sent");
    return;
  }
  auto& [sent, delivered] = entry->second;
  ++delivered;
  if (delivered > sent) {
    ++stats_.datagram_duplicates;
    if (!allow_duplicates_) {
      violation("datagram '" + f.label + "': payload delivered " +
                std::to_string(delivered) + " times but sent only " +
                std::to_string(sent) +
                " times (duplication without a duplicate episode)");
    }
  }
}

void DeliveryOracle::finalize() {
  for (const StreamFlow& f : streams_) {
    if (f.poisoned) continue;  // already condemned with a better message
    if (allow_truncation_) continue;  // prefix-exactness already enforced
    if (f.delivered != f.sent.size()) {
      violation("stream '" + f.label + "': only " +
                std::to_string(f.delivered) + " of " +
                std::to_string(f.sent.size()) + " sent bytes delivered");
    }
  }
}

void DeliveryOracle::publish(obs::Registry& registry,
                             std::string_view prefix) const {
  const std::string p(prefix);
  registry.counter(p + ".stream_bytes_sent").set(stats_.stream_bytes_sent);
  registry.counter(p + ".stream_bytes_delivered")
      .set(stats_.stream_bytes_delivered);
  registry.counter(p + ".datagrams_sent").set(stats_.datagrams_sent);
  registry.counter(p + ".datagrams_delivered").set(stats_.datagrams_delivered);
  registry.counter(p + ".datagram_duplicates")
      .set(stats_.datagram_duplicates);
  registry.counter(p + ".violations").set(violation_count());
}

}  // namespace ldlp::check
