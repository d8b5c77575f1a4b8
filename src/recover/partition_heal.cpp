#include "recover/partition_heal.hpp"

namespace ldlp::recover {

check::DeliveryOracle& PartitionHealOracle::oracle_for(
    const std::string& dst) {
  auto it = by_dst_.find(dst);
  if (it == by_dst_.end()) {
    it = by_dst_.emplace(dst, std::make_unique<check::DeliveryOracle>())
             .first;
    it->second->set_allow_truncation(allow_truncation_);
  }
  return *it->second;
}

PartitionHealOracle::PairId PartitionHealOracle::open_pair(
    const std::string& src, const std::string& dst) {
  const PairId id = static_cast<PairId>(pairs_.size());
  pairs_.push_back({dst, oracle_for(dst).open_stream(src + "->" + dst)});
  return id;
}

stack::SocketTap& PartitionHealOracle::rx_tap(const std::string& dst) {
  return oracle_for(dst);
}

void PartitionHealOracle::sent(PairId pair,
                               std::span<const std::uint8_t> bytes) {
  const Pair& p = pairs_.at(pair);
  by_dst_.at(p.dst)->stream_sent(p.flow, bytes);
}

void PartitionHealOracle::bind_rx(PairId pair, stack::SocketId socket) {
  const Pair& p = pairs_.at(pair);
  by_dst_.at(p.dst)->bind_stream_rx(p.flow, socket);
}

void PartitionHealOracle::set_allow_truncation(bool allow) noexcept {
  allow_truncation_ = allow;
  for (auto& [dst, oracle] : by_dst_) oracle->set_allow_truncation(allow);
}

void PartitionHealOracle::finalize() {
  for (auto& [dst, oracle] : by_dst_) {
    oracle->finalize();
    for (const std::string& v : oracle->violations())
      violation("rx@" + dst + ": " + v);
  }
}

check::OracleStats PartitionHealOracle::stats() const {
  check::OracleStats sum;
  for (const auto& [dst, oracle] : by_dst_) {
    const check::OracleStats& s = oracle->stats();
    sum.stream_bytes_sent += s.stream_bytes_sent;
    sum.stream_bytes_delivered += s.stream_bytes_delivered;
    sum.datagrams_sent += s.datagrams_sent;
    sum.datagrams_delivered += s.datagrams_delivered;
    sum.datagram_duplicates += s.datagram_duplicates;
  }
  return sum;
}

void PartitionHealOracle::publish(obs::Registry& registry,
                                  std::string_view prefix) const {
  const check::OracleStats s = stats();
  const std::string p(prefix);
  registry.counter(p + ".pairs").set(pairs_.size());
  registry.counter(p + ".stream_bytes_sent").set(s.stream_bytes_sent);
  registry.counter(p + ".stream_bytes_delivered")
      .set(s.stream_bytes_delivered);
  registry.counter(p + ".violations").set(violation_count());
}

}  // namespace ldlp::recover
