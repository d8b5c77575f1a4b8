#include "check/broadcast.hpp"

#include <algorithm>

namespace ldlp::check {
namespace {

[[nodiscard]] std::string msg_name(std::uint64_t key) {
  return "(" + std::to_string(static_cast<std::uint32_t>(key >> 32)) + "," +
         std::to_string(static_cast<std::uint32_t>(key)) + ")";
}

}  // namespace

void BroadcastDeliveryOracle::broadcast(std::uint32_t origin,
                                        std::uint32_t seq,
                                        std::span<const std::uint8_t> payload) {
  ++stats_.broadcasts;
  const std::uint64_t k = key(origin, seq);
  auto [it, fresh] = messages_.try_emplace(k);
  if (!fresh) {
    violation("origin " + std::to_string(origin) + " reused seq " +
              std::to_string(seq));
    return;
  }
  it->second.payload.assign(payload.begin(), payload.end());
}

void BroadcastDeliveryOracle::delivered(std::uint32_t node,
                                        std::uint32_t origin,
                                        std::uint32_t seq,
                                        std::span<const std::uint8_t> payload) {
  ++stats_.deliveries;
  const std::uint64_t k = key(origin, seq);
  const auto it = messages_.find(k);
  if (it == messages_.end()) {
    violation("node " + std::to_string(node) + " delivered phantom message " +
              msg_name(k));
    return;
  }
  Message& msg = it->second;
  if (msg.payload.size() != payload.size() ||
      !std::equal(payload.begin(), payload.end(), msg.payload.begin())) {
    violation("node " + std::to_string(node) + " delivered corrupt payload for " +
              msg_name(k) + ": " + std::to_string(payload.size()) + " bytes vs " +
              std::to_string(msg.payload.size()) + " sent");
    return;
  }
  if (unstable_.count(node) != 0) {
    // A churned node's delivered-set died with its old incarnation; the
    // reborn one legitimately re-delivers. Count it, don't judge it.
    ++stats_.unstable_deliveries;
    msg.delivered_to.insert(node);
    return;
  }
  if (!msg.delivered_to.insert(node).second)
    violation("node " + std::to_string(node) + " delivered " + msg_name(k) +
              " twice");
}

void BroadcastDeliveryOracle::mark_unstable(std::uint32_t node) {
  unstable_.insert(node);
}

bool BroadcastDeliveryOracle::complete(std::uint32_t node) const {
  return std::all_of(messages_.begin(), messages_.end(), [&](const auto& kv) {
    return kv.second.delivered_to.count(node) != 0;
  });
}

void BroadcastDeliveryOracle::finalize() {
  for (const auto& [k, msg] : messages_) {
    for (const std::uint32_t node : members_) {
      if (unstable_.count(node) != 0) continue;
      if (msg.delivered_to.count(node) == 0)
        violation("node " + std::to_string(node) + " never delivered " +
                  msg_name(k));
    }
  }
}

}  // namespace ldlp::check
