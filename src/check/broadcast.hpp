// Broadcast delivery oracle: the dissemination layer's end-to-end
// contract, judged the same way DeliveryOracle judges transports.
//
// Ground truth is the send side: broadcast(origin, seq, payload) records
// exactly what an application handed to the overlay. The receive side is
// the overlay's deliver hook on every node: delivered(node, origin, seq,
// payload) checks each delivery against the truth. The contract — for
// the members named at construction that stay live and connected — is
// *exactly-once, byte-exact*
// per (origin, seq): no phantom messages, no corrupted payloads, no
// double delivery, and at finalize() no member missing any message.
//
// Churn makes "every member" subtle: a host that crashes mid-run loses
// its delivered-set along with the rest of its state, so a rebroadcast
// reaching the reborn incarnation is legal (it never saw the first
// copy), and a message that raced its crash may be missing forever.
// mark_unstable(node) excuses such nodes from both the exactly-once and
// the completeness demands; everyone else is held to the full contract.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "check/judge.hpp"

namespace ldlp::check {

struct BroadcastStats {
  std::uint64_t broadcasts = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t unstable_deliveries = 0;  ///< Excused (churned node).
};

class BroadcastDeliveryOracle final : public Judge {
 public:
  /// `members` are the nodes every broadcast must reach.
  explicit BroadcastDeliveryOracle(std::vector<std::uint32_t> members)
      : members_(std::move(members)) {}

  [[nodiscard]] std::string_view name() const override {
    return "broadcast oracle";
  }

  /// Send-side ground truth: `origin` broadcast message `seq` with
  /// `payload`. Call once per broadcast, before any node can deliver it.
  void broadcast(std::uint32_t origin, std::uint32_t seq,
                 std::span<const std::uint8_t> payload);

  /// Receive-side: `node` delivered (origin, seq) with `payload`.
  void delivered(std::uint32_t node, std::uint32_t origin, std::uint32_t seq,
                 std::span<const std::uint8_t> payload);

  /// Excuse `node` from the exactly-once and completeness demands — its
  /// host crashed (or churned) mid-run, wiping its delivered-set.
  void mark_unstable(std::uint32_t node);

  /// End-of-run completeness: every stable member must have delivered
  /// every broadcast message.
  void finalize() override;

  /// (delivered(node, ·) for all broadcasts)? Lets the harness drain the
  /// sim until completeness instead of guessing a fixed horizon.
  [[nodiscard]] bool complete(std::uint32_t node) const;

  [[nodiscard]] const BroadcastStats& stats() const noexcept { return stats_; }

 private:
  struct Message {
    std::vector<std::uint8_t> payload;
    std::set<std::uint32_t> delivered_to;
  };

  [[nodiscard]] static std::uint64_t key(std::uint32_t origin,
                                         std::uint32_t seq) noexcept {
    return (static_cast<std::uint64_t>(origin) << 32) | seq;
  }

  std::vector<std::uint32_t> members_;
  std::map<std::uint64_t, Message> messages_;  ///< Ordered for finalize().
  std::set<std::uint32_t> unstable_;
  BroadcastStats stats_;
};

}  // namespace ldlp::check
