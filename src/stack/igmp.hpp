// IGMPv2 host side (RFC 2236) — the paper's third named small-message
// protocol. Eight-byte messages and a timer-driven state machine: joining
// a group emits unsolicited reports; a router's membership query starts a
// random delay timer; hearing another member's report suppresses ours;
// the last reporter sends a leave.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>

#include "common/rng.hpp"
#include "time/timer_wheel.hpp"
#include "wire/ipv4.hpp"

namespace ldlp::stack {

class Ip4Layer;

inline constexpr std::uint32_t kAllHostsGroup = 0xe0000001;  ///< 224.0.0.1.

[[nodiscard]] constexpr bool is_multicast(std::uint32_t ip) noexcept {
  return (ip & 0xf0000000) == 0xe0000000;
}

enum class IgmpType : std::uint8_t {
  kQuery = 0x11,
  kReportV1 = 0x12,
  kReportV2 = 0x16,
  kLeave = 0x17,
};

struct IgmpMessage {
  IgmpType type = IgmpType::kQuery;
  std::uint8_t max_resp_deciseconds = 100;
  std::uint32_t group = 0;  ///< 0 in a general query.
};

inline constexpr std::size_t kIgmpLen = 8;

[[nodiscard]] std::optional<IgmpMessage> parse_igmp(
    std::span<const std::uint8_t> data) noexcept;
std::size_t write_igmp(const IgmpMessage& msg,
                       std::span<std::uint8_t> out) noexcept;

struct IgmpStats {
  std::uint64_t reports_sent = 0;
  std::uint64_t leaves_sent = 0;
  std::uint64_t queries_heard = 0;
  std::uint64_t reports_heard = 0;
  std::uint64_t suppressed = 0;  ///< Our pending report cancelled.
  std::uint64_t bad = 0;
};

class IgmpHost {
 public:
  /// `now_sec` is the host clock (same pointer the other layers use);
  /// delayed reports are armed on the host's `wheel`.
  IgmpHost(Ip4Layer& ip, const double* now_sec, time::TimerWheel& wheel,
           std::uint64_t seed = 2236);

  void join(std::uint32_t group);
  void leave(std::uint32_t group);
  [[nodiscard]] bool is_member(std::uint32_t group) const noexcept;
  [[nodiscard]] std::size_t group_count() const noexcept {
    return groups_.size();
  }

  /// Called by the IP layer for protocol-2 datagrams.
  void on_message(const IgmpMessage& msg, std::uint32_t from_ip);

  [[nodiscard]] const IgmpStats& stats() const noexcept { return stats_; }

 private:
  struct Membership {
    time::TimerId report = time::kNoTimer;  ///< Pending delayed report.
    double report_at = 0.0;                 ///< Its deadline.
    bool we_reported_last = false;  ///< Governs who sends the leave.
    std::uint32_t unsolicited_left = 0;
  };

  [[nodiscard]] double now() const noexcept {
    return now_sec_ != nullptr ? *now_sec_ : 0.0;
  }
  void send_report(std::uint32_t group);
  void send_leave(std::uint32_t group);
  /// (Re)arm `group`'s delayed report at `at`, replacing any pending one.
  void arm_report(std::uint32_t group, Membership& membership, double at);
  void fire_report(std::uint32_t group);

  Ip4Layer& ip_;
  const double* now_sec_;
  time::TimerWheel& wheel_;
  Rng rng_;
  std::unordered_map<std::uint32_t, Membership> groups_;
  IgmpStats stats_;
};

}  // namespace ldlp::stack
