// ARP cache with pending-resolution queues.
//
// Robustness posture: parked packets are bounded per IP *and* globally
// (an unresolvable subnet scan must not eat the mbuf pool), and repeat
// requests toward a silent IP back off exponentially with a cap, so a
// dead next hop costs a trickle of requests rather than one per parked
// packet.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "buf/packet.hpp"
#include "wire/ethernet.hpp"

namespace ldlp::stack {

struct ArpCacheStats {
  std::uint64_t parked = 0;
  std::uint64_t park_drops = 0;  ///< Packets refused (per-IP or global cap).
  std::uint64_t requests_allowed = 0;
  std::uint64_t requests_suppressed = 0;  ///< Backoff said "not yet".
  std::uint64_t retries = 0;            ///< Timer-driven re-requests.
  std::uint64_t resolve_failures = 0;   ///< Entries that exhausted retries.
};

class ArpCache {
 public:
  explicit ArpCache(std::size_t max_pending_per_ip = 8,
                    std::size_t max_pending_total = 64)
      : max_pending_(max_pending_per_ip),
        max_pending_total_(max_pending_total) {}

  [[nodiscard]] std::optional<wire::MacAddr> lookup(
      std::uint32_t ip) const noexcept;

  void insert(std::uint32_t ip, const wire::MacAddr& mac);

  /// Park a packet until `ip` resolves. Returns false (packet dropped)
  /// when the per-IP or the global pending cap is hit.
  [[nodiscard]] bool hold(std::uint32_t ip, buf::Packet pkt);

  /// Rate-limit policy for requests on an unresolved IP: the first park
  /// sends immediately, then the gap between requests doubles — parks
  /// 1, 3, 7, 15, 31, 63 trigger a (re)request, after which every 64th
  /// park does (capped exponential backoff). The state resets when the
  /// IP resolves, so a re-expired entry starts eager again.
  [[nodiscard]] bool should_request(std::uint32_t ip);

  /// Remove and return the packets parked on `ip` (called on resolution).
  [[nodiscard]] std::vector<buf::Packet> take_pending(std::uint32_t ip);

  /// Timer hook (4.4BSD arptimer): returns the IPs whose pending
  /// resolution is due for a re-request. Park-triggered requests alone
  /// deadlock when the one request for a lone parked packet is lost —
  /// nothing ever parks again, so nothing ever re-requests, and the
  /// packet (an mbuf) is parked forever. Retries back off 0.5 s
  /// doubling to 4 s; an IP that stays silent past `kMaxTries` retries
  /// has its parked packets dropped (freed) and is forgotten —
  /// resolution failure, as BSD's EHOSTDOWN, not a leak.
  [[nodiscard]] std::vector<std::uint32_t> poll_retries(double now);

  /// Arm the retry deadline at park time so the owner can file it on its
  /// timer wheel. Idempotent while already armed.
  void arm_retry(std::uint32_t ip, double now);

  /// Earliest armed retry deadline across parked IPs, +inf when none —
  /// what the owning layer arms its consolidated wheel timer at.
  [[nodiscard]] double next_retry_deadline() const noexcept;

  [[nodiscard]] std::size_t entries() const noexcept { return table_.size(); }
  [[nodiscard]] std::size_t pending_total() const noexcept {
    return pending_total_;
  }
  [[nodiscard]] const ArpCacheStats& stats() const noexcept { return stats_; }

  /// Forget everything — resolutions, parked packets, backoff state — as
  /// a crashing host does (FaultKind::kHostRestart). Parked packets are
  /// freed, not transmitted.
  void flush() noexcept {
    table_.clear();
    pending_.clear();
    pending_total_ = 0;
  }

  /// Structural invariant check for chaos builds: pending accounting
  /// matches the queues, caps are respected, and no IP is simultaneously
  /// resolved and pending. Returns false and fills `why` on violation.
  [[nodiscard]] bool audit(std::string* why) const;

 private:
  struct PendingState {
    std::vector<buf::Packet> packets;
    std::uint32_t parks = 0;          ///< Packets parked since creation.
    std::uint32_t next_request = 1;   ///< Park count of the next request.
    std::uint32_t gap = 2;            ///< Current backoff gap, doubling.
    double retry_deadline = 0.0;      ///< 0 = not yet armed (arm_retry).
    double retry_gap_sec = 0.5;       ///< Timer backoff, doubling to cap.
    std::uint32_t tries = 0;          ///< Timer retries issued so far.
  };

  static constexpr std::uint32_t kMaxRequestGap = 64;
  static constexpr double kMaxRetryGapSec = 4.0;
  static constexpr std::uint32_t kMaxTries = 5;

  std::size_t max_pending_;
  std::size_t max_pending_total_;
  std::size_t pending_total_ = 0;
  std::unordered_map<std::uint32_t, wire::MacAddr> table_;
  std::unordered_map<std::uint32_t, PendingState> pending_;
  ArpCacheStats stats_;
};

}  // namespace ldlp::stack
