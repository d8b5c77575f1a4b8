// Timer-wheel invariants, checked per pass and once at teardown.
//
// The HostAuditor condemns bad protocol state (crossed sequence pointers,
// a retransmit deadline with nothing in flight); the TimerAuditor
// condemns bad *wheel* state — the places where the PR-10 migration from
// per-pass scans to wheel-driven timers could silently rot:
//
//   * every deadline armed wheel-side — a PCB with any pending deadline
//     (TcpLayer::earliest_deadline: retransmit, delayed ACK, persist,
//     keepalive, TIME_WAIT, pool retry) must have its consolidated wheel
//     timer armed no later than it, or that deadline would simply never
//     be served (the scan would have caught it; the wheel only fires
//     what is armed). Earlier is fine: sync_wheel keeps an earlier timer
//     as a wake-up rather than re-arming it;
//   * monotone clocks — a host's virtual clock (Host::now) and fabric
//     clock (Host::real_now) never move backwards, even while kClockSkew
//     / kClockStall episodes bend the virtual one;
//   * no leaked armed timers after teardown — once the harness has torn
//     down every endpoint (DNS resolvers, RPC clients, overlay nodes) and
//     reset every connection, whatever is still armed must be accounted
//     for by a live PCB's consolidated timer or the ARP retry timer.
//     Anything else is a wakeup some destroyed object forgot to cancel —
//     a use-after-free waiting for the fire.
//
// Drive on_pass() from the fabric pass hook (it does not take the host's
// post-pass hook, which belongs to the HostAuditor) and finalize() after
// teardown.
#pragma once

#include <cstdint>
#include <string>

#include "check/judge.hpp"
#include "stack/host.hpp"

namespace ldlp::check {

struct TimerAuditorStats {
  std::uint64_t passes = 0;
  std::uint64_t timers_checked = 0;  ///< PCB deadlines reconciled.
};

class TimerAuditor final : public Judge {
 public:
  explicit TimerAuditor(stack::Host& host, std::string label = {});

  [[nodiscard]] std::string_view name() const override {
    return "timer auditor";
  }

  /// One sweep: clock monotonicity + per-PCB wheel reconciliation.
  void on_pass() override;

  /// Teardown check: every armed timer is a live PCB's consolidated
  /// timer or the ARP retry timer; anything else leaked.
  void finalize() override;

  [[nodiscard]] const TimerAuditorStats& stats() const noexcept {
    return stats_;
  }

 private:
  /// Judge::violation, prefixed with the host clock as "[t=<now>] ".
  void violation(const std::string& what);

  stack::Host& host_;
  std::string label_;
  double last_virtual_ = 0.0;
  double last_real_ = 0.0;
  TimerAuditorStats stats_;
};

}  // namespace ldlp::check
