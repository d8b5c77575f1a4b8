// DeadlineOracle: every armed timer fires, cancels, or is condemned.
//
// Subscribes to each attached host's TimerWheel event stream and keeps
// the set of currently-armed timers. Two invariants:
//
//   * liveness — an armed-overdue timer that sees the wheel advance
//     must have fired: advance_to fires everything due, so surviving an
//     advance means the wheel lost it. Overdue entries are stamped with
//     the wheel time they were first observed at and condemned only when
//     the wheel later moves past the stamp — never on sight — which
//     keeps clock faults from faking lateness (skewed hosts arm
//     fabric-time deadlines a fast wheel sees as past; they legally fire
//     on the next advance. A stalled wheel holds due timers frozen);
//   * no starvation — storm shedding and the stale-shed path may drop
//     cadence work, but never a kLiveness timer: shedding a retransmit
//     or probe wedges the connection forever. This is exactly what the
//     WheelConfig::shed_guard mutation reverts, and the `clocks` chaos
//     scenario proves this oracle catches it.
//
// Drive on_pass() from the fabric pass hook and finalize() at the end.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check/judge.hpp"
#include "stack/host.hpp"
#include "time/timer_wheel.hpp"

namespace ldlp::recover {

struct DeadlineOracleConfig {
  /// How far past its deadline an armed timer may linger before it is
  /// condemned. Covers the armed-in-past grace (such timers fire on the
  /// *next* advance) plus a few fabric tick rounds of scheduling slack.
  double lateness_slack_sec = 0.05;
};

struct DeadlineOracleStats {
  std::uint64_t arms = 0;
  std::uint64_t fires = 0;    ///< Due + spurious (early) fires.
  std::uint64_t cancels = 0;
  std::uint64_t sheds = 0;
  std::uint64_t passes = 0;
};

class DeadlineOracle final : public check::Judge {
 public:
  explicit DeadlineOracle(DeadlineOracleConfig config = {})
      : cfg_(config) {}
  ~DeadlineOracle() override { detach(); }
  DeadlineOracle(const DeadlineOracle&) = delete;
  DeadlineOracle& operator=(const DeadlineOracle&) = delete;

  /// Subscribe to `host`'s wheel (takes the wheel's single observer
  /// slot). The host must outlive the oracle or detach() first.
  void attach(stack::Host& host, std::string label = {});

  /// Clear every observer installed by attach() (call before the hosts
  /// are destroyed if the oracle dies first).
  void detach();

  [[nodiscard]] std::string_view name() const override {
    return "deadline oracle";
  }

  /// Overdue-armed sweep; call once per fabric tick round.
  void on_pass() override;

  /// Final sweep. Timers still armed with future deadlines are fine —
  /// teardown cancels them — but overdue ones are condemned.
  void finalize() override { sweep(); }

  [[nodiscard]] const DeadlineOracleStats& stats() const noexcept {
    return stats_;
  }

 private:
  struct Armed {
    double deadline = 0.0;
    time::TimerClass cls = time::TimerClass::kCadence;
    /// Wheel time when a sweep first saw this entry armed past its
    /// deadline; <0 until then. Condemned only once the wheel advances
    /// beyond this stamp with the entry still armed.
    double overdue_seen = -1.0;
  };
  struct HostState {
    stack::Host* host = nullptr;
    std::string label;
    std::map<time::TimerId, Armed> armed;
    bool overdue_flagged = false;  ///< One condemnation per host, not per tick.
  };

  void on_event(HostState& hs, const time::TimerEvent& event);
  void sweep();

  DeadlineOracleConfig cfg_;
  std::vector<std::unique_ptr<HostState>> hosts_;
  DeadlineOracleStats stats_;
};

}  // namespace ldlp::recover
