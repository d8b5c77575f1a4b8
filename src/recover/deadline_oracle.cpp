#include "recover/deadline_oracle.hpp"

namespace ldlp::recover {

void DeadlineOracle::attach(stack::Host& host, std::string label) {
  auto state = std::make_unique<HostState>();
  state->host = &host;
  state->label = label.empty() ? host.name() : std::move(label);
  HostState* hs = state.get();
  host.wheel().set_observer(
      [this, hs](const time::TimerEvent& event) { on_event(*hs, event); });
  hosts_.push_back(std::move(state));
}

void DeadlineOracle::detach() {
  for (const auto& hs : hosts_) hs->host->wheel().set_observer(nullptr);
  hosts_.clear();
}

void DeadlineOracle::on_event(HostState& hs, const time::TimerEvent& event) {
  using Kind = time::TimerEvent::Kind;
  switch (event.kind) {
    case Kind::kArm:
      ++stats_.arms;
      hs.armed[event.id] = Armed{event.deadline, event.cls};
      break;
    case Kind::kFire:
    case Kind::kSpurious:
      ++stats_.fires;
      hs.armed.erase(event.id);
      break;
    case Kind::kCancel:
      ++stats_.cancels;
      hs.armed.erase(event.id);
      break;
    case Kind::kShed:
      ++stats_.sheds;
      hs.armed.erase(event.id);
      // Shedding cadence under pressure is degraded service; shedding a
      // liveness timer is a wedged connection — the shed_guard mutation.
      if (event.cls == time::TimerClass::kLiveness)
        violation(hs.label + ": liveness timer (deadline " +
                  std::to_string(event.deadline) + ") shed at t=" +
                  std::to_string(event.now) +
                  " — retransmit/probe will never fire");
      break;
  }
}

void DeadlineOracle::on_pass() {
  ++stats_.passes;
  sweep();
}

void DeadlineOracle::sweep() {
  for (const auto& hs : hosts_) {
    if (hs->overdue_flagged) continue;
    // A timer is lost iff the wheel ADVANCED while it sat armed past its
    // deadline: advance_to fires everything due, so surviving an advance
    // means the wheel dropped it. Each overdue entry is first *observed*
    // (stamping the wheel time it was seen armed at) and only condemned
    // on a later sweep once the wheel has moved beyond that stamp. Two
    // clock-fault regimes make the naive "overdue right now" check
    // false-positive, and this two-step dodges both: endpoints arm
    // fabric-time deadlines that a skew-fast wheel sees as already past
    // (legal — they fire on the next advance, before a second sweep can
    // see the wheel advance past the stamp), and a stalled wheel holds
    // due timers frozen (wheel time never passes the stamp).
    const double now = hs->host->wheel().now();
    for (auto& [id, armed] : hs->armed) {
      if (armed.deadline + cfg_.lateness_slack_sec >= now) continue;
      if (armed.overdue_seen < 0.0) {
        armed.overdue_seen = now;
        continue;
      }
      if (now <= armed.overdue_seen) continue;
      hs->overdue_flagged = true;
      violation(hs->label + ": " +
                std::string(time::timer_class_name(armed.cls)) +
                " timer armed for " + std::to_string(armed.deadline) +
                " still pending at wheel time " + std::to_string(now));
      break;
    }
  }
}

}  // namespace ldlp::recover
