#include "check/timer_audit.hpp"

#include <cmath>

#include "stack/tcp_pcb.hpp"
#include "time/timer_wheel.hpp"

namespace ldlp::check {

TimerAuditor::TimerAuditor(stack::Host& host, std::string label)
    : host_(host), label_(label.empty() ? host.name() : std::move(label)) {}

void TimerAuditor::on_pass() {
  ++stats_.passes;

  // Clocks only move forward. The virtual clock may run fast or slow
  // under kClockSkew / kClockDrift and freeze under kClockStall, but a
  // backwards step would re-fire history and break every deadline bound.
  if (host_.now() < last_virtual_)
    violation(label_ + ": virtual clock moved backwards (" +
              std::to_string(last_virtual_) + " -> " +
              std::to_string(host_.now()) + ")");
  if (host_.real_now() < last_real_)
    violation(label_ + ": fabric clock moved backwards (" +
              std::to_string(last_real_) + " -> " +
              std::to_string(host_.real_now()) + ")");
  last_virtual_ = host_.now();
  last_real_ = host_.real_now();

  // Every pending deadline is armed wheel-side: a PCB with a finite
  // earliest deadline (retransmit, delayed ACK, persist, keepalive,
  // TIME_WAIT, pool retry) has its consolidated timer armed at or before
  // it. The wheel may wake the PCB early — pcb_timer re-checks and
  // re-syncs — but a timer that is missing, stale or late means that
  // deadline would pass unserved (the scan would have caught it; the
  // wheel only fires what is armed).
  const time::TimerWheel& wheel = host_.wheel();
  stack::TcpLayer& tcp = host_.tcp();
  for (std::uint32_t id = 0; id < tcp.pcb_count(); ++id) {
    const stack::TcpPcb& p = tcp.pcb_view(id);
    const double due = tcp.earliest_deadline(p).first;
    if (!std::isfinite(due)) continue;
    ++stats_.timers_checked;
    const auto flag = [&](const std::string& what) {
      violation(label_ + " pcb " + std::to_string(id) + " (" +
                std::string(stack::tcp_state_name(p.state)) + "): " + what);
    };
    if (p.wheel_timer == time::kNoTimer) {
      flag("deadline " + std::to_string(due) +
           " pending but no wheel timer armed");
      continue;
    }
    const double armed_at = wheel.deadline_of(p.wheel_timer);
    if (!std::isfinite(armed_at))
      flag("wheel handle " + std::to_string(p.wheel_timer) +
           " is stale (deadline " + std::to_string(due) +
           " would never fire)");
    else if (armed_at > due)
      flag("wheel armed at " + std::to_string(armed_at) +
           " after earliest deadline " + std::to_string(due));
  }
}

void TimerAuditor::finalize() {
  // Account for every legitimately-armed timer; the remainder leaked.
  const time::TimerWheel& wheel = host_.wheel();
  std::size_t accounted = 0;
  stack::TcpLayer& tcp = host_.tcp();
  for (std::uint32_t id = 0; id < tcp.pcb_count(); ++id) {
    const stack::TcpPcb& p = tcp.pcb_view(id);
    if (p.wheel_timer != time::kNoTimer &&
        std::isfinite(wheel.deadline_of(p.wheel_timer)))
      ++accounted;
  }
  if (std::isfinite(host_.eth().arp().next_retry_deadline())) ++accounted;
  if (wheel.armed_count() > accounted)
    violation(label_ + ": " +
              std::to_string(wheel.armed_count() - accounted) +
              " armed timer(s) leaked past teardown (" +
              std::to_string(wheel.armed_count()) + " armed, " +
              std::to_string(accounted) + " accounted for)");
}

void TimerAuditor::violation(const std::string& what) {
  Judge::violation("[t=" + std::to_string(host_.now()) + "] " + what);
}

}  // namespace ldlp::check
