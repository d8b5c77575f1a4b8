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

  // Retransmit armed iff asserted wheel-side: data in flight means the
  // PCB's consolidated timer is armed at or before rtx_deadline. (The
  // HostAuditor already ties finite rtx_deadline to a non-empty rtx
  // queue; this closes the loop to the wheel that actually fires it.)
  const time::TimerWheel& wheel = host_.wheel();
  stack::TcpLayer& tcp = host_.tcp();
  for (std::uint32_t id = 0; id < tcp.pcb_count(); ++id) {
    const stack::TcpPcb& p = tcp.pcb_view(id);
    if (!std::isfinite(p.rtx_deadline)) continue;
    ++stats_.timers_checked;
    const std::string who = label_ + " pcb " + std::to_string(id);
    if (p.wheel_timer == time::kNoTimer) {
      violation(who + ": data in flight but no wheel timer armed");
      continue;
    }
    const double armed_at = wheel.deadline_of(p.wheel_timer);
    if (!std::isfinite(armed_at))
      violation(who + ": wheel handle " + std::to_string(p.wheel_timer) +
                " is stale (rtx_deadline " +
                std::to_string(p.rtx_deadline) + " would never fire)");
    else if (armed_at > p.rtx_deadline)
      violation(who + ": wheel armed at " + std::to_string(armed_at) +
                " after rtx_deadline " + std::to_string(p.rtx_deadline));
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
