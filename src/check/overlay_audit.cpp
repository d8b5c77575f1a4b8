#include "check/overlay_audit.hpp"

#include <algorithm>

namespace ldlp::check {
namespace {

[[nodiscard]] bool contains(const std::vector<std::uint32_t>& ids,
                            std::uint32_t id) noexcept {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

[[nodiscard]] std::string at(double now_sec) {
  return " t=" + std::to_string(now_sec);
}

}  // namespace

void ViewAuditor::audit_one(const OverlayView& view, double now_sec) {
  ++stats_.views_checked;
  const std::string who =
      "node " + std::to_string(view.self) + at(now_sec) + ": ";

  if (contains(view.active, view.self))
    violation(who + "self in active view");
  if (contains(view.passive, view.self))
    violation(who + "self in passive view");
  if (view.active.size() > view.active_max)
    violation(who + "active degree " + std::to_string(view.active.size()) +
              " exceeds bound " + std::to_string(view.active_max));
  if (view.passive.size() > view.passive_max)
    violation(who + "passive size " + std::to_string(view.passive.size()) +
              " exceeds bound " + std::to_string(view.passive_max));
  for (const std::uint32_t id : view.active) {
    if (contains(view.passive, id))
      violation(who + "peer " + std::to_string(id) +
                " in both active and passive");
    if (std::count(view.active.begin(), view.active.end(), id) > 1)
      violation(who + "peer " + std::to_string(id) +
                " duplicated in active view");
  }
  // eager/lazy must partition the active view: every eager peer is
  // active (the lazy set is implicit — active minus eager — so only the
  // subset direction can break).
  for (const std::uint32_t id : view.eager) {
    if (!contains(view.active, id))
      violation(who + "eager peer " + std::to_string(id) +
                " not in active view");
    if (std::count(view.eager.begin(), view.eager.end(), id) > 1)
      violation(who + "peer " + std::to_string(id) +
                " duplicated in eager set");
  }
}

void ViewAuditor::on_pass() {
  ++stats_.passes;
  const double now_sec = clock_();
  for (const OverlayView& view : views_) {
    if (!view.live) continue;
    audit_one(view, now_sec);
  }
}

void ViewAuditor::finalize() {
  on_pass();
  const double now_sec = clock_();
  // Link symmetry across the live fleet: a in b.active => b in a.active.
  for (const OverlayView& a : views_) {
    if (!a.live) continue;
    for (const std::uint32_t peer : a.active) {
      for (const OverlayView& b : views_) {
        if (b.self != peer || !b.live) continue;
        if (!contains(b.active, a.self))
          violation("asymmetric link" + at(now_sec) + ": " +
                    std::to_string(a.self) + " has " + std::to_string(peer) +
                    " active but not vice versa");
      }
    }
  }
}

}  // namespace ldlp::check
