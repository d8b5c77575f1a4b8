// Overlay membership structural invariants, audited per scheduler pass.
//
// The overlay layer (src/overlay) snapshots each node's views into plain
// OverlayView structs; the ViewAuditor condemns structurally-broken
// membership state the moment it appears, exactly as the HostAuditor
// does for PCBs. The check layer deliberately knows nothing about
// ldlp::overlay — only about this snapshot type — so the oracle can
// never be fooled by the implementation it is judging, and the
// dependency arrow stays overlay -> check.
//
// Per-pass invariants (hold at every instant, even mid-churn):
//   * a node never appears in its own active or passive view;
//   * |active| <= active_max and |passive| <= passive_max;
//   * active and passive views are disjoint;
//   * the eager/lazy dissemination sets partition the active view.
//
// Eventual invariant (checked by finalize() after the fault horizon,
// once the convergence oracle says views stopped moving):
//   * link symmetry — if a is in b's active view then b is in a's;
//     HyParView repairs asymmetry reactively, so transient asymmetry
//     during churn is legal but persistent asymmetry is a lost repair.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "check/judge.hpp"

namespace ldlp::check {

/// One overlay node's membership state, snapshotted for auditing.
/// Filled by overlay::OverlayNode::fill_view(); vectors are reused
/// across passes so per-pass auditing of a 64-node fleet allocates
/// nothing in steady state.
struct OverlayView {
  std::uint32_t self = 0;          ///< Node id (IPv4 address).
  bool live = true;                ///< False while the host is down.
  std::size_t active_max = 0;
  std::size_t passive_max = 0;
  std::vector<std::uint32_t> active;
  std::vector<std::uint32_t> passive;
  std::vector<std::uint32_t> eager;  ///< Tree subset of `active`.
};

struct ViewAuditorStats {
  std::uint64_t passes = 0;
  std::uint64_t views_checked = 0;
};

class ViewAuditor final : public Judge {
 public:
  /// Audit `views` (refreshed by the caller before every pass; it must
  /// outlive the auditor), stamping findings with `clock()`.
  ViewAuditor(const std::vector<OverlayView>& views,
              std::function<double()> clock)
      : views_(views), clock_(std::move(clock)) {}

  [[nodiscard]] std::string_view name() const override {
    return "view auditor";
  }

  /// One audit sweep over the fleet's views (per-pass invariants only).
  /// Dead nodes (live == false) are skipped — a crashed host's state is
  /// not required to be sane, only its reborn state is.
  void on_pass() override;

  /// End-of-run audit: per-pass invariants plus link symmetry. Call
  /// after the convergence oracle reports stable views.
  void finalize() override;

  [[nodiscard]] const ViewAuditorStats& stats() const noexcept {
    return stats_;
  }

 private:
  void audit_one(const OverlayView& view, double now_sec);

  const std::vector<OverlayView>& views_;
  std::function<double()> clock_;
  ViewAuditorStats stats_;
};

}  // namespace ldlp::check
