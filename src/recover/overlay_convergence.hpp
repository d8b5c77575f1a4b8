// Overlay convergence oracle: after the fault horizon, the membership
// views must stop moving and the eager-push graph must knit back into a
// single spanning tree.
//
// The ConvergenceOracle proves the *transport* comes back (every PCB
// terminal or quiescent); this oracle proves the *overlay* does. Its
// input is the same per-pass OverlayView snapshot the ViewAuditor
// consumes — plain data, so recover never depends on ldlp::overlay.
//
// Protocol mirrors ConvergenceOracle: the oracle is built over the views
// vector the harness refreshes every pass, arm() once churn is scheduled
// to end, add_clearance(fabric.faults_cleared) so the stability budget
// only counts once adversity has drained, on_pass() per scheduler tick.
// Stability is judged by fingerprinting every live node's sorted active
// and eager views: `stable_passes` consecutive identical fingerprints
// within `budget_passes` of readiness means the membership protocol
// settled (shuffles keep exchanging *passive* entries forever — that is
// steady-state maintenance, not instability, so passive views are
// excluded from the fingerprint).
//
// finalize() then judges the settled shape:
//   * connectivity — the undirected graph over active links reaches every
//     live node from the first (a partitioned-but-individually-stable
//     overlay must be condemned: repair failed);
//   * tree quality — the eager subgraph, which PlumTree prunes toward a
//     spanning tree, must itself connect every live node. (A pruned-too-
//     far eager graph would strand a subtree on lazy IHAVE links only;
//     delivery still happens via graft, but convergence demands the tree
//     healed.)
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "check/judge.hpp"
#include "check/overlay_audit.hpp"

namespace ldlp::recover {

struct OverlayConvergenceConfig {
  /// Passes allowed between "armed + clearances drained" and the views
  /// stabilizing. Gossip soaks tick at 5 ms, and a full repair (probe
  /// backoff ladder -> dead -> Neighbor promotion) spans ~2.5 s of sim
  /// time, so the default covers several back-to-back repairs.
  std::uint64_t budget_passes = 4000;
  /// Consecutive identical view fingerprints required to call it stable.
  std::uint64_t stable_passes = 40;
};

struct OverlayConvergenceStats {
  std::uint64_t passes = 0;
  std::uint64_t passes_to_converge = 0;  ///< Budget passes used (0 = not yet).
};

class OverlayConvergenceOracle final : public check::Judge {
 public:
  /// Judge `views` (refreshed by the caller before every pass; it must
  /// outlive the oracle).
  explicit OverlayConvergenceOracle(
      const std::vector<check::OverlayView>& views,
      OverlayConvergenceConfig cfg = {})
      : views_(views), cfg_(cfg) {}

  [[nodiscard]] std::string_view name() const override {
    return "overlay convergence";
  }

  /// "Adversity drained" predicates; all must hold before the stability
  /// budget starts counting (fleet runs hang fabric.faults_cleared here).
  void add_clearance(std::function<bool()> cleared) {
    clearances_.push_back(std::move(cleared));
  }

  /// No further churn or joins will be initiated; stability is owed.
  void arm() noexcept { armed_ = true; }

  /// Call once per scheduler pass, after the views are refreshed.
  void on_pass() override;

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  [[nodiscard]] bool ready() const;
  /// Views have held still for stable_passes consecutive ready passes.
  [[nodiscard]] bool converged() const noexcept {
    return stable_run_ >= cfg_.stable_passes;
  }
  [[nodiscard]] bool settled() const { return ready() && converged(); }

  /// End-of-run shape check on the settled views (see file comment).
  void finalize() override;

  [[nodiscard]] const OverlayConvergenceStats& stats() const noexcept {
    return stats_;
  }

 private:
  [[nodiscard]] std::uint64_t fingerprint() const;

  const std::vector<check::OverlayView>& views_;
  OverlayConvergenceConfig cfg_;
  std::vector<std::function<bool()>> clearances_;
  bool armed_ = false;
  bool flagged_ = false;
  std::uint64_t ready_passes_ = 0;
  std::uint64_t stable_run_ = 0;
  std::uint64_t last_fingerprint_ = 0;
  OverlayConvergenceStats stats_;
};

}  // namespace ldlp::recover
