#include "recover/overlay_convergence.hpp"

#include <algorithm>
#include <cstddef>

#include "common/rng.hpp"

namespace ldlp::recover {
namespace {

/// Reach every live node from `start` over the edge set `edges`
/// (undirected adjacency by node id). Returns reached count.
std::size_t reach(const std::vector<std::uint32_t>& ids,
                  const std::vector<std::vector<std::uint32_t>>& adj,
                  std::size_t start) {
  std::vector<bool> seen(ids.size(), false);
  std::vector<std::size_t> frontier{start};
  seen[start] = true;
  std::size_t count = 1;
  while (!frontier.empty()) {
    const std::size_t i = frontier.back();
    frontier.pop_back();
    for (const std::uint32_t peer : adj[i]) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), peer);
      if (it == ids.end() || *it != peer) continue;
      const auto j = static_cast<std::size_t>(it - ids.begin());
      if (seen[j]) continue;
      seen[j] = true;
      ++count;
      frontier.push_back(j);
    }
  }
  return count;
}

}  // namespace

bool OverlayConvergenceOracle::ready() const {
  if (!armed_) return false;
  return std::all_of(clearances_.begin(), clearances_.end(),
                     [](const auto& fn) { return fn(); });
}

std::uint64_t OverlayConvergenceOracle::fingerprint() const {
  // Order-independent mix over (self, sorted active, sorted eager) of
  // every live node. splitmix64 per element keeps the hash cheap and
  // deterministic; the per-node hashes are summed so fleet iteration
  // order cannot matter.
  std::uint64_t sum = 0;
  std::vector<std::uint32_t> ids;
  for (const check::OverlayView& v : views_) {
    if (!v.live) continue;
    std::uint64_t h = 0x6f766c79ULL;  // "ovly"
    std::uint64_t s = v.self;
    h ^= splitmix64(s);
    for (auto [set, salt] :
         {std::pair{&v.active, 0xac71ULL}, std::pair{&v.eager, 0xea6eULL}}) {
      ids.assign(set->begin(), set->end());
      std::sort(ids.begin(), ids.end());
      for (const std::uint32_t id : ids) {
        std::uint64_t e = (static_cast<std::uint64_t>(id) << 16) ^ salt;
        h = h * 0x100000001b3ULL ^ splitmix64(e);
      }
    }
    sum += h;
  }
  return sum;
}

void OverlayConvergenceOracle::on_pass() {
  ++stats_.passes;
  if (!ready()) return;
  ++ready_passes_;

  const std::uint64_t fp = fingerprint();
  if (ready_passes_ > 1 && fp == last_fingerprint_) {
    ++stable_run_;
  } else {
    stable_run_ = 0;
  }
  last_fingerprint_ = fp;

  if (converged()) {
    if (stats_.passes_to_converge == 0)
      stats_.passes_to_converge = ready_passes_;
    return;
  }
  if (ready_passes_ > cfg_.budget_passes && !flagged_) {
    flagged_ = true;
    violation("views still churning after " +
              std::to_string(cfg_.budget_passes) + " post-clearance passes");
  }
}

void OverlayConvergenceOracle::finalize() {
  if (!converged() && !flagged_) {
    flagged_ = true;
    violation("finalized before views stabilized (stable run " +
              std::to_string(stable_run_) + "/" +
              std::to_string(cfg_.stable_passes) + ")");
  }

  // Index live nodes; sorted ids let reach() binary-search.
  std::vector<std::uint32_t> ids;
  for (const check::OverlayView& v : views_)
    if (v.live) ids.push_back(v.self);
  std::sort(ids.begin(), ids.end());
  if (ids.size() < 2) return;

  std::vector<std::vector<std::uint32_t>> active_adj(ids.size());
  std::vector<std::vector<std::uint32_t>> eager_adj(ids.size());
  for (const check::OverlayView& v : views_) {
    if (!v.live) continue;
    const auto it = std::lower_bound(ids.begin(), ids.end(), v.self);
    const auto i = static_cast<std::size_t>(it - ids.begin());
    active_adj[i].assign(v.active.begin(), v.active.end());
    // Eager links push payloads one way; a tree is healthy if its
    // *undirected* shape connects everyone (each edge's payload flow is
    // direction-per-source). Treat a->b eager as an undirected edge.
    eager_adj[i].assign(v.eager.begin(), v.eager.end());
  }
  // Symmetrize eager edges (a tree link grafted by one side counts).
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (const std::uint32_t peer : eager_adj[i]) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), peer);
      if (it == ids.end() || *it != peer) continue;
      const auto j = static_cast<std::size_t>(it - ids.begin());
      if (std::find(eager_adj[j].begin(), eager_adj[j].end(), ids[i]) ==
          eager_adj[j].end())
        eager_adj[j].push_back(ids[i]);
    }
  }

  const std::size_t active_reached = reach(ids, active_adj, 0);
  if (active_reached != ids.size())
    violation("active-link graph disconnected: reached " +
              std::to_string(active_reached) + " of " +
              std::to_string(ids.size()) + " live nodes");
  const std::size_t eager_reached = reach(ids, eager_adj, 0);
  if (eager_reached != ids.size())
    violation("eager-push tree disconnected: reached " +
              std::to_string(eager_reached) + " of " +
              std::to_string(ids.size()) + " live nodes");
}

}  // namespace ldlp::recover
