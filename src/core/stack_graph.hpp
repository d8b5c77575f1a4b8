// StackGraph: wires layers together and schedules them.
//
// The graph owns the topology ("directly above" edges, which may fan out —
// a demultiplexing layer has several upper neighbours) and the scheduling
// policy:
//
//  * kConventional — classic procedure-call layering: a message entering
//    the bottom is carried through every layer before the next message is
//    looked at. This is the paper's baseline (and the ALF ordering).
//
//  * kLdlp — locality-driven layer processing (section 3.1): messages
//    entering the graph are queued at the bottom layer; when the graph
//    runs, the bottom layer processes at most `batch_limit` messages
//    (bounding the batch by what fits in the data cache), then every layer
//    above runs to completion, higher layers first, before the bottom
//    layer is given the CPU again. Under light load batches degenerate to
//    a single message; under heavy load each layer's code is loaded into
//    the I-cache once per batch instead of once per message.
#pragma once

#include <cstdint>
#include <vector>

#include "core/layer.hpp"

namespace ldlp::core {

enum class SchedMode : std::uint8_t { kConventional, kLdlp };

struct GraphStats {
  /// Messages offered at inject(), admitted or not. Entry conservation:
  /// injected == shed_entry + (enqueued at the entry layers by inject).
  std::uint64_t injected = 0;
  /// Messages refused at inject() because the graph-wide backlog limit
  /// was reached (LDLP mode). Shedding happens at the entry layer only:
  /// work already admitted into higher-layer queues always finishes, per
  /// §3.1's run-to-completion batching (higher layers drain first).
  std::uint64_t shed_entry = 0;
  /// Messages cut off by the conventional-mode recursion depth guard
  /// (a layer cycle or pathological emit chain, which would otherwise
  /// grow the call stack without bound).
  std::uint64_t shed_depth = 0;
  /// Messages that left the top of the stack (emitted out of an
  /// unconnected port) — "delivered" in the conservation law.
  std::uint64_t delivered_top = 0;
  /// run() invocations that found work (LDLP mode).
  std::uint64_t runs = 0;
};

class StackGraph {
 public:
  StackGraph() = default;
  StackGraph(const StackGraph&) = delete;
  StackGraph& operator=(const StackGraph&) = delete;

  /// Register a layer (non-owning: layers typically live in the host
  /// object that also owns PCBs etc.). The layer must outlive the graph.
  LayerId add_layer(Layer& layer);

  /// Connect `lower`'s output `port` to `upper`'s input.
  void connect(LayerId lower, LayerId upper, int port = 0);

  void set_mode(SchedMode mode) noexcept { mode_ = mode; }
  [[nodiscard]] SchedMode mode() const noexcept { return mode_; }

  /// Bound on messages the *entry* layer processes per activation (the
  /// paper: "made to yield the CPU after processing as many messages as
  /// will fit in the data cache"). 0 means unlimited.
  void set_batch_limit(std::size_t limit) noexcept { batch_limit_ = limit; }
  [[nodiscard]] std::size_t batch_limit() const noexcept {
    return batch_limit_;
  }

  /// Hand a message to `layer`. Conventional mode processes it through the
  /// whole stack immediately; LDLP mode enqueues it for the next run().
  void inject(LayerId layer, Message msg);

  /// LDLP mode: drain all queues per the schedule above. Returns messages
  /// processed across all layers. No-op (returns 0) in conventional mode,
  /// where inject() already did the work.
  std::size_t run();

  /// One pipeline sweep: every layer with queued work processes only the
  /// messages present when the sweep started (bottom-up, at most
  /// batch_limit at the entry snapshot), so a message advances exactly one
  /// layer per pass instead of running to the top. This is the hybrid
  /// stage schedule of ldlp::pipe — per-stage batches with per-stage
  /// hand-off — and it shares all queue/routing code with run(). Returns
  /// messages processed this pass; callers loop until 0 (or interleave
  /// passes across stages). No-op in conventional mode.
  std::size_t run_stage_pass();

  [[nodiscard]] Layer& layer(LayerId id) { return *layers_.at(id); }
  [[nodiscard]] const Layer& layer(LayerId id) const {
    return *layers_.at(id);
  }
  [[nodiscard]] std::size_t layer_count() const noexcept {
    return layers_.size();
  }

  /// Total messages currently queued anywhere in the graph.
  [[nodiscard]] std::size_t backlog() const noexcept;

  /// Overload protection: refuse new messages at inject() once the total
  /// backlog reaches `limit` (0 = unlimited). Messages already inside the
  /// graph are never shed by this limit.
  void set_backlog_limit(std::size_t limit) noexcept {
    backlog_limit_ = limit;
  }
  [[nodiscard]] std::size_t backlog_limit() const noexcept {
    return backlog_limit_;
  }

  [[nodiscard]] const GraphStats& graph_stats() const noexcept {
    return gstats_;
  }

  /// Zero the graph counters and every registered layer's stats. Queued
  /// messages are untouched. Multi-run harnesses call this between runs
  /// so totals never carry over.
  void reset_stats() noexcept;

 private:
  friend class Layer;

  /// Route a message emitted by `from` out of `port`.
  void route(LayerId from, int port, Message msg);

  /// Run `id` to completion, then every layer directly above it (depth-
  /// first, following the paper's description).
  std::size_t drain_upward(LayerId id);

  struct Node {
    Layer* layer = nullptr;
    std::vector<std::pair<int, LayerId>> out_edges;
    std::vector<LayerId> above;  ///< Unique upper neighbours, in port order.
  };

  [[nodiscard]] LayerId find_edge(LayerId from, int port) const noexcept;

  /// Conventional-mode nesting bound; deep enough for any sane layering,
  /// shallow enough that an emit cycle sheds instead of overflowing the
  /// call stack.
  static constexpr int kMaxProcessDepth = 64;

  std::vector<Node> nodes_;
  std::vector<Layer*> layers_;
  SchedMode mode_ = SchedMode::kConventional;
  std::size_t batch_limit_ = 0;
  std::size_t backlog_limit_ = 0;
  int depth_ = 0;  ///< Live process_now() nesting (conventional mode).
  /// Per-layer queue lengths at the start of run_stage_pass(), kept
  /// between passes so a pass allocates nothing.
  std::vector<std::size_t> stage_snapshot_;
  GraphStats gstats_;
};

}  // namespace ldlp::core
