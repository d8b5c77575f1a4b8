// Unit tests for the scheduling framework — the paper's contribution.
// Verifies that conventional mode is depth-first per message, that LDLP
// mode drains per layer (blocked order) with run-to-completion above the
// entry layer, that the batch limit bounds entry-layer batches, and that
// the blocking-factor estimator matches the paper's arithmetic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "buf/packet.hpp"
#include "common/rng.hpp"
#include "core/blocking.hpp"
#include "core/grouping.hpp"
#include "core/stack_graph.hpp"

namespace ldlp::core {
namespace {

/// Records (layer name, message id) in a shared journal, then forwards.
class JournalLayer final : public Layer {
 public:
  JournalLayer(std::string name, std::vector<std::string>& journal)
      : Layer(std::move(name)), journal_(journal) {}

 protected:
  void process(Message msg) override {
    journal_.push_back(name() + ":" + std::to_string(msg.flow_id));
    emit(std::move(msg), 0);
  }

 private:
  std::vector<std::string>& journal_;
};

struct TwoLayerFixture {
  buf::MbufPool pool{64, 16};
  std::vector<std::string> journal;
  JournalLayer l1{"L1", journal};
  JournalLayer l2{"L2", journal};
  StackGraph graph;
  LayerId id1;
  LayerId id2;

  TwoLayerFixture() {
    id1 = graph.add_layer(l1);
    id2 = graph.add_layer(l2);
    graph.connect(id1, id2, 0);
  }

  Message msg(std::uint64_t id) {
    Message m(buf::Packet::make(pool));
    m.flow_id = id;
    return m;
  }
};

TEST(StackGraph, ConventionalIsDepthFirstPerMessage) {
  TwoLayerFixture fx;
  fx.graph.set_mode(SchedMode::kConventional);
  fx.graph.inject(fx.id1, fx.msg(1));
  fx.graph.inject(fx.id1, fx.msg(2));
  EXPECT_EQ(fx.journal,
            (std::vector<std::string>{"L1:1", "L2:1", "L1:2", "L2:2"}));
}

TEST(StackGraph, LdlpIsBlockedOrder) {
  TwoLayerFixture fx;
  fx.graph.set_mode(SchedMode::kLdlp);
  fx.graph.inject(fx.id1, fx.msg(1));
  fx.graph.inject(fx.id1, fx.msg(2));
  EXPECT_TRUE(fx.journal.empty());  // nothing runs until the graph does
  EXPECT_EQ(fx.graph.backlog(), 2u);
  const std::size_t processed = fx.graph.run();
  EXPECT_EQ(processed, 4u);  // 2 messages x 2 layers
  // Blocked schedule: L1 drains both messages, then L2 drains both.
  EXPECT_EQ(fx.journal,
            (std::vector<std::string>{"L1:1", "L1:2", "L2:1", "L2:2"}));
  EXPECT_EQ(fx.graph.backlog(), 0u);
}

TEST(StackGraph, BatchLimitBoundsEntryLayer) {
  TwoLayerFixture fx;
  fx.graph.set_mode(SchedMode::kLdlp);
  fx.graph.set_batch_limit(2);
  for (std::uint64_t i = 1; i <= 5; ++i) fx.graph.inject(fx.id1, fx.msg(i));
  (void)fx.graph.run();
  // Entry layer yields every 2 messages; L2 runs to completion each time.
  EXPECT_EQ(fx.journal,
            (std::vector<std::string>{"L1:1", "L1:2", "L2:1", "L2:2", "L1:3",
                                      "L1:4", "L2:3", "L2:4", "L1:5",
                                      "L2:5"}));
}

TEST(StackGraph, LayerStatsTrackBatches) {
  TwoLayerFixture fx;
  fx.graph.set_mode(SchedMode::kLdlp);
  for (std::uint64_t i = 0; i < 6; ++i) fx.graph.inject(fx.id1, fx.msg(i));
  (void)fx.graph.run();
  EXPECT_EQ(fx.l1.stats().processed, 6u);
  EXPECT_EQ(fx.l1.stats().activations, 1u);  // one drain of 6
  EXPECT_DOUBLE_EQ(fx.l1.stats().mean_batch(), 6.0);
  EXPECT_EQ(fx.l1.stats().max_queue, 6u);
}

TEST(StackGraph, QueueOverflowDrops) {
  buf::MbufPool pool(64, 16);
  std::vector<std::string> journal;
  class Tiny final : public Layer {
   public:
    explicit Tiny() : Layer("tiny", 2) {}

   protected:
    void process(Message) override {}
  } tiny;
  StackGraph graph;
  const LayerId id = graph.add_layer(tiny);
  graph.set_mode(SchedMode::kLdlp);
  for (int i = 0; i < 5; ++i) graph.inject(id, Message(buf::Packet::make(pool)));
  EXPECT_EQ(tiny.stats().drops, 3u);
  (void)graph.run();
  EXPECT_EQ(tiny.stats().processed, 2u);
  EXPECT_EQ(pool.stats().mbufs_outstanding(), 0u);  // drops freed chains
}

TEST(StackGraph, DemuxFanOut) {
  buf::MbufPool pool(64, 16);
  std::vector<std::string> journal;
  /// Routes odd flow ids to port 1, even to port 0.
  class Demux final : public Layer {
   public:
    Demux(std::vector<std::string>& j) : Layer("demux"), journal_(j) {}

   protected:
    void process(Message msg) override {
      journal_.push_back("demux:" + std::to_string(msg.flow_id));
      emit(std::move(msg), msg.flow_id % 2 == 0 ? 0 : 1);
    }
    std::vector<std::string>& journal_;
  };

  Demux demux(journal);
  JournalLayer even("even", journal);
  JournalLayer odd("odd", journal);
  StackGraph graph;
  const LayerId d = graph.add_layer(demux);
  const LayerId e = graph.add_layer(even);
  const LayerId o = graph.add_layer(odd);
  graph.connect(d, e, 0);
  graph.connect(d, o, 1);
  graph.set_mode(SchedMode::kLdlp);
  for (std::uint64_t i = 0; i < 4; ++i) {
    Message m(buf::Packet::make(pool));
    m.flow_id = i;
    graph.inject(d, std::move(m));
  }
  (void)graph.run();
  // Demux drains all 4, then both upper layers run to completion.
  EXPECT_EQ(journal[0], "demux:0");
  EXPECT_EQ(journal[3], "demux:3");
  EXPECT_EQ(journal.size(), 8u);
  int evens = 0;
  int odds = 0;
  for (const auto& entry : journal) {
    if (entry.rfind("even:", 0) == 0) ++evens;
    if (entry.rfind("odd:", 0) == 0) ++odds;
  }
  EXPECT_EQ(evens, 2);
  EXPECT_EQ(odds, 2);
}

TEST(StackGraph, UnconnectedPortConsumesMessage) {
  buf::MbufPool pool(8, 2);
  std::vector<std::string> journal;
  JournalLayer top("top", journal);
  StackGraph graph;
  const LayerId id = graph.add_layer(top);
  graph.set_mode(SchedMode::kConventional);
  graph.inject(id, Message(buf::Packet::make(pool)));  // top emits to nothing
  EXPECT_EQ(journal.size(), 1u);
  EXPECT_EQ(pool.stats().mbufs_outstanding(), 0u);
}

TEST(StackGraph, RunIsNoopInConventionalMode) {
  TwoLayerFixture fx;
  fx.graph.set_mode(SchedMode::kConventional);
  EXPECT_EQ(fx.graph.run(), 0u);
}

TEST(Blocking, PaperArithmetic) {
  // 8 KB D-cache, 5 layers x 256 B data, 552 B messages:
  // (8192 - 1280) / 552 = 12.
  const StackFootprint stack{5, 6 * 1024, 256, 552};
  const sim::CacheConfig icache{8192, 32, 1};
  const sim::CacheConfig dcache{8192, 32, 1};
  const auto estimate = estimate_blocking(stack, icache, dcache);
  EXPECT_EQ(estimate.batch_limit, 12u);
  EXPECT_TRUE(estimate.layer_fits_icache);
  EXPECT_EQ(estimate.layers_in_icache, 1u);
}

TEST(Blocking, LargeMessageDegeneratesToOne) {
  // Large-message protocol (Figure 4): one message is the right blocking
  // factor when messages dwarf the cache.
  const StackFootprint stack{3, 2048, 128, 16 * 1024};
  const auto estimate = estimate_blocking(stack, sim::CacheConfig{8192, 32, 1},
                                          sim::CacheConfig{8192, 32, 1});
  EXPECT_EQ(estimate.batch_limit, 1u);
}

TEST(Blocking, BigCacheHoldsWholeStack) {
  const StackFootprint stack{5, 6 * 1024, 256, 552};
  const auto estimate =
      estimate_blocking(stack, sim::CacheConfig{65536, 32, 1},
                        sim::CacheConfig{65536, 32, 1});
  EXPECT_GE(estimate.layers_in_icache, 5u);
}

TEST(Grouping, SingleLayerGroupsOnSmallCache) {
  // 6 KB layers, 8 KB cache, 75% budget = 6144: one layer per group.
  const auto groups = plan_groups({6144, 6144, 6144, 6144, 6144}, 8192);
  EXPECT_EQ(groups, (std::vector<std::uint32_t>{1, 1, 1, 1, 1}));
}

TEST(Grouping, PairsOnMediumCache) {
  const auto groups = plan_groups({6144, 6144, 6144, 6144, 6144}, 16384);
  EXPECT_EQ(groups, (std::vector<std::uint32_t>{2, 2, 1}));
}

TEST(Grouping, WholeStackOnHugeCache) {
  const auto groups =
      plan_groups({6144, 6144, 6144, 6144, 6144}, 64 * 1024, 0.75);
  EXPECT_EQ(groups, (std::vector<std::uint32_t>{5}));
}

TEST(Grouping, OversizedLayerGetsOwnGroup) {
  const auto groups = plan_groups({20000, 1000, 1000}, 8192);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], 1u);  // the 20 KB layer alone
  EXPECT_EQ(groups[1], 2u);
}

TEST(Grouping, HeterogeneousSizes) {
  // 3+2+4+1+5 KB against a 8 KB cache at 75% (6 KB budget).
  const auto groups =
      plan_groups({3072, 2048, 4096, 1024, 5120}, 8192);
  EXPECT_EQ(groups, (std::vector<std::uint32_t>{2, 2, 1}));
  std::uint32_t total = 0;
  for (const auto g : groups) total += g;
  EXPECT_EQ(total, 5u);
}

TEST(Grouping, EmptyStack) {
  EXPECT_TRUE(plan_groups({}, 8192).empty());
}

// Property-based check of the blocking estimate over randomised footprints
// and cache geometries (deterministic seed): the invariants the scheduler
// relies on, not specific arithmetic points.
TEST(Blocking, PropertiesOverRandomFootprints) {
  Rng rng(20260806);
  const sim::CacheConfig icache{8 * 1024, 32, 1};
  for (int trial = 0; trial < 500; ++trial) {
    StackFootprint fp;
    fp.num_layers = 1 + static_cast<std::uint32_t>(rng() % 12);
    fp.layer_code_bytes = 512 + static_cast<std::uint32_t>(rng() % 16384);
    fp.layer_data_bytes = static_cast<std::uint32_t>(rng() % 2048);
    fp.message_bytes = 1 + static_cast<std::uint32_t>(rng() % 4096);
    const std::uint32_t dcache_bytes =
        1024u << (rng() % 7);  // 1 KB .. 64 KB
    const sim::CacheConfig dcache{dcache_bytes, 32, 1};
    const auto est = estimate_blocking(fp, icache, dcache);

    // Always a usable batch bound.
    ASSERT_GE(est.batch_limit, 1u) << "trial " << trial;

    // Monotone: a strictly larger D-cache never shrinks the batch.
    const sim::CacheConfig bigger{dcache_bytes * 2, 32, 1};
    const auto est2 = estimate_blocking(fp, icache, bigger);
    EXPECT_GE(est2.batch_limit, est.batch_limit) << "trial " << trial;

    // Degenerate: one message alone overflowing the D-cache forces 1.
    if (fp.message_bytes >= dcache_bytes) {
      EXPECT_EQ(est.batch_limit, 1u) << "trial " << trial;
    }
  }
}

// Regression test for the stale-counter bug class: re-running a graph
// after reset_stats() must reproduce a fresh graph's totals exactly —
// shed_entry/shed_depth and the per-layer counters must not carry over.
TEST(StackGraph, ResetStatsClearsBetweenRuns) {
  const auto drive = [](TwoLayerFixture& fx) {
    fx.graph.set_mode(SchedMode::kLdlp);
    fx.graph.set_backlog_limit(3);
    for (std::uint64_t i = 0; i < 5; ++i)
      fx.graph.inject(fx.id1, fx.msg(i));  // 2 of 5 shed at entry
    (void)fx.graph.run();
  };

  TwoLayerFixture fresh;
  drive(fresh);
  const GraphStats want = fresh.graph.graph_stats();
  EXPECT_EQ(want.injected, 5u);
  EXPECT_EQ(want.shed_entry, 2u);
  EXPECT_EQ(want.runs, 1u);

  TwoLayerFixture reused;
  drive(reused);
  reused.journal.clear();
  reused.graph.reset_stats();
  EXPECT_EQ(reused.graph.graph_stats().injected, 0u);
  EXPECT_EQ(reused.l1.stats().enqueued, 0u);

  drive(reused);
  const GraphStats& got = reused.graph.graph_stats();
  EXPECT_EQ(got.injected, want.injected);
  EXPECT_EQ(got.shed_entry, want.shed_entry);
  EXPECT_EQ(got.shed_depth, want.shed_depth);
  EXPECT_EQ(got.delivered_top, want.delivered_top);
  EXPECT_EQ(got.runs, want.runs);
  EXPECT_EQ(reused.l1.stats().enqueued, fresh.l1.stats().enqueued);
  EXPECT_EQ(reused.l1.stats().processed, fresh.l1.stats().processed);
  EXPECT_EQ(reused.l2.stats().processed, fresh.l2.stats().processed);
}

// The per-layer conservation law the chaos invariants build on.
TEST(StackGraph, LayerEnqueueConservation) {
  TwoLayerFixture fx;
  fx.graph.set_mode(SchedMode::kLdlp);
  for (std::uint64_t i = 0; i < 7; ++i) fx.graph.inject(fx.id1, fx.msg(i));
  (void)fx.graph.run();
  for (const Layer* layer : {&fx.l1, &fx.l2}) {
    const LayerStats& s = layer->stats();
    EXPECT_EQ(s.enqueued, s.processed + s.drops + layer->queue_len())
        << layer->name();
  }
  const GraphStats& gs = fx.graph.graph_stats();
  EXPECT_EQ(gs.injected, gs.shed_entry + fx.l1.stats().enqueued);
}

}  // namespace
}  // namespace ldlp::core
