// Tests of the section 4 synthetic benchmark system: determinism,
// conservation of messages, the directional properties the paper claims
// (LDLP cuts I-misses under load, raises throughput, batches bounded by
// the blocking estimate), and degenerate configurations.
#include <gtest/gtest.h>

#include "synth/sweep.hpp"
#include "traffic/size_models.hpp"

namespace ldlp::synth {
namespace {

Stack config_for(SynthMode mode) {
  Stack cfg;
  cfg.mode = mode;
  return cfg;
}

sim::Summary run_once(const Stack& cfg, double rate, double seconds,
                      std::uint64_t seed,
                      const sim::Machine& machine = {}) {
  traffic::PoissonSource source(rate, traffic::internet552_sizes(), seed);
  return run(cfg, source, seconds, machine);
}

TEST(Synth, DeterministicForSeeds) {
  const Stack cfg = config_for(SynthMode::kLdlp);
  const sim::Summary a = run_once(cfg, 5000, 0.5, 42);
  const sim::Summary b = run_once(cfg, 5000, 0.5, 42);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.mean_latency, b.mean_latency);
  EXPECT_DOUBLE_EQ(a.i_miss_per_msg, b.i_miss_per_msg);
}

TEST(Synth, MessagesConserved) {
  for (const auto mode :
       {SynthMode::kConventional, SynthMode::kLdlp}) {
    const sim::Summary r = run_once(config_for(mode), 6000, 0.5, 7);
    EXPECT_EQ(r.offered, r.completed + r.dropped)
        << "mode=" << static_cast<int>(mode);
    EXPECT_GT(r.completed, 0u);
  }
}

TEST(Synth, BatchLimitMatchesBlockingEstimate) {
  EXPECT_EQ(machine(config_for(SynthMode::kLdlp)).batch_limit,
            12u);  // (8192 - 5*256)/552
  EXPECT_EQ(machine(config_for(SynthMode::kConventional)).batch_limit, 1u);
}

TEST(Synth, ConventionalColdMissesMatchWorkingSet) {
  // At low load, every message fetches the whole 30 KB of layer code:
  // 5 layers x 6 KB / 32 B = 960 instruction misses per message.
  const sim::Summary r = run_once(config_for(SynthMode::kConventional),
                               500, 1.0, 3);
  EXPECT_NEAR(r.i_miss_per_msg, 960.0, 25.0);
}

TEST(Synth, LdlpCutsInstructionMissesUnderLoad) {
  const sim::Summary conv =
      run_once(config_for(SynthMode::kConventional), 8000, 0.5, 5);
  const sim::Summary ldlp =
      run_once(config_for(SynthMode::kLdlp), 8000, 0.5, 5);
  EXPECT_LT(ldlp.i_miss_per_msg, conv.i_miss_per_msg / 3.0);
  EXPECT_GE(ldlp.d_miss_per_msg, conv.d_miss_per_msg * 0.8);
  EXPECT_GT(ldlp.mean_batch, 3.0);
}

TEST(Synth, LdlpThroughputExceedsConventional) {
  const sim::Summary conv =
      run_once(config_for(SynthMode::kConventional), 9000, 1.0, 9);
  const sim::Summary ldlp =
      run_once(config_for(SynthMode::kLdlp), 9000, 1.0, 9);
  EXPECT_GT(ldlp.completed, conv.completed * 2);
  EXPECT_LT(ldlp.mean_latency, conv.mean_latency);
}

TEST(Synth, IlpSavesDataMissesNotInstructionMisses) {
  // The paper's argument for why ILP does not rescue small-message
  // protocols: fusing data loops saves message-data traffic but leaves
  // the dominant instruction-fetch traffic untouched.
  const sim::Summary conv =
      run_once(config_for(SynthMode::kConventional), 2000, 0.5, 19);
  const sim::Summary ilp = run_once(config_for(SynthMode::kIlp), 2000, 0.5, 19);
  EXPECT_NEAR(ilp.i_miss_per_msg, conv.i_miss_per_msg,
              conv.i_miss_per_msg * 0.03);
  EXPECT_LT(ilp.d_miss_per_msg, conv.d_miss_per_msg);
  // And therefore ILP saturates at nearly the same load as conventional,
  // far below LDLP.
  const sim::Summary ilp_hot = run_once(config_for(SynthMode::kIlp), 9000, 0.5, 19);
  const sim::Summary ldlp_hot =
      run_once(config_for(SynthMode::kLdlp), 9000, 0.5, 19);
  EXPECT_GT(static_cast<double>(ldlp_hot.completed),
            static_cast<double>(ilp_hot.completed) * 1.7);
  EXPECT_GT(ilp_hot.dropped, ldlp_hot.dropped * 10);
}

TEST(Synth, LightLoadBatchesNearOne) {
  const sim::Summary r = run_once(config_for(SynthMode::kLdlp), 200, 1.0, 1);
  EXPECT_LT(r.mean_batch, 1.1);
  EXPECT_EQ(r.dropped, 0u);
}

TEST(Synth, QueueCostChargesLdlpOnly) {
  Stack with = config_for(SynthMode::kLdlp);
  with.queue_cost_cycles = 4000;  // exaggerated to be visible
  Stack without = with;
  without.queue_cost_cycles = 0;
  const sim::Summary slow = run_once(with, 500, 0.5, 11);
  const sim::Summary fast = run_once(without, 500, 0.5, 11);
  EXPECT_GT(slow.mean_latency, fast.mean_latency);
}

TEST(Synth, BufferLimitCausesDrops) {
  Stack cfg = config_for(SynthMode::kConventional);
  cfg.buffer_limit = 10;
  const sim::Summary r = run_once(cfg, 10000, 0.5, 13);
  EXPECT_GT(r.dropped, 0u);
  EXPECT_LE(r.max_latency, 1.0);  // short queue bounds sojourn
}

TEST(Synth, BigIcacheErasesAdvantage) {
  sim::Machine big;
  big.memory.icache.size_bytes = 64 * 1024;
  big.memory.dcache.size_bytes = 64 * 1024;
  // 4-way: with direct mapping, randomly placed 6 KB regions still
  // conflict often enough to mask residency (an effect the cache-size
  // ablation bench shows); associativity isolates the capacity question.
  big.memory.icache.ways = 4;
  big.memory.dcache.ways = 4;
  const sim::Summary c =
      run_once(config_for(SynthMode::kConventional), 5000, 0.5, 17, big);
  const sim::Summary l =
      run_once(config_for(SynthMode::kLdlp), 5000, 0.5, 17, big);
  // Whole stack resident: both schedules see few I-misses.
  EXPECT_LT(c.i_miss_per_msg, 100.0);
  EXPECT_LT(l.i_miss_per_msg, 100.0);
}

TEST(Synth, GroupingDegeneratesCorrectly) {
  // Group size = num_layers inside one batch behaves like the
  // conventional inner order: same I-miss count per message when the
  // batch is 1 (light load).
  Stack grouped = config_for(SynthMode::kLdlp);
  grouped.layers_per_group = 5;
  grouped.queue_cost_cycles = 0;
  const sim::Summary g = run_once(grouped, 300, 0.5, 31);
  Stack conv = config_for(SynthMode::kConventional);
  const sim::Summary c = run_once(conv, 300, 0.5, 31);
  EXPECT_NEAR(g.i_miss_per_msg, c.i_miss_per_msg,
              c.i_miss_per_msg * 0.05);
}

TEST(Synth, AutoGroupingMatchesPlan) {
  Stack cfg = config_for(SynthMode::kLdlp);
  cfg.layers_per_group = 0;  // auto
  sim::CacheConfig icache;
  icache.size_bytes = 16 * 1024;
  EXPECT_EQ(groups(cfg, icache), (std::vector<std::uint32_t>{2, 2, 1}));
}

TEST(Synth, DuplexDoublesCodeWorkingSet) {
  // Request/response mode: the transmit code path is distinct, so cold
  // per-message I-misses double (plus the application's footprint).
  Stack rx_only = config_for(SynthMode::kConventional);
  Stack duplex = rx_only;
  duplex.duplex = true;
  const sim::Summary rx = run_once(rx_only, 300, 0.5, 37);
  const sim::Summary both = run_once(duplex, 300, 0.5, 37);
  EXPECT_GT(both.i_miss_per_msg, rx.i_miss_per_msg * 1.9);
  EXPECT_GT(both.mean_latency, rx.mean_latency * 1.8);
}

TEST(Synth, DuplexLdlpBatchesBothDirections) {
  Stack conv = config_for(SynthMode::kConventional);
  conv.duplex = true;
  Stack ldlp = conv;
  ldlp.mode = SynthMode::kLdlp;
  const sim::Summary c = run_once(conv, 4000, 0.5, 41);
  const sim::Summary l = run_once(ldlp, 4000, 0.5, 41);
  EXPECT_LT(l.i_miss_per_msg, c.i_miss_per_msg / 2.0);
  EXPECT_GT(l.completed, c.completed);
}

TEST(Sweep, AverageAggregatesFields) {
  sim::Summary a;
  a.completed = 10;
  a.mean_latency = 0.001;
  a.batch_limit = 12;
  sim::Summary b;
  b.completed = 20;
  b.mean_latency = 0.003;
  b.batch_limit = 12;
  const sim::Summary mean = average({a, b});
  EXPECT_EQ(mean.completed, 15u);
  EXPECT_DOUBLE_EQ(mean.mean_latency, 0.002);
  EXPECT_EQ(mean.batch_limit, 12u);
}

TEST(Sweep, PoissonSweepMonotoneLoad) {
  SweepOptions opt;
  opt.runs = 3;
  opt.run_seconds = 0.3;
  const auto points = sweep_poisson_rates(
      config_for(SynthMode::kLdlp), {1000, 4000, 8000}, opt);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_LT(points[0].mean.mean_batch, points[2].mean.mean_batch);
  EXPECT_LE(points[2].mean.i_miss_per_msg, points[0].mean.i_miss_per_msg);
}

TEST(Sweep, ClockSweepSlowerIsWorse) {
  traffic::PoissonSource source(1500, traffic::internet552_sizes(), 23);
  const auto trace = traffic::collect(source, 5.0);
  SweepOptions opt;
  opt.runs = 2;
  const auto points = sweep_cpu_clock(
      config_for(SynthMode::kConventional), trace, {20e6, 80e6}, opt);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_GT(points[0].mean.mean_latency, points[1].mean.mean_latency);
}

}  // namespace
}  // namespace ldlp::synth
