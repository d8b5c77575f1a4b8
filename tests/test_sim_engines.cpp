// Characterisation golden for sim::Machine: every result field of the
// three stacks laid out on it — the synthetic stack, the flow-sharded
// receive path and the staged receive path — on a fixed set of cases,
// written at full precision to tests/golden/sim_engines.json. The file
// pins the engine bit for bit; the benchmark gates only compare within 5 %.
//
// Regenerate after an intentional model change with
//   LDLP_UPDATE_GOLDEN=1 ./build/tests/test_sim_engines
// and commit the diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "obs/json.hpp"
#include "par/shard_engine.hpp"
#include "pipe/stage_engine.hpp"
#include "sim/machine.hpp"
#include "synth/synth_stack.hpp"
#include "traffic/self_similar.hpp"
#include "traffic/size_models.hpp"

#ifndef LDLP_GOLDEN_DIR
#define LDLP_GOLDEN_DIR "tests/golden"
#endif

namespace {

using namespace ldlp;
using obs::Json;

Json num(double v) { return Json(v); }
Json count(std::uint64_t v) { return Json(v); }
Json object(std::initializer_list<std::pair<const char*, Json>> fields) {
  Json j = Json::object();
  for (const auto& [key, value] : fields) j.set(key, value);
  return j;
}

Json synth_case(const synth::Stack& stack, double rate,
                const sim::Machine& base = {}) {
  traffic::PoissonSource source(rate, traffic::internet552_sizes(), 42);
  const double horizon = 0.2;
  const sim::Summary r = synth::run(stack, source, horizon, base);
  return object(
      {{"offered", count(r.offered)},
       {"completed", count(r.completed)},
       {"dropped", count(r.dropped)},
       {"mean_latency_sec", num(r.mean_latency)},
       {"p50_latency_sec", num(r.p50_latency)},
       {"p99_latency_sec", num(r.p99_latency)},
       {"max_latency_sec", num(r.max_latency)},
       {"i_misses_per_msg", num(r.i_miss_per_msg)},
       {"d_misses_per_msg", num(r.d_miss_per_msg)},
       {"mean_batch", num(r.mean_batch)},
       {"busy_fraction", num(static_cast<double>(r.busy_cycles) /
                             base.clock_hz / std::max(r.end, horizon))},
       {"batch_limit", count(r.batch_limit)}});
}

Json synth_cases() {
  Json out = Json::object();
  const std::pair<const char*, synth::SynthMode> modes[] = {
      {"conv", synth::SynthMode::kConventional},
      {"ilp", synth::SynthMode::kIlp},
      {"ldlp", synth::SynthMode::kLdlp}};
  for (const auto& [name, mode] : modes) {
    for (const double rate : {3000.0, 8000.0}) {
      synth::Stack stack;
      stack.mode = mode;
      out.set(std::string(name) + "@" + std::to_string(int(rate)),
              synth_case(stack, rate));
    }
  }
  synth::Stack duplex;
  duplex.mode = synth::SynthMode::kLdlp;
  duplex.duplex = true;
  out.set("ldlp.duplex@3000", synth_case(duplex, 3000.0));
  synth::Stack grouped;
  grouped.mode = synth::SynthMode::kLdlp;
  grouped.layers_per_group = 0;
  sim::Machine big_icache;
  big_icache.memory.icache.size_bytes = 16 * 1024;
  out.set("ldlp.auto_groups@8000", synth_case(grouped, 8000.0, big_icache));
  return out;
}

Json shard_cases() {
  Json out = Json::object();
  for (const std::uint32_t shards : {1u, 4u}) {
    for (const double coalesce : {0.0, 750e-6}) {
      par::ShardedRx rx;
      rx.shards = shards;
      rx.messages = 3000;
      rx.arrival_rate_hz = 16000.0;
      rx.symmetric = true;
      sim::Machine base;
      base.coalesce = coalesce;
      const sim::Summary r = par::run(rx, base);
      Json per_shard = Json::array();
      std::uint64_t max_shard_messages = 0;
      for (const sim::Load& s : r.contexts) {
        per_shard.push_back(object({{"messages", count(s.messages)},
                                    {"batches", count(s.batches)},
                                    {"i_misses", count(s.i_misses)},
                                    {"d_misses", count(s.d_misses)}}));
        max_shard_messages = std::max(max_shard_messages, s.messages);
      }
      out.set(std::string(coalesce == 0.0 ? "poll" : "coal") + "@" +
                  std::to_string(shards),
              object({{"shards", per_shard},
                      {"batch_limit", count(r.batch_limit)},
                      {"mean_latency_sec", num(r.mean_latency)},
                      {"p99_latency_sec", num(r.p99_latency)},
                      {"mean_batch", num(r.mean_batch)},
                      {"i_miss_per_msg", num(r.i_miss_per_msg)},
                      {"d_miss_per_msg", num(r.d_miss_per_msg)},
                      {"max_shard_messages", count(max_shard_messages)},
                      {"max_shard_share", num(par::max_shard_share(r))}}));
    }
  }
  return out;
}

Json stage_case(pipe::RxMode mode, double rate, std::size_t queue_cap) {
  traffic::SelfSimilarConfig tc;
  tc.mean_rate_per_sec = rate;
  tc.duration_sec = 0.2;
  const auto sizes = traffic::internet552_sizes();
  const auto trace = traffic::generate_self_similar_trace(tc, *sizes, 0x51a6);
  sim::Machine machine = pipe::machine(mode, 8);
  machine.queue_limit = queue_cap;
  const sim::Summary r = machine.run(pipe::arrivals(trace));
  Json stages = Json::array();
  for (const sim::Load& s : r.scopes)
    stages.push_back(object({{"messages", count(s.messages)},
                             {"activations", count(s.batches)},
                             {"i_misses", count(s.i_misses)},
                             {"d_misses", count(s.d_misses)},
                             {"drops", count(s.drops)},
                             {"busy_cycles", count(s.busy_cycles)}}));
  return object({{"stages", stages},
                 {"offered", count(r.offered)},
                 {"completed", count(r.completed)},
                 {"dropped", count(r.dropped)},
                 {"i_miss_per_msg", num(r.i_miss_per_msg)},
                 {"d_miss_per_msg", num(r.d_miss_per_msg)},
                 {"mean_latency_sec", num(r.mean_latency)},
                 {"p50_latency_sec", num(r.p50_latency)},
                 {"p99_latency_sec", num(r.p99_latency)},
                 {"mean_batch", num(r.mean_batch)},
                 {"span_sec", num(r.end - trace.front().time)}});
}

Json stage_cases() {
  Json out = Json::object();
  const pipe::RxMode modes[] = {pipe::RxMode::kLdlp, pipe::RxMode::kPipelined,
                                pipe::RxMode::kHybrid};
  for (const pipe::RxMode mode : modes)
    out.set(std::string(pipe::rx_mode_name(mode)) + "@15000",
            stage_case(mode, 15000.0, 512));
  // A queue cap small enough that every stage queue overflows.
  out.set("pipelined.cap8@48000",
          stage_case(pipe::RxMode::kPipelined, 48000.0, 8));
  out.set("ldlp.cap8@48000", stage_case(pipe::RxMode::kLdlp, 48000.0, 8));
  return out;
}

TEST(SimEnginesGolden, ResultsMatchGoldenFile) {
  // One line per case: a drift names its case in the diff.
  const std::pair<std::string, Json> sections[] = {
      {"synth", synth_cases()}, {"shard", shard_cases()},
      {"stage", stage_cases()}};
  std::string text = "{";
  std::string sep = "\n";
  for (const auto& [section, cases] : sections) {
    text += sep + "  \"" + section + "\": {";
    std::string inner = "\n";
    for (const auto& [name, result] : cases.members()) {
      text += inner + "    \"" + name + "\": " + result.dump();
      inner = ",\n";
    }
    text += "\n  }";
    sep = ",\n";
  }
  text += "\n}\n";
  const std::string path = std::string(LDLP_GOLDEN_DIR) + "/sim_engines.json";

  if (std::getenv("LDLP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good()) << "could not rewrite " << path;
    GTEST_SKIP() << "golden file updated";
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with LDLP_UPDATE_GOLDEN=1";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), text)
      << "engine results drifted; if intentional, regenerate with "
         "LDLP_UPDATE_GOLDEN=1 test_sim_engines and commit the diff";
}

}  // namespace
