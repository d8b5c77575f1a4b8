#include "synth/sweep.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "traffic/size_models.hpp"

namespace ldlp::synth {

sim::Summary average(const std::vector<sim::Summary>& results) {
  sim::Summary mean;
  if (results.empty()) return mean;
  const auto n = static_cast<double>(results.size());
  for (const sim::Summary& r : results) {
    mean.offered += r.offered;
    mean.completed += r.completed;
    mean.dropped += r.dropped;
    mean.mean_latency += r.mean_latency / n;
    mean.p50_latency += r.p50_latency / n;
    mean.p99_latency += r.p99_latency / n;
    mean.max_latency = std::max(mean.max_latency, r.max_latency);
    mean.i_miss_per_msg += r.i_miss_per_msg / n;
    mean.d_miss_per_msg += r.d_miss_per_msg / n;
    mean.mean_batch += r.mean_batch / n;
  }
  mean.offered /= results.size();
  mean.completed /= results.size();
  mean.dropped /= results.size();
  mean.batch_limit = results.front().batch_limit;
  return mean;
}

std::vector<SweepPoint> sweep_poisson_rates(const Stack& stack,
                                            const std::vector<double>& rates,
                                            const SweepOptions& options,
                                            const sim::Machine& base) {
  LDLP_ASSERT(options.runs > 0 && options.run_seconds > 0.0);
  std::vector<SweepPoint> points;
  points.reserve(rates.size());
  Rng master(options.seed);
  for (const double rate : rates) {
    std::vector<sim::Summary> runs;
    runs.reserve(options.runs);
    for (std::uint32_t run_index = 0; run_index < options.runs; ++run_index) {
      Stack placed = stack;
      placed.layout_seed = master();
      traffic::PoissonSource source(rate, traffic::internet552_sizes(),
                                    master());
      runs.push_back(run(placed, source, options.run_seconds, base));
    }
    points.push_back(SweepPoint{rate, average(runs)});
  }
  return points;
}

std::vector<SweepPoint> sweep_cpu_clock(
    const Stack& stack, const std::vector<traffic::PacketArrival>& trace,
    const std::vector<double>& clocks_hz, const SweepOptions& options) {
  LDLP_ASSERT(options.runs > 0 && !trace.empty());
  std::vector<SweepPoint> points;
  points.reserve(clocks_hz.size());
  Rng master(options.seed);
  for (const double clock : clocks_hz) {
    std::vector<sim::Summary> runs;
    runs.reserve(options.runs);
    for (std::uint32_t run_index = 0; run_index < options.runs; ++run_index) {
      sim::Machine base;
      base.clock_hz = clock;
      Stack placed = stack;
      placed.layout_seed = master();
      traffic::TraceReplaySource source(trace);
      runs.push_back(run(placed, source, trace.back().time, base));
    }
    points.push_back(SweepPoint{clock, average(runs)});
  }
  return points;
}

}  // namespace ldlp::synth
