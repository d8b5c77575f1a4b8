// Ablation C: sensitivity to the enqueue/dequeue cost.
//
// Section 3.2 estimates ~40 instructions per queue hand-off. This sweep
// shows how much headroom the technique has: even at 4x the estimated
// cost, LDLP's miss savings dominate at heavy load; the cost matters most
// at light load where batches are ~1 and the queueing is pure overhead.
#include <cstdio>

#include "bench_util.hpp"
#include "synth/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ldlp;
  benchutil::Flags flags(argc, argv);
  synth::SweepOptions opt;
  opt.runs = static_cast<std::uint32_t>(flags.u64("runs", 20));
  opt.seed = flags.u64("seed", 0x5eed);
  benchutil::BenchReport report("ablation_queue_cost", flags);
  flags.reject_unread();
  report.config_u64("runs", opt.runs);
  report.config_u64("seed", opt.seed);

  benchutil::heading("Ablation: LDLP queue hand-off cost (cycles/msg/layer)");
  std::printf("%6s | %16s | %16s\n", "cost", "lat @1000 msg/s",
              "lat @8000 msg/s");
  for (const std::uint32_t cost : {0u, 20u, 40u, 80u, 160u}) {
    synth::Stack cfg;
    cfg.mode = synth::SynthMode::kLdlp;
    cfg.queue_cost_cycles = cost;
    const auto points = synth::sweep_poisson_rates(cfg, {1000, 8000}, opt);
    std::printf("%6u | %16s | %16s\n", cost,
                benchutil::fmt_latency(points[0].mean.mean_latency).c_str(),
                benchutil::fmt_latency(points[1].mean.mean_latency).c_str());
    const std::string c = std::to_string(cost);
    report.metric("ldlp.mean_latency_sec@1000.cost" + c,
                  points[0].mean.mean_latency);
    report.metric("ldlp.mean_latency_sec@8000.cost" + c,
                  points[1].mean.mean_latency);
  }

  // Reference: conventional at the same loads.
  synth::Stack conv;
  conv.mode = synth::SynthMode::kConventional;
  const auto pc = synth::sweep_poisson_rates(conv, {1000, 8000}, opt);
  std::printf("%6s | %16s | %16s  (conventional reference)\n", "-",
              benchutil::fmt_latency(pc[0].mean.mean_latency).c_str(),
              benchutil::fmt_latency(pc[1].mean.mean_latency).c_str());
  report.metric("conv.mean_latency_sec@1000", pc[0].mean.mean_latency);
  report.metric("conv.mean_latency_sec@8000", pc[1].mean.mean_latency);
  report.write();
  return 0;
}
