// Ablation F: layer grouping vs cache size (paper section 6).
//
// The §6 procedure — measure per-layer working sets, then group layers so
// each group's code is cache-co-resident — sits between the paper's two
// extremes (group=1 is pure LDLP; one all-layer group is the conventional
// order inside a batch). Two lessons fall out of the sweep:
//
//  1. Grouping only pays when the group really is conflict-free. Under
//     direct-mapped caches with uncontrolled placement, two 6 KB layers
//     conflict somewhere almost surely, and a conflicting group thrashes
//     *per message* — worse than not grouping. (This is why the paper's
//     on-line LDLP schedules single layers on its direct-mapped machine.)
//     The bench therefore runs 4-way caches, standing in for the layout
//     control (Cord) the paper assumes within a layer.
//
//  2. Even associative caches cannot be filled to the brim: individual
//     sets overflow first. core::plan_groups leaves a 25% margin.
#include <cstdio>

#include "bench_util.hpp"
#include "core/grouping.hpp"
#include "synth/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ldlp;
  benchutil::Flags flags(argc, argv);
  synth::SweepOptions opt;
  opt.runs = static_cast<std::uint32_t>(flags.u64("runs", 15));
  opt.seed = flags.u64("seed", 0x5eed);
  const double rate = flags.f64("rate", 8000.0);
  benchutil::BenchReport report("ablation_grouping", flags);
  flags.reject_unread();
  report.config_u64("runs", opt.runs);
  report.config_u64("seed", opt.seed);
  report.config("rate", std::to_string(rate));

  auto config_for = [&](std::uint32_t group) {
    synth::Stack cfg;
    cfg.mode = synth::SynthMode::kLdlp;
    cfg.layers_per_group = group;
    return cfg;
  };
  auto machine_for = [&](std::uint32_t kb) {
    sim::Machine machine;
    machine.memory.icache.size_bytes = kb * 1024;
    machine.memory.icache.ways = 4;
    machine.memory.dcache.ways = 4;
    return machine;
  };

  benchutil::heading(
      "Ablation: LDLP layer grouping vs I-cache size (4-way caches)");
  std::printf("(%u runs per cell, %.0f msgs/s; 5 layers x 6 KB code)\n\n",
              opt.runs, rate);
  std::printf("%9s |", "icache");
  for (std::uint32_t group = 1; group <= 5; ++group)
    std::printf("    group=%u", group);
  std::printf(" | auto plan\n");

  for (const std::uint32_t kb : {8u, 16u, 32u, 64u}) {
    std::printf("%8uK |", kb);
    const sim::Machine machine = machine_for(kb);
    for (std::uint32_t group = 1; group <= 5; ++group) {
      const auto points =
          synth::sweep_poisson_rates(config_for(group), {rate}, opt, machine);
      std::printf(" %10s",
                  benchutil::fmt_latency(points.front().mean.mean_latency)
                      .c_str());
      report.metric("mean_latency_sec@" + std::to_string(kb) + "kb.group" +
                        std::to_string(group),
                    points.front().mean.mean_latency);
    }
    // The automatic §6 plan for this cache size.
    const auto cfg = config_for(0);
    const auto plan = synth::groups(cfg, machine.memory.icache);
    const auto points = synth::sweep_poisson_rates(cfg, {rate}, opt, machine);
    report.metric("mean_latency_sec@" + std::to_string(kb) + "kb.auto",
                  points.front().mean.mean_latency);
    std::printf(" | %9s (",
                benchutil::fmt_latency(points.front().mean.mean_latency)
                    .c_str());
    for (std::size_t i = 0; i < plan.size(); ++i)
      std::printf("%s%u", i != 0 ? "+" : "", plan[i]);
    std::printf(")\n");
  }
  std::printf(
      "\nReading the table: on the paper's 8 KB machine only one layer fits\n"
      "-> pure LDLP is right; at 16 KB pairing layers is slightly better\n"
      "(half the queue hand-offs, message data loaded per group); at 32 KB\n"
      "groups of up to four win; five layers in 32 KB overflows sets and\n"
      "collapses. The auto plan tracks the optimum through 32 KB; the\n"
      "64 KB row shows the limit of an aggregate-capacity margin — five\n"
      "randomly placed regions still overload a few sets, so a planner\n"
      "with layout control (or a per-set conflict model) could do ~20%%\n"
      "better there.\n");
  report.write();
  return 0;
}
