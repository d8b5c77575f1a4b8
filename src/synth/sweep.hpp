// Multi-run parameter sweeps over the synthetic stack.
//
// The paper averages 100 one-second runs per point, each with a fresh
// random memory layout (section 4). These helpers run that protocol for
// an arrival-rate sweep (Figures 5 and 6 share one sweep) and a CPU-clock
// sweep over a fixed arrival trace (Figure 7).
#pragma once

#include <cstdint>
#include <vector>

#include "synth/synth_stack.hpp"
#include "traffic/arrivals.hpp"

namespace ldlp::synth {

struct SweepPoint {
  double x = 0.0;     ///< Arrival rate (msgs/sec) or CPU clock (Hz).
  sim::Summary mean;  ///< Field-wise mean over runs.
};

struct SweepOptions {
  std::uint32_t runs = 100;        ///< Runs per point (fresh layout each).
  double run_seconds = 1.0;        ///< Horizon per run.
  std::uint64_t seed = 0x5eed;     ///< Master seed (layouts + arrivals).
};

/// Figures 5/6: Poisson arrivals of 552-byte messages, rate sweep.
[[nodiscard]] std::vector<SweepPoint> sweep_poisson_rates(
    const Stack& stack, const std::vector<double>& rates,
    const SweepOptions& options, const sim::Machine& base = {});

/// Figure 7: fixed arrival trace, CPU clock sweep. The trace is replayed
/// identically at every clock speed; only service times change.
[[nodiscard]] std::vector<SweepPoint> sweep_cpu_clock(
    const Stack& stack, const std::vector<traffic::PacketArrival>& trace,
    const std::vector<double>& clocks_hz, const SweepOptions& options);

/// Field-wise mean of the scalar results of several runs (latencies and
/// ratios are averaged over runs; counts are summed then divided — i.e.
/// also means; the maximum latency is the maximum).
[[nodiscard]] sim::Summary average(const std::vector<sim::Summary>& results);

}  // namespace ldlp::synth
