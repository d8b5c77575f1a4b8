// Tail-at-scale RPC fan-out over the fleet fabric.
//
// A client host fans each small-message request to N server hosts and the
// request completes when the *slowest* reply lands — so the user-visible
// latency is the max of N samples and the figure that matters is p99/p999,
// not the mean the source paper optimizes. This sweep runs the workload at
// N in {1, 4, 16, 64} under both scheduling modes and prints mean vs tail
// side by side: where LDLP layer-blocked batching pays for its queueing
// delay at the tail, and where amortized per-message cost wins it back.
//
// Arrivals are open-loop self-similar (ldlp::traffic ON/OFF Pareto
// superposition; --poisson falls back to memoryless), transport is RPC
// over UDP with client-owned retransmit timers (--transport=tcp switches
// to RFC 1831 record framing over persistent connections). Every number
// is a pure function of the flags; --jobs=N runs the (mode, N) cells on a
// par::WorkerPool with cell-indexed result slots, so the report and the
// BENCH_tail_fanout.json emission are bit-identical for every N.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "rpc/fanout.hpp"

int main(int argc, char** argv) {
  using namespace ldlp;
  benchutil::Flags flags(argc, argv);

  rpc::TailSweepConfig sweep;
  sweep.base.requests = flags.u64("requests", 400);
  sweep.base.rate_per_sec = flags.f64("rate", 200.0);
  sweep.base.seed = flags.u64("seed", 1);
  sweep.base.self_similar = !flags.flag("poisson");
  const char* transport = flags.str("transport", "udp");
  if (std::strcmp(transport, "tcp") == 0)
    sweep.base.fanout_cfg.transport = rpc::FanoutTransport::kTcp;
  const std::uint64_t jobs = flags.u64("jobs", 1);
  const bool write_json = !flags.flag("no_json");
  const char* dir = flags.str("out_dir", ".");
  flags.reject_unread();

  const obs::BenchResult result =
      rpc::run_tail_sweep(sweep, static_cast<std::size_t>(jobs));
  const auto m = [&result](const std::string& key) {
    return result.metric(key).value_or(0.0);
  };

  benchutil::heading(
      "Tail-at-scale fan-out: response time = max of N RPC replies");
  std::printf("  transport=%s  requests=%zu  rate=%.0f/s  arrivals=%s  "
              "seed=%llu\n",
              rpc::transport_name(sweep.base.fanout_cfg.transport),
              sweep.base.requests, sweep.base.rate_per_sec,
              sweep.base.self_similar ? "self-similar" : "poisson",
              static_cast<unsigned long long>(sweep.base.seed));
  std::printf("\n  %4s %5s | %11s %11s %11s %11s | %6s\n", "mode", "N",
              "mean", "p99", "p999", "p9999", "rexmt");
  for (const core::SchedMode mode : sweep.modes) {
    const char* tag = mode == core::SchedMode::kLdlp ? "ldlp" : "conv";
    for (const std::size_t n : sweep.fanouts) {
      const std::string key = std::string(tag) + ".n" + std::to_string(n);
      std::printf("  %4s %5zu | %s %s %s %s | %6.0f\n", tag, n,
                  benchutil::fmt_latency(m(key + ".mean_sec"))
                      .c_str(),
                  benchutil::fmt_latency(m(key + ".p99_sec"))
                      .c_str(),
                  benchutil::fmt_latency(m(key + ".p999_sec"))
                      .c_str(),
                  benchutil::fmt_latency(m(key + ".p9999_sec"))
                      .c_str(),
                  m(key + ".retransmits"));
    }
  }

  benchutil::heading("LDLP vs per-message processing, tail amplification");
  std::printf("  %5s | %12s %12s | %12s %12s\n", "N", "mean ratio",
              "p99 ratio", "p999 ratio", "p9999 ratio");
  for (const std::size_t n : sweep.fanouts) {
    const std::string ln = "ldlp.n" + std::to_string(n);
    const std::string cn = "conv.n" + std::to_string(n);
    const auto ratio = [&](const char* stat) {
      const double conv = m(cn + "." + stat);
      return conv > 0.0 ? m(ln + "." + stat) / conv : 0.0;
    };
    std::printf("  %5zu | %12.3f %12.3f | %12.3f %12.3f\n", n,
                ratio("mean_sec"), ratio("p99_sec"), ratio("p999_sec"),
                ratio("p9999_sec"));
  }

  if (write_json) {
    if (!result.write_file(dir)) {
      std::fprintf(stderr, "warning: failed to write %s/%s\n", dir,
                   result.file_name().c_str());
      return 1;
    }
    std::printf("\nwrote %s/%s\n", dir, result.file_name().c_str());
  }
  return 0;
}
