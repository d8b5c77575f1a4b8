// Extension: receive-side flow sharding (ldlp::par) under LDLP batching.
//
// The paper runs its whole receive path on one core behind one receive
// queue. Modern NICs hash flows over N receive queues (RSS), and each
// queue can drain on a core with its own primary cache. This sweep holds
// total offered load fixed and grows the shard count 1 -> 8, asking the
// two questions that decide whether sharding composes with LDLP:
//
//  1. Do per-shard i-cache misses stay no worse than the single-queue
//     LDLP baseline? (They must: layer code is shared text, and a shard
//     that still fills its batch limit amortises i-cache fills exactly
//     as well as the single queue did.)
//  2. What happens to latency? (Each shard drains 1/N of the load, so
//     queueing delay collapses even though per-message work is equal.)
//
// Also reports the Toeplitz load-balance quality (busiest shard's share
// of messages over the fair share) so a skewed hash shows up here rather
// than in production. Every number is a pure function of --seed; the
// regression gate pins a reduced version of this sweep.
//
// --jobs=N runs the sweep's shard-count points on a par::WorkerPool.
// Results land in point-indexed slots, so the output is bit-identical
// for every N.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "par/shard_engine.hpp"
#include "par/worker_pool.hpp"

int main(int argc, char** argv) {
  using namespace ldlp;
  benchutil::Flags flags(argc, argv);
  const std::uint64_t seed = flags.u64("seed", 0x5eed);
  const std::uint64_t flows = flags.u64("flows", 64);
  const std::uint64_t messages = flags.u64("messages", 20000);
  const double rate = static_cast<double>(flags.u64("rate", 16000));
  const std::uint64_t jobs = flags.u64("jobs", 1);
  const double rx_usecs = static_cast<double>(flags.u64("rx_usecs", 750));

  benchutil::BenchReport report("ext_shard_sweep", flags);
  flags.reject_unread();
  report.config_u64("seed", seed);
  report.config_u64("flows", flows);
  report.config_u64("messages", messages);
  report.config_u64("rate", static_cast<std::uint64_t>(rate));
  report.config_u64("rx_usecs", static_cast<std::uint64_t>(rx_usecs));

  const std::vector<std::uint32_t> shard_counts = {1, 2, 4, 8};
  const double coalesce[2] = {0.0, rx_usecs * 1e-6};
  // 2 modes x 4 shard counts, point-indexed so output is --jobs-invariant.
  std::vector<sim::Summary> results(2 * shard_counts.size());

  par::WorkerPool pool(static_cast<std::size_t>(jobs));
  pool.run(results.size(), [&](std::size_t point, par::WorkerContext&) {
    par::ShardedRx rx;
    rx.shards = shard_counts[point % shard_counts.size()];
    rx.flows = static_cast<std::uint32_t>(flows);
    rx.messages = messages;
    rx.arrival_rate_hz = rate;
    rx.seed = seed;
    sim::Machine machine;
    machine.coalesce = coalesce[point / shard_counts.size()];
    results[point] = par::run(rx, machine);
  });

  for (int mode = 0; mode < 2; ++mode) {
    // Each mode's own single-queue run is its LDLP baseline.
    const double single_queue_i = static_cast<double>(
        results[static_cast<std::size_t>(mode) * shard_counts.size()]
            .contexts[0]
            .i_misses);
    benchutil::heading(
        mode == 0
            ? "Flow-sharded LDLP receive, pure polling, equal total load"
            : "Same sweep with receive coalescing (the NIC rx-usecs knob)");
    std::printf("%6s | %6s %6s | %6s %5s | %11s %11s | %9s %6s\n", "shards",
                "i/msg", "d/msg", "batch", "limit", "mean lat", "p99 lat",
                "sh.imiss", "skew");
    for (std::size_t i = 0; i < shard_counts.size(); ++i) {
      const sim::Summary& r =
          results[static_cast<std::size_t>(mode) * shard_counts.size() + i];
      const double share = par::max_shard_share(r);
      std::uint64_t max_i = 0;
      for (const sim::Load& s : r.contexts)
        max_i = std::max(max_i, s.i_misses);
      std::printf("%6u | %6.1f %6.2f | %6.2f %5u | %11s %11s | %9llu %5.2fx\n",
                  shard_counts[i], r.i_miss_per_msg, r.d_miss_per_msg,
                  r.mean_batch, r.batch_limit,
                  benchutil::fmt_latency(r.mean_latency).c_str(),
                  benchutil::fmt_latency(r.p99_latency).c_str(),
                  static_cast<unsigned long long>(max_i), share);
      const std::string key = std::string(mode == 0 ? "poll" : "coal") + "@" +
                              std::to_string(shard_counts[i]);
      report.metric("i_miss_per_msg." + key, r.i_miss_per_msg);
      report.metric("d_miss_per_msg." + key, r.d_miss_per_msg);
      report.metric("mean_latency_sec." + key, r.mean_latency);
      report.metric("p99_latency_sec." + key, r.p99_latency);
      report.metric("mean_batch." + key, r.mean_batch);
      report.metric("max_shard_share." + key, share);
      // The acceptance line: the busiest shard's i-cache miss count vs the
      // single-queue LDLP baseline at the same total load (<= 1 passes).
      report.metric("max_shard_i_miss_ratio." + key,
                    static_cast<double>(max_i) / single_queue_i);
    }
  }

  std::printf(
      "\nReading: `sh.imiss` is the busiest shard's i-cache miss count.\n"
      "Sharding alone is not free: splitting the load thins each queue, so\n"
      "under pure polling the batches collapse toward 1 and the busiest\n"
      "shard can miss MORE than the single queue did — LDLP's amortisation\n"
      "is what sharding spends. A modest coalescing window (rx-usecs)\n"
      "buys it back: batches refill (compare `batch` across the tables),\n"
      "every shard's miss count drops below its single-queue baseline,\n"
      "and the latency cost is bounded by the window while each shard's\n"
      "private d-cache now holds only its own flows. Skew is the busiest\n"
      "shard's message share over the fair share; the Toeplitz hash keeps\n"
      "it near 1 once flows outnumber shards by a few x.\n");
  report.write();
  return 0;
}
