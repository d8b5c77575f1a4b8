// ldlp::par — real-thread parallel execution engine.
//
// Everything else in this repository is a deterministic simulation; par is
// the one place real std::thread concurrency enters, and it is built so
// that determinism survives the contact. The rules:
//
//   * Jobs are independent by construction (separate hosts, pools, seeds)
//     and write results only into job-indexed slots, so the result vector
//     is identical whatever the thread interleaving.
//   * Each job gets a private obs::Registry, job-indexed like its result
//     slot; merge_registries() folds them in job order, so the merged
//     snapshot — floating-point sums included — is the serial one for
//     --jobs 1 and --jobs 8 alike.
//   * Reporting happens after the barrier, on the caller's thread, in job
//     order — stdout and artifacts are bit-identical to a serial run.
//
// With workers <= 1 run() executes inline on the calling thread through
// the same code path, which is what makes "serial" a degenerate case of
// "parallel" rather than a second implementation to keep in sync.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"

namespace ldlp::par {

/// Execution context handed to every job.
struct WorkerContext {
  obs::Registry* registry = nullptr;  ///< This job's private registry.
};

/// A job: invoked with its job index and its context.
using Job = std::function<void(std::size_t job, WorkerContext&)>;

class WorkerPool {
 public:
  /// `workers` real threads; 0 and 1 both mean "inline on the caller".
  explicit WorkerPool(std::size_t workers);

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }

  /// Run jobs [0, count) to completion — returns only after every job has
  /// finished (the barrier). Jobs are claimed from a shared cursor, so
  /// which worker runs which job is scheduling-dependent; anything a job
  /// writes must therefore be job-indexed or go through its context
  /// registry. The first exception a job throws is rethrown here after
  /// the barrier.
  void run(std::size_t count, const Job& job);

  /// Merge the registries of every job run since the last merge into
  /// `target`, in job order, and drop them.
  void merge_registries(obs::Registry& target);

  /// Pool counters (par.pool.*) into `reg`: workers, jobs run, barriers.
  void publish(obs::Registry& reg) const;

 private:
  std::size_t workers_;
  // unique_ptr: an obs::Registry can be neither copied nor moved.
  std::vector<std::unique_ptr<obs::Registry>> registries_;
  std::uint64_t jobs_run_ = 0;
  std::uint64_t barriers_ = 0;
};

}  // namespace ldlp::par
