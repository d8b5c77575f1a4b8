#include "par/worker_pool.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace ldlp::par {

WorkerPool::WorkerPool(std::size_t workers)
    : workers_(workers == 0 ? 1 : workers) {}

void WorkerPool::run(std::size_t count, const Job& job) {
  ++barriers_;
  jobs_run_ += count;
  // Registries of earlier unmerged runs stay in front, in job order.
  const std::size_t base = registries_.size();
  for (std::size_t j = 0; j < count; ++j)
    registries_.push_back(std::make_unique<obs::Registry>());
  const auto run_job = [&](std::size_t j) {
    WorkerContext ctx{registries_[base + j].get()};
    job(j, ctx);
  };
  if (workers_ <= 1) {
    for (std::size_t j = 0; j < count; ++j) run_job(j);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  std::vector<std::thread> threads;
  threads.reserve(workers_);
  for (std::size_t w = 0; w < workers_; ++w) {
    threads.emplace_back([&] {
      for (std::size_t j = cursor.fetch_add(1, std::memory_order_relaxed);
           j < count; j = cursor.fetch_add(1, std::memory_order_relaxed)) {
        try {
          run_job(j);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
          return;  // this worker stops; others drain the remaining jobs
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void WorkerPool::merge_registries(obs::Registry& target) {
  for (const auto& reg : registries_) target.merge(*reg);
  registries_.clear();
}

void WorkerPool::publish(obs::Registry& reg) const {
  reg.gauge("par.pool.workers").set(static_cast<double>(workers_));
  reg.counter("par.pool.jobs").set(jobs_run_);
  reg.counter("par.pool.barriers").set(barriers_);
}

}  // namespace ldlp::par
