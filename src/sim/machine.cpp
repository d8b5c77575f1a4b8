#include "sim/machine.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/stats.hpp"

namespace ldlp::sim {
namespace {

struct Visit {  ///< A message arriving at, or leaving, a station.
  double time = 0.0;
  std::uint32_t id = 0;  ///< Index into the arrival trace.
};

}  // namespace

Summary Machine::run(std::span<const Arrival> arrivals) const {
  LDLP_ASSERT(!stations.empty() && clock_hz > 0.0);
  Summary out;
  out.offered = arrivals.size();
  out.batch_limit = batch_limit;
  std::size_t contexts = 0;
  for (const Station& st : stations) contexts += st.replicas;
  out.contexts.resize(contexts);
  const auto scope_load = [&](std::uint32_t scope) -> Load* {
    if (scope == MemorySystem::kNoScope) return nullptr;
    if (scope >= out.scopes.size()) out.scopes.resize(scope + 1);
    return &out.scopes[scope];
  };
  MemorySystem mem(memory);
  mem.set_context_count(contexts);
  const std::size_t limit = batch_limit != 0 ? batch_limit : SIZE_MAX;

  std::vector<std::uint64_t> buffer(arrivals.size());
  std::vector<Visit> in(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    buffer[i] = arrivals[i].buffer;
    in[i] = Visit{arrivals[i].time, static_cast<std::uint32_t>(i)};
  }
  std::size_t ctx = 0;
  std::vector<Visit> mine;
  std::vector<std::size_t> queue;  // positions in `mine`, served from head
  std::vector<std::uint32_t> batch;
  for (const Station& st : stations) {
    // Drops and the activation cost belong to the station's entry scope.
    LDLP_ASSERT(st.replicas >= 1 && !st.groups.empty() &&
                !st.groups.front().empty() &&
                (st.steer.empty() || st.steer.size() == in.size()));
    const std::uint32_t entry = st.groups.front().front().scope;
    std::vector<Visit> departed;
    for (std::uint32_t r = 0; r < st.replicas; ++r, ++ctx) {
      mine.clear();
      for (std::size_t i = 0; i < in.size(); ++i)
        if ((st.steer.empty() ? 0 : st.steer[i]) == r) mine.push_back(in[i]);
      mem.set_context(ctx);
      Load& load = out.contexts[ctx];
      const bool pooled = !st.buffers.empty();
      std::vector<std::uint64_t> free(st.buffers.rbegin(), st.buffers.rend());
      queue.clear();
      std::size_t head = 0;
      std::size_t next = 0;
      double now = 0.0;
      // Arrivals up to `upto` join the queue in order, or are dropped.
      const auto admit = [&](double upto) {
        for (; next < mine.size() && mine[next].time <= upto; ++next) {
          if ((queue_limit != 0 && queue.size() - head >= queue_limit) ||
              (pooled && free.empty())) {
            ++load.drops;
            if (Load* s = scope_load(entry)) ++s->drops;
            continue;
          }
          if (pooled) {
            buffer[mine[next].id] = free.back();
            free.pop_back();
          }
          queue.push_back(next);
        }
      };

      while (next < mine.size() || head < queue.size()) {
        if (head == queue.size()) {  // idle and empty: wait for work
          now = std::max(now, mine[next].time);
          admit(now);
          continue;
        }
        if (coalesce > 0.0) {
          // Open when the batch is full or the oldest has waited it out.
          const std::size_t oldest = queue[head];
          double open = mine[oldest].time + coalesce;
          if (limit <= mine.size() - oldest)
            open = std::min(open, mine[oldest + limit - 1].time);
          if (now < open) admit(now = open);
        }
        batch.clear();
        for (; head < queue.size() && batch.size() < limit; ++head)
          batch.push_back(mine[queue[head]].id);

        std::uint64_t cycles = activation_cycles;
        if (Load* s = scope_load(entry)) s->busy_cycles += activation_cycles;
        for (const auto& group : st.groups) {
          for (const Step& step : group)
            if (Load* s = scope_load(step.scope)) ++s->batches;
          for (const std::uint32_t id : batch) {
            for (const Step& step : group) {
              mem.set_scope(step.scope);
              const std::uint32_t bytes =
                  std::min(arrivals[id].bytes, step.touch_bytes);
              // Code, then private data, then the message: three
              // statements, because the order of cache accesses matters.
              std::uint64_t c =
                  mem.access(Access::kIFetch, step.code, step.code_bytes);
              c += mem.access(Access::kRead, step.data + r * st.replica_stride,
                              step.data_bytes);
              c += mem.access(Access::kRead, buffer[id], bytes) + step.cycles +
                   static_cast<std::uint64_t>(
                       std::llround(step.cycles_per_byte * bytes));
              cycles += c;
              if (Load* s = scope_load(step.scope)) {
                ++s->messages;
                s->busy_cycles += c;
              }
            }
            cycles += handoff_cycles;
            if (Load* s = scope_load(group.back().scope))
              s->busy_cycles += handoff_cycles;
          }
        }
        ++load.batches;
        load.messages += batch.size();
        load.busy_cycles += cycles;
        const double end = now + static_cast<double>(cycles) / clock_hz;
        admit(end);  // arrivals during service see the growing backlog
        now = end;
        for (const std::uint32_t id : batch) {
          departed.push_back(Visit{end, id});
          if (pooled) free.push_back(buffer[id]);
        }
      }
    }
    if (st.replicas > 1)
      std::stable_sort(
          departed.begin(), departed.end(),
          [](const Visit& a, const Visit& b) { return a.time < b.time; });
    in = std::move(departed);
  }

  RunningStats stats;
  std::vector<double> latency;
  for (const Visit& v : in) {
    latency.push_back(v.time - arrivals[v.id].time);
    stats.add(latency.back());
    out.end = std::max(out.end, v.time);
  }
  out.completed = in.size();
  out.dropped = out.offered - out.completed;
  if (!latency.empty()) {
    std::sort(latency.begin(), latency.end());
    const std::size_t n = latency.size();
    out.mean_latency = stats.mean();
    out.max_latency = stats.max();
    out.p50_latency = latency[n / 2];
    out.p99_latency = latency[std::min(
        n - 1, static_cast<std::size_t>(0.99 * static_cast<double>(n)))];
  }

  Load total;
  for (std::size_t c = 0; c < contexts; ++c) {
    Load& load = out.contexts[c];
    load.i_misses = mem.icache_of(c).stats().misses;
    load.d_misses = mem.dcache_of(c).stats().misses;
    total.i_misses += load.i_misses;
    total.d_misses += load.d_misses;
    total.messages += load.messages;
    total.batches += load.batches;
    out.busy_cycles += load.busy_cycles;
  }
  // Every step registers its scope before it touches memory.
  const auto& scope_misses = mem.scope_misses();
  for (std::size_t s = 0; s < scope_misses.size(); ++s) {
    out.scopes[s].i_misses = scope_misses[s].i_misses;
    out.scopes[s].d_misses = scope_misses[s].d_misses;
  }
  if (out.completed != 0) {
    const auto n = static_cast<double>(out.completed);
    out.i_miss_per_msg = static_cast<double>(total.i_misses) / n;
    out.d_miss_per_msg = static_cast<double>(total.d_misses) / n;
  }
  if (total.batches != 0)
    out.mean_batch = static_cast<double>(total.messages) /
                     static_cast<double>(total.batches);
  return out;
}

}  // namespace ldlp::sim
