#include "par/shard_engine.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "stack/netdev.hpp"

namespace ldlp::par {
namespace {

// Disjoint address planes, far enough apart that no footprint crosses.
constexpr std::uint64_t kCodeBase = 0x0100'0000;
constexpr std::uint64_t kDataBase = 0x0800'0000;
constexpr std::uint64_t kMsgBase = 0x4000'0000;

constexpr std::uint64_t align_up(std::uint64_t n, std::uint64_t a) {
  return (n + a - 1) / a * a;
}

}  // namespace

sim::Summary run(const ShardedRx& rx, const sim::Machine& base) {
  LDLP_ASSERT(rx.shards >= 1 && rx.flows >= 1 && rx.arrival_rate_hz > 0.0);
  const core::StackFootprint& fp = rx.stack;

  // Shards are independent machines with private L1s and private queues;
  // the machine counts in cycles of the shard core clock.
  const double cycles_per_sec = base.clock_hz;
  sim::Machine m = base;
  m.clock_hz = 1.0;
  m.coalesce = base.coalesce * cycles_per_sec;
  if (m.batch_limit == 0)
    m.batch_limit = core::plan_shards(fp, m.memory.icache, m.memory.dcache,
                                      rx.shards)
                        .batch_limit;

  // Layer code is shared text; layer/flow data is per shard.
  const std::uint64_t code_stride = align_up(fp.layer_code_bytes, 64);
  const std::uint64_t data_stride =
      align_up(std::max<std::uint64_t>(fp.layer_data_bytes, 1), 64);
  const std::uint64_t msg_stride =
      align_up(std::max<std::uint64_t>(fp.message_bytes, 1), 64);
  sim::Station station;
  station.replicas = rx.shards;
  station.replica_stride = std::uint64_t{fp.num_layers} * data_stride;
  for (std::uint32_t layer = 0; layer < fp.num_layers; ++layer) {
    // One layer at a time across the whole batch (section 3.1).
    station.groups.push_back({sim::Step{
        sim::MemorySystem::kNoScope, kCodeBase + layer * code_stride,
        fp.layer_code_bytes, kDataBase + layer * data_stride,
        fp.layer_data_bytes, ~std::uint32_t{0}, rx.layer_cycles, 0.0}});
  }

  // Flow population: distinct client endpoints talking to one server —
  // the small-message server workload of section 4.
  const stack::FlowHash hash(rx.symmetric);
  std::vector<std::uint32_t> flow_shard(rx.flows);
  for (std::uint32_t f = 0; f < rx.flows; ++f) {
    // Client 10.0.x.y:10000+f to the server's port 53, over UDP.
    const stack::FlowKey key{0x0a000000u + f + 1, 0x0a00ffffu,
                             static_cast<std::uint16_t>(10000 + f), 53, 17};
    flow_shard[f] = hash(key) % rx.shards;
  }

  // Poisson arrivals over the flows; steer each to its flow's shard, into
  // the next slot of that shard's buffer ring.
  Rng rng(rx.seed);
  const double mean_gap_sec = 1.0 / rx.arrival_rate_hz;
  const std::uint64_t slots = std::max<std::uint32_t>(m.batch_limit, 1);
  std::vector<std::uint64_t> shard_arrivals(rx.shards);
  std::vector<sim::Arrival> arrivals;
  double now_sec = 0.0;
  for (std::uint64_t i = 0; i < rx.messages; ++i) {
    now_sec += rng.exponential(mean_gap_sec);
    const std::uint32_t s =
        flow_shard[static_cast<std::uint32_t>(rng.bounded(rx.flows))];
    const std::uint64_t slot = shard_arrivals[s]++ % slots;
    arrivals.push_back(sim::Arrival{now_sec * cycles_per_sec, fp.message_bytes,
                                    kMsgBase + (s * slots + slot) * msg_stride});
    station.steer.push_back(s);
  }
  m.stations = {std::move(station)};

  sim::Summary out = m.run(arrivals);
  for (double* t : {&out.mean_latency, &out.p50_latency, &out.p99_latency,
                    &out.max_latency, &out.end})
    *t /= cycles_per_sec;
  return out;
}

double max_shard_share(const sim::Summary& summary) noexcept {
  std::uint64_t busiest = 0;
  for (const sim::Load& shard : summary.contexts)
    busiest = std::max(busiest, shard.messages);
  const double fair = static_cast<double>(summary.offered) /
                      static_cast<double>(summary.contexts.size());
  return fair > 0.0 ? static_cast<double>(busiest) / fair : 1.0;
}

}  // namespace ldlp::par
