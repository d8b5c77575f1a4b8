#include "pipe/stage_engine.hpp"

namespace ldlp::pipe {

namespace {

// Disjoint address planes, as in the shard layout: stage code is shared
// text, stage data is per-stage state, message buffers live in a slot
// ring. The four code planes are 64 KB apart, so in a direct-mapped 8 KB
// i-cache they all fold onto the same index range — a single LDLP core
// cannot keep 16.5 KB of stage code resident, while four per-stage
// contexts keep their own ~3-7 KB each trivially. The slot stride is a
// non-power-of-two multiple of the line size so consecutive in-flight
// messages spread across the d-cache index space.
constexpr std::uint64_t kCodeBase = 0x0100'0000;
constexpr std::uint64_t kCodePlane = 64 * 1024;
constexpr std::uint64_t kDataBase = 0x0800'0000;
constexpr std::uint64_t kMsgBase = 0x4000'0000;
constexpr std::uint64_t kMsgSlotBytes = 2176;
constexpr std::uint64_t kMsgSlots = 64;

/// Figure 1's rx-path code folded into four stages — driver+eth glue into
/// parse, the demux/hash into steer, ip+tcp input into proto, sbappend/
/// sowakeup into socket. Each fits an 8 KB i-cache alone; the sum
/// (16.5 KB) does not. Stage data is packed so the tables coexist in one
/// 8 KB d-cache (1.3 KB); every stage reads the whole message and runs a
/// 0.5 cycle/byte payload loop (checksum + copy).
constexpr std::uint32_t kAll = ~std::uint32_t{0};
constexpr sim::Step kStages[kStageCount] = {
    // scope, code, code bytes, data, data bytes, touch, cycles, per byte
    {0, kCodeBase, 3 * 1024, kDataBase, 160, kAll, 300, 0.5},  // parse
    {1, kCodeBase + kCodePlane, 1536, kDataBase + 160, 256, kAll, 120,
     0.5},  // steer
    {2, kCodeBase + 2 * kCodePlane, 7 * 1024, kDataBase + 416, 640, kAll, 900,
     0.5},  // proto
    {3, kCodeBase + 3 * kCodePlane, 5 * 1024, kDataBase + 1056, 256, kAll,
     420, 0.5},  // socket
};

}  // namespace

sim::Machine machine(RxMode mode, std::uint32_t batch_limit) {
  sim::Machine m;
  m.activation_cycles = 250;
  m.handoff_cycles = 40;
  m.queue_limit = 512;
  m.batch_limit = mode == RxMode::kPipelined ? 1 : batch_limit;
  if (mode == RxMode::kLdlp) {
    // One core: a wakeup per batch, then the stages as layer groups.
    auto& stages = m.stations.emplace_back().groups;
    for (const sim::Step& stage : kStages) stages.push_back({stage});
  } else {
    // An open tandem of four single-server stages, one core each.
    for (const sim::Step& stage : kStages)
      m.stations.emplace_back().groups = {{stage}};
  }
  return m;
}

std::vector<sim::Arrival> arrivals(
    std::span<const traffic::PacketArrival> trace) {
  std::vector<sim::Arrival> out;
  out.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i)
    out.push_back(sim::Arrival{
        trace[i].time, trace[i].size_bytes,
        kMsgBase + 2048 + (i % kMsgSlots) * kMsgSlotBytes});
  return out;
}

}  // namespace ldlp::pipe
