#include "synth/synth_stack.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/grouping.hpp"
#include "sim/address_space.hpp"

namespace ldlp::synth {

std::vector<std::uint32_t> groups(const Stack& stack,
                                  const sim::CacheConfig& icache) {
  const core::StackFootprint& fp = stack.footprint;
  if (stack.layers_per_group == 0)
    return core::plan_groups(
        std::vector<std::uint32_t>(fp.num_layers, fp.layer_code_bytes),
        icache.size_bytes);
  std::vector<std::uint32_t> out;
  for (std::uint32_t remaining = fp.num_layers; remaining != 0;) {
    const std::uint32_t take = std::min(stack.layers_per_group, remaining);
    out.push_back(take);
    remaining -= take;
  }
  return out;
}

sim::Machine machine(const Stack& stack, sim::Machine base) {
  const core::StackFootprint& fp = stack.footprint;
  LDLP_ASSERT(fp.num_layers > 0 && stack.buffer_limit > 0);
  const bool ldlp = stack.mode == SynthMode::kLdlp;
  if (!ldlp) {
    base.batch_limit = 1;
  } else if (base.batch_limit == 0) {
    base.batch_limit = core::estimate_blocking(fp, base.memory.icache,
                                               base.memory.dcache)
                           .batch_limit;
  }
  base.handoff_cycles = ldlp ? stack.queue_cost_cycles : 0;

  // Random placement per run (paper: "100 runs, each with a different
  // random placement in memory"), code and data in disjoint spaces sized
  // so the direct-mapped caches still see realistic conflicts.
  Rng rng(stack.layout_seed);
  sim::AddressSpace code_space(1ull << 24, 32);
  sim::AddressSpace data_space(1ull << 24, 32);
  std::vector<std::uint64_t> rx_code, tx_code, data;
  for (std::uint32_t i = 0; i < fp.num_layers; ++i) {
    const std::string layer = "L" + std::to_string(i);
    rx_code.push_back(
        code_space.allocate(layer + ".text", fp.layer_code_bytes, rng).base);
    data.push_back(
        data_space.allocate(layer + ".data", fp.layer_data_bytes, rng).base);
    if (stack.duplex)
      tx_code.push_back(
          code_space.allocate(layer + ".tx_text", fp.layer_code_bytes, rng)
              .base);
  }
  const std::uint64_t app_code =
      stack.duplex
          ? code_space.allocate("app.text", stack.app_code_bytes, rng).base
          : 0;
  sim::Station station;
  for (std::uint32_t i = 0; i < stack.buffer_limit; ++i)
    station.buffers.push_back(
        data_space
            .allocate("buf" + std::to_string(i), stack.max_message_bytes, rng)
            .base);

  // The application reads the message header; a layer that skips the
  // data loop (ILP fused it into another layer's) reads none of it.
  const sim::Step app{fp.num_layers, app_code, stack.app_code_bytes, 0, 0,
                      std::min(stack.max_message_bytes, 128u),
                      stack.app_cycles_per_msg};
  const auto layer = [&](std::uint32_t i, std::uint64_t code, bool loop) {
    return sim::Step{i, code, fp.layer_code_bytes, data[i],
                     fp.layer_data_bytes, loop ? stack.max_message_bytes : 0,
                     stack.layer_fixed_cycles, stack.data_loop_cycles_per_byte};
  };
  // Receive climb, then in duplex mode the application and the transmit
  // descent, top layer first. ILP runs the fused data loop once per
  // direction, in the first layer it enters.
  const bool ilp = stack.mode == SynthMode::kIlp;
  std::vector<sim::Step> steps;
  for (std::uint32_t i = 0; i < fp.num_layers; ++i)
    steps.push_back(layer(i, rx_code[i], !ilp || i == 0));
  // LDLP blocks each receive group, the application and each transmit
  // layer over the batch; the one-message schedules run one group.
  std::vector<std::uint32_t> sizes =
      ldlp ? groups(stack, base.memory.icache)
           : std::vector<std::uint32_t>{fp.num_layers};
  if (stack.duplex) {
    steps.push_back(app);
    for (std::uint32_t i = fp.num_layers; i-- > 0;)
      steps.push_back(layer(i, tx_code[i], !ilp || i == fp.num_layers - 1));
    if (ldlp) {
      sizes.insert(sizes.end(), fp.num_layers + 1, 1);
    } else {
      sizes.back() += fp.num_layers + 1;
    }
  }
  auto step = steps.begin();
  for (const std::uint32_t size : sizes) {
    station.groups.emplace_back(step, step + size);
    step += size;
  }
  base.stations = {std::move(station)};
  return base;
}

sim::Summary run(const Stack& stack, traffic::ArrivalSource& source,
                 double horizon, const sim::Machine& base) {
  std::vector<sim::Arrival> arrivals;
  for (const traffic::PacketArrival& a : traffic::collect(source, horizon))
    arrivals.push_back(sim::Arrival{a.time, a.size_bytes, 0});
  return machine(stack, base).run(arrivals);
}

}  // namespace ldlp::synth
