// The paper's section 4 synthetic benchmark stack, laid out for
// sim::Machine: five layers of 6 KB code and 256 B private data, each
// executing 1652 cycles per message (a 1376-cycle fixed part plus a
// 0.5 cycle/byte loop over the 552-byte reference message) on the paper's
// 100 MHz machine with 8 KB direct-mapped split caches.
//
// Three schedules, the three columns of the paper's Figures 2 and 3:
// kConventional carries each message through all layers before starting
// the next; kIlp does the same but fuses the per-layer data loops, so the
// message is loaded once per direction while layer *code* locality is
// unchanged (why ILP cannot help small messages); kLdlp takes every
// queued message (capped by the data-cache blocking estimate) and runs
// the batch layer by layer.
//
// What this file owns is the layout: each construction places layer code,
// layer data and message buffers at random (AddressSpace), as the paper
// does per run, and groups the layers.
#pragma once

#include <cstdint>
#include <vector>

#include "core/blocking.hpp"
#include "core/stack_graph.hpp"
#include "sim/machine.hpp"
#include "traffic/arrivals.hpp"

namespace ldlp::synth {

enum class SynthMode : std::uint8_t { kConventional, kIlp, kLdlp };

[[nodiscard]] constexpr SynthMode from_sched(core::SchedMode mode) noexcept {
  return mode == core::SchedMode::kLdlp ? SynthMode::kLdlp
                                        : SynthMode::kConventional;
}

struct Stack {
  /// Layers, their code and data bytes, and the message size the blocking
  /// estimate assumes (signalling stacks set ~100).
  core::StackFootprint footprint{};
  std::uint32_t layer_fixed_cycles = 1376;  ///< Per layer per message.
  double data_loop_cycles_per_byte = 0.5;
  /// LDLP queue handling: "enqueuing and dequeuing messages costs on the
  /// order of 40 instructions" (section 3.2), charged per message per
  /// layer group crossed.
  std::uint32_t queue_cost_cycles = 40;

  SynthMode mode = SynthMode::kConventional;
  /// LDLP layer grouping (section 6): layers run back to back per message
  /// within a blocked pass. 1 = pure LDLP; num_layers = conventional order
  /// inside one batch; 0 = auto via core::plan_groups on the I-cache.
  std::uint32_t layers_per_group = 1;

  /// Request/response mode, the transmit side the paper leaves
  /// unevaluated: each message climbs the stack, is answered by an
  /// application, and the response descends a *distinct* transmit code
  /// path of the same per-layer size (tcp_input vs tcp_output). Doubles
  /// the code working set; under kLdlp both directions are blocked.
  bool duplex = false;
  std::uint32_t app_cycles_per_msg = 300;  ///< Application handling cost.
  std::uint32_t app_code_bytes = 2048;     ///< Application code footprint.
  std::uint32_t buffer_limit = 500;  ///< Receive buffers (packets); then drop.
  std::uint32_t max_message_bytes = 2048;
  std::uint64_t layout_seed = 1;
};

/// Layer-group sizes in stack order (kLdlp's blocked passes).
[[nodiscard]] std::vector<std::uint32_t> groups(const Stack& stack,
                                                const sim::CacheConfig& icache);

/// Place the stack in memory and schedule it on `base`. batch_limit 0
/// means the D-cache blocking estimate under kLdlp. Scope ids are layer
/// ids; the application is scope num_layers.
[[nodiscard]] sim::Machine machine(const Stack& stack,
                                         sim::Machine base = {});

/// Drive the stack with `source` until `horizon` seconds of simulated
/// time, then let the server drain what it already accepted.
[[nodiscard]] sim::Summary run(const Stack& stack,
                               traffic::ArrivalSource& source,
                               double horizon,
                               const sim::Machine& base = {});

}  // namespace ldlp::synth
