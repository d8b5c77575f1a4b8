// HostPair: two hosts on one back-to-back wire — the sender and receiver
// the paper measures, as the two-host tests, native benches, soaks and
// examples build them. Each caller keeps its own host configs (names,
// modes, TCP, pool, MTU and rx-queue settings); the pair only gives them
// their addresses and connects their devices.
#pragma once

#include "stack/host.hpp"

namespace ldlp::stack {

struct HostPair {
  /// Builds `a` from `a_config`, then `b` from `b_config`, overriding
  /// their addresses: a is 10.0.0.1 at 02:00:00:00:00:01 and b is
  /// 10.0.0.2 at 02:00:00:00:00:02. Then connects the two devices.
  HostPair(HostConfig a_config, HostConfig b_config);

  HostPair(const HostPair&) = delete;
  HostPair& operator=(const HostPair&) = delete;

  /// `rounds` passes of a.pump() then b.pump(); no time passes.
  void settle(int rounds);

  /// Advance both clocks by `dt_sec` (a first), then settle(rounds).
  void tick(double dt_sec, int rounds);

  Host a;
  Host b;
};

}  // namespace ldlp::stack
