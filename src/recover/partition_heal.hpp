// PartitionHealOracle: exactly-once across a healed cut.
//
// The ConvergenceOracle says the fleet *settled* after a partition; this
// oracle says it settled *correctly*. The harness stripes stream traffic
// across host pairs that the fault plan will cut — some bytes sent
// before the partition, some into it (and retransmitted across it), some
// after the heal — and the oracle asserts the full transport contract on
// every pair: each stream's bytes arrive exactly once, in order,
// byte-exact, with nothing lost at the cut and nothing replayed by the
// heal.
//
// Mechanically it is a per-receiving-host sheaf of check::DeliveryOracle
// taps (SocketIds are host-local, so each receiver needs its own tap),
// with pair-granular flow bookkeeping on top. finalize() finalizes every
// per-host oracle and copies its findings into this judge's own log.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "check/judge.hpp"
#include "check/oracle.hpp"
#include "obs/metrics.hpp"
#include "stack/socket_layer.hpp"

namespace ldlp::recover {

class PartitionHealOracle final : public check::Judge {
 public:
  using PairId = std::uint32_t;

  [[nodiscard]] std::string_view name() const override {
    return "partition-heal oracle";
  }

  /// Open a unidirectional src -> dst stream pair. `dst` keys the
  /// receive-side tap: install rx_tap(dst) on the destination host's
  /// SocketLayer (one tap per receiving host, shared by all its pairs).
  [[nodiscard]] PairId open_pair(const std::string& src,
                                 const std::string& dst);

  /// The SocketTap for deliveries on host `dst` (created on first use).
  [[nodiscard]] stack::SocketTap& rx_tap(const std::string& dst);

  /// Send-side ground truth for the pair's stream.
  void sent(PairId pair, std::span<const std::uint8_t> bytes);

  /// Bind the receiving socket (on the pair's dst host) to the pair.
  void bind_rx(PairId pair, stack::SocketId socket);

  /// Forwarded to every per-host oracle (current and future): host
  /// restarts legitimately truncate streams.
  void set_allow_truncation(bool allow) noexcept;

  /// End-of-run: every pair's stream must be complete (unless truncation
  /// is allowed). The per-host findings land here, each prefixed
  /// "rx@<dst>: " with the receiving host.
  void finalize() override;

  [[nodiscard]] check::OracleStats stats() const;
  [[nodiscard]] std::size_t pair_count() const noexcept {
    return pairs_.size();
  }

  /// Mirror totals into an obs registry as <prefix>.* counters.
  void publish(obs::Registry& registry,
               std::string_view prefix = "recover.heal") const;

 private:
  struct Pair {
    std::string dst;
    check::DeliveryOracle::FlowId flow;
  };

  check::DeliveryOracle& oracle_for(const std::string& dst);

  // unique_ptr: the SocketLayer holds the tap pointer for the whole run,
  // so oracle addresses must survive map growth.
  std::map<std::string, std::unique_ptr<check::DeliveryOracle>> by_dst_;
  std::vector<Pair> pairs_;
  bool allow_truncation_ = false;
};

}  // namespace ldlp::recover
