// ldlp::check — end-to-end conformance oracles.
//
// A DeliveryOracle is a wire-tap pair: the send side records every byte an
// application hands to tcp_send/udp_send on one host (ground truth), the
// receive side watches the peer's socket layer (stack::SocketTap) and
// checks each delivery against that truth. The properties asserted are the
// transport contracts themselves, independent of scheduling mode or of any
// adversity the fault injector applies in between:
//
//   * stream flows (TCP): exactly-once, in-order, byte-exact delivery —
//     the concatenation of sbappend'ed bytes is a prefix of the
//     concatenation of sent bytes, and finalize() demands the prefix be
//     the whole thing;
//   * datagram flows (UDP): at-most-once, integral-datagram delivery —
//     every datagram handed up matches one sent payload byte-for-byte,
//     and no payload is delivered more times than it was sent (unless the
//     wire legitimately duplicates, see set_allow_duplicates()).
//
// Oracles never repair anything: a violation is recorded with a
// diagnostic and the run is condemned. The chaos harness then serialises
// the fault schedule that produced it and hands it to the shrinker.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "check/judge.hpp"
#include "obs/metrics.hpp"
#include "stack/socket_layer.hpp"

namespace ldlp::check {

struct OracleStats {
  std::uint64_t stream_bytes_sent = 0;
  std::uint64_t stream_bytes_delivered = 0;
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_delivered = 0;
  std::uint64_t datagram_duplicates = 0;  ///< Allowed re-deliveries seen.
};

class DeliveryOracle final : public Judge, public stack::SocketTap {
 public:
  using FlowId = std::uint32_t;

  /// Open a unidirectional flow. `label` names it in diagnostics
  /// (e.g. "a->b" or "dns.query").
  [[nodiscard]] FlowId open_stream(std::string label);
  [[nodiscard]] FlowId open_datagram(std::string label);

  /// Send-side ground truth: call from the sender's TcpLayer/UdpLayer
  /// send tap with exactly the bytes the application handed down.
  void stream_sent(FlowId flow, std::span<const std::uint8_t> bytes);
  void datagram_sent(FlowId flow, std::span<const std::uint8_t> payload);

  /// Receive-side binding: deliveries on `socket` (of the host whose
  /// SocketLayer this oracle is tapping) belong to `flow`. Unbound
  /// sockets are ignored — hosts carry unrelated traffic too.
  void bind_stream_rx(FlowId flow, stack::SocketId socket);
  void bind_datagram_rx(FlowId flow, stack::SocketId socket);

  /// Permit datagram re-delivery (set when the fault plan contains
  /// duplicate episodes — the wire may legally clone frames and UDP
  /// promises nothing about it). Byte-exactness is still enforced.
  void set_allow_duplicates(bool allow) noexcept {
    allow_duplicates_ = allow;
  }

  /// Permit stream flows to end short (set when the fault plan contains
  /// host-restart episodes — a crashed endpoint legitimately truncates
  /// the stream). Every byte that *does* arrive must still be the exact
  /// in-order continuation; only finalize()'s completeness demand is
  /// relaxed.
  void set_allow_truncation(bool allow) noexcept {
    allow_truncation_ = allow;
  }

  // stack::SocketTap
  void on_stream_append(stack::SocketId id,
                        std::span<const std::uint8_t> bytes) override;
  void on_datagram(stack::SocketId id, const stack::Datagram& dgram) override;

  [[nodiscard]] std::string_view name() const override {
    return "delivery oracle";
  }

  /// End-of-run check: every stream flow must have delivered everything
  /// that was sent (datagram flows are at-most-once, so nothing to add).
  void finalize() override;

  [[nodiscard]] const OracleStats& stats() const noexcept { return stats_; }

  /// Mirror totals into an obs registry as <prefix>.* counters.
  void publish(obs::Registry& registry,
               std::string_view prefix = "check") const;

 private:
  struct StreamFlow {
    std::string label;
    std::vector<std::uint8_t> sent;
    std::size_t delivered = 0;  ///< Bytes of `sent` confirmed at the peer.
    bool poisoned = false;      ///< Stop re-reporting after first mismatch.
  };
  struct DatagramFlow {
    std::string label;
    // Payload -> {times sent, times delivered}. Counting (rather than a
    // sent list with flags) makes identical payloads unambiguous.
    std::map<std::vector<std::uint8_t>, std::pair<std::uint32_t,
                                                  std::uint32_t>>
        payloads;
  };

  std::vector<StreamFlow> streams_;
  std::vector<DatagramFlow> datagrams_;
  std::map<stack::SocketId, FlowId> stream_rx_;
  std::map<stack::SocketId, FlowId> datagram_rx_;
  bool allow_duplicates_ = false;
  bool allow_truncation_ = false;
  OracleStats stats_;
};

}  // namespace ldlp::check
