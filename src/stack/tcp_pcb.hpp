// TCP protocol control block and sequence-space helpers.
//
// A deliberately compact but functional TCP: three-way handshake, data
// transfer with a header-prediction fast path, cumulative ACKs with
// ack-every-second-segment (the 4.4BSD behaviour the paper's Table 2 trace
// exhibits), retransmission with exponential backoff, out-of-order segment
// buffering, and orderly close through TIME_WAIT. No congestion control,
// no RTT estimation, no timestamps (the paper's measured configuration has
// RFC 1323 features disabled).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <string_view>
#include <vector>

#include "stack/socket_layer.hpp"

namespace ldlp::stack {

using PcbId = std::uint32_t;
inline constexpr PcbId kNoPcb = ~PcbId{0};

enum class TcpState : std::uint8_t {
  kClosed,
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
  kTimeWait,
};

[[nodiscard]] std::string_view tcp_state_name(TcpState state) noexcept;

/// Sequence-space comparisons (RFC 793 modular arithmetic).
[[nodiscard]] constexpr bool seq_lt(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) < 0;
}
[[nodiscard]] constexpr bool seq_leq(std::uint32_t a,
                                     std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) <= 0;
}
[[nodiscard]] constexpr bool seq_gt(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) > 0;
}
[[nodiscard]] constexpr bool seq_geq(std::uint32_t a,
                                     std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) >= 0;
}

struct TcpConfig {
  std::uint16_t mss = 1460;          ///< Our offer; min() with the peer's.
  double rto_initial_sec = 0.5;
  double rto_max_sec = 8.0;
  std::uint32_t max_retransmits = 8;
  double time_wait_sec = 1.0;        ///< Shortened 2MSL for simulation.
  std::uint32_t delack_every = 2;    ///< ACK every Nth data segment.
  double delack_timeout_sec = 0.05;
  std::size_t send_buffer_bytes = 64 * 1024;
  /// Keepalive: after `keepalive_idle_sec` without hearing from the peer,
  /// probe (zero-length segment at snd_una-1, 4.4BSD tcp_keepalive) every
  /// `keepalive_intvl_sec`; `keepalive_probes` unanswered probes abort
  /// the half-open connection. 0 disables — keepalive is app opt-in
  /// (SO_KEEPALIVE) in 4.4BSD, so the default stays off.
  double keepalive_idle_sec = 0.0;
  double keepalive_intvl_sec = 0.5;
  std::uint32_t keepalive_probes = 4;
  /// Test hook (mutation revert-guard): false re-introduces the PR-4
  /// zero-window wedge — the persist timer never arms — so liveness
  /// oracles can prove they would have caught it.
  bool enable_persist_timer = true;
};

/// A transmitted-but-unacknowledged segment.
struct RtxSegment {
  std::uint32_t seq = 0;
  std::uint32_t len = 0;  ///< Payload bytes (SYN/FIN occupy seq space too).
  std::uint8_t flags = 0;
  std::vector<std::uint8_t> payload;
};

struct TcpPcbStats {
  std::uint64_t segs_in = 0;
  std::uint64_t fast_path = 0;  ///< Header-prediction hits.
  std::uint64_t slow_path = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t segs_out = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t ooo_buffered = 0;
  std::uint64_t dup_acks_sent = 0;
  std::uint64_t persist_probes = 0;    ///< Zero-window probes sent.
  std::uint64_t keepalive_probes = 0;  ///< Idle-peer probes sent.
};

struct TcpPcb {
  TcpState state = TcpState::kClosed;
  std::uint32_t local_ip = 0;
  std::uint32_t remote_ip = 0;
  std::uint16_t local_port = 0;
  std::uint16_t remote_port = 0;

  std::uint32_t iss = 0;       ///< Initial send sequence.
  std::uint32_t irs = 0;       ///< Initial receive sequence.
  std::uint32_t snd_una = 0;
  std::uint32_t snd_nxt = 0;
  std::uint32_t snd_max = 0;   ///< Highest snd_nxt ever reached (invariant:
                               ///< snd_una <= snd_nxt <= snd_max).
  std::uint32_t snd_wnd = 0;   ///< Peer's advertised window.
  std::uint32_t rcv_nxt = 0;
  std::uint16_t mss = 536;

  SocketId socket = kNoSocket;

  std::deque<std::uint8_t> send_buffer;   ///< App data not yet segmented.
  std::deque<RtxSegment> rtx;             ///< In flight, oldest first.
  double rto_sec = 0.5;
  double rtx_deadline = std::numeric_limits<double>::infinity();
  std::uint32_t retries = 0;

  std::uint32_t segs_since_ack = 0;
  double delack_deadline = std::numeric_limits<double>::infinity();
  double time_wait_deadline = std::numeric_limits<double>::infinity();
  /// Persist timer: armed when the peer advertises a zero window while
  /// data waits in send_buffer with nothing in flight. Without it the
  /// connection deadlocks — the peer only announces a reopened window on
  /// an ACK, and it has nothing to ACK (4.4BSD tcp_setpersist).
  double persist_deadline = std::numeric_limits<double>::infinity();

  std::map<std::uint32_t, std::vector<std::uint8_t>> ooo;  ///< seq -> bytes.
  bool fin_received = false;
  bool fin_queued = false;  ///< Application closed; FIN follows the data.
  /// A listener's child not yet handed to the application (4.4BSD so_q0):
  /// no one else holds its socket, so the socket dies with the PCB.
  bool unaccepted = false;

  double last_rcv_time = 0.0;          ///< Clock at the last segment heard.
  std::uint32_t keep_probes_sent = 0;  ///< Unanswered keepalive probes.

  /// Consolidated time::TimerWheel handle (time::TimerId; kept as a raw
  /// integer so this header stays dependency-free): armed at the PCB's
  /// earliest pending deadline, 0 when nothing is pending. Owned by
  /// TcpLayer::sync_wheel; check::TimerAuditor asserts it agrees with
  /// the deadline fields above.
  std::uint64_t wheel_timer = 0;

  TcpPcbStats stats;

  [[nodiscard]] bool is_free() const noexcept {
    return state == TcpState::kClosed;
  }
  /// In the demux index: every state that owns a 4-tuple.
  [[nodiscard]] bool indexed() const noexcept {
    return state != TcpState::kClosed && state != TcpState::kListen;
  }
  [[nodiscard]] bool matches(std::uint32_t src_ip, std::uint16_t src_port,
                             std::uint32_t dst_ip,
                             std::uint16_t dst_port) const noexcept {
    return indexed() && remote_ip == src_ip && remote_port == src_port &&
           local_ip == dst_ip && local_port == dst_port;
  }
  /// Bytes of send window still usable.
  [[nodiscard]] std::uint32_t usable_window() const noexcept {
    const std::uint32_t in_flight = snd_nxt - snd_una;
    return snd_wnd > in_flight ? snd_wnd - in_flight : 0;
  }
};

/// A connection's 4-tuple, as seen from its own side.
struct PcbKey {
  std::uint32_t remote_ip = 0;
  std::uint32_t local_ip = 0;
  std::uint16_t remote_port = 0;
  std::uint16_t local_port = 0;
  friend bool operator==(const PcbKey&, const PcbKey&) = default;
};

[[nodiscard]] inline PcbKey key_of(const TcpPcb& p) noexcept {
  return {p.remote_ip, p.local_ip, p.remote_port, p.local_port};
}

/// Hash of a 4-tuple for the demux index: both halves multiplied into
/// one word, high bits folded down.
struct PcbKeyHash {
  [[nodiscard]] std::size_t operator()(const PcbKey& key) const noexcept {
    const std::uint64_t ips =
        (std::uint64_t{key.remote_ip} << 32) | key.local_ip;
    const std::uint64_t ports =
        (std::uint64_t{key.remote_port} << 16) | key.local_port;
    const std::uint64_t h =
        (ips ^ (ports * 0xc2b2ae3d27d4eb4fULL)) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

}  // namespace ldlp::stack
