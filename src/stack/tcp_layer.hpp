// TCP layer: demultiplexing (with the single-entry PCB cache the paper's
// trace exercises, backed by a hashed 4-tuple index), input state machine
// with header-prediction fast path, output/segmentation, and timers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/stack_graph.hpp"
#include "stack/ip_layer.hpp"
#include "stack/socket_layer.hpp"
#include "stack/tcp_pcb.hpp"
#include "time/timer_wheel.hpp"

namespace ldlp::stack {

struct TcpLayerStats {
  std::uint64_t segs_in = 0;
  std::uint64_t bad_checksum = 0;
  std::uint64_t bad_header = 0;
  std::uint64_t no_pcb = 0;          ///< RST sent / segment dropped.
  std::uint64_t pcb_cache_hits = 0;  ///< Single-entry cache (paper §2, Table 2).
  std::uint64_t pcb_cache_misses = 0;
  std::uint64_t rsts_sent = 0;
  std::uint64_t conns_established = 0;
  std::uint64_t conns_reset = 0;
  std::uint64_t rsts_ignored = 0;      ///< Out-of-window RSTs dropped.
  std::uint64_t time_wait_reuses = 0;  ///< TIME_WAIT recycled by a new SYN.
  std::uint64_t keepalive_drops = 0;   ///< Half-open conns torn down.
};

class TcpLayer final : public core::Layer {
 public:
  TcpLayer(Ip4Layer& ip, SocketLayer& sockets, TcpConfig config = {});

  void set_clock(const double* now_sec) noexcept { now_sec_ = now_sec; }

  /// Attach the host's timer wheel: every PCB keeps one consolidated
  /// wheel timer armed at its earliest pending deadline, and the wheel
  /// drives per-PCB timer work instead of a per-pass scan over every
  /// PCB. Without a wheel (standalone tests) on_timer() keeps the old
  /// scan semantics.
  void set_wheel(time::TimerWheel* wheel) noexcept { wheel_ = wheel; }

  /// Passive open. Connections accepted on this port get fresh PCBs and
  /// sockets; `on_accept` (if set) fires when they reach ESTABLISHED. A
  /// port takes one listener at a time.
  [[nodiscard]] PcbId listen(std::uint16_t port);
  void set_accept_hook(std::function<void(PcbId)> hook) {
    accept_hook_ = std::move(hook);
  }

  /// Active open; allocates an ephemeral port and a stream socket.
  [[nodiscard]] PcbId connect(std::uint32_t dst_ip, std::uint16_t dst_port);

  /// Queue bytes for transmission. Returns false if the send buffer is
  /// full or the connection cannot send.
  [[nodiscard]] bool send(PcbId id, std::span<const std::uint8_t> data);

  /// Orderly close (FIN after queued data drains). This is also the
  /// application's close of the connection's socket: the socket slot is
  /// freed once the PCB reaches CLOSED, whichever happens first.
  void close(PcbId id);
  /// Abortive close (RST); frees the socket like close().
  void abort(PcbId id);

  /// Host crash: drop every PCB on the floor without a single segment on
  /// the wire — the peer only learns via RST-on-probe or keepalive after
  /// the host returns (FaultKind::kHostRestart). Stream sockets are freed
  /// by SocketLayer::crash(). Layer-level counters survive; they describe
  /// the machine, not the incarnation.
  void crash();

  /// Drive retransmit / delayed-ACK / TIME_WAIT timers for every PCB
  /// (legacy per-pass scan; wheel-attached hosts get the same work per
  /// PCB from wheel fires instead). Safe to call in either mode.
  void on_timer();

  /// One PCB's timer work: TIME_WAIT expiry, delayed ACK, keepalive,
  /// persist probe, retransmit, mbuf-exhaustion re-attempt. This is the
  /// wheel-fire handler; early (spurious) wakeups are tolerated — each
  /// action re-checks its own deadline. Re-syncs the wheel at the end.
  void pcb_timer(PcbId id);

  /// Send an immediate window-update ACK (what 4.4BSD's soreceive triggers
  /// after the application drains the socket buffer — the "exit" phase ACK
  /// of the paper's Table 2).
  void ack_now(PcbId id) {
    send_ack(id);     // clears any pending delayed ACK…
    sync_wheel(id);   // …so the wheel can stand down with it
  }

  [[nodiscard]] TcpState state(PcbId id) const;
  [[nodiscard]] SocketId socket_of(PcbId id) const;
  [[nodiscard]] const TcpPcbStats& pcb_stats(PcbId id) const;
  /// Read-only PCB view for invariant checkers and tests.
  [[nodiscard]] const TcpPcb& pcb_view(PcbId id) const { return pcb(id); }

  /// Wire-tap on the send API: fires with exactly the bytes accepted into
  /// the send buffer by a successful send(). Conformance oracles record
  /// these as the ground truth the peer's socket layer must deliver.
  void set_send_tap(
      std::function<void(PcbId, std::span<const std::uint8_t>)> tap) {
    send_tap_ = std::move(tap);
  }
  [[nodiscard]] const TcpLayerStats& tcp_stats() const noexcept {
    return stats_;
  }
  /// PCB slots ever allocated: the high-water of concurrent PCBs, since a
  /// new PCB always takes the lowest free slot.
  [[nodiscard]] std::size_t pcb_count() const noexcept { return pcbs_.size(); }

  /// Check the demux structures against the PCBs: every PCB that owns a
  /// 4-tuple is found by it, no index entry names a closed slot or a
  /// different tuple, each listener is indexed by its port, and the
  /// free-slot bitmap marks exactly the CLOSED slots. On failure returns
  /// false with a description in `why` (if non-null).
  [[nodiscard]] bool audit(std::string* why) const;

 protected:
  void process(core::Message msg) override;

 private:
  /// Lets tests plant a corrupt demux entry for the auditor to catch.
  friend struct TcpLayerTestPeer;

  [[nodiscard]] double now() const noexcept {
    return now_sec_ != nullptr ? *now_sec_ : 0.0;
  }
  [[nodiscard]] TcpPcb& pcb(PcbId id);
  [[nodiscard]] const TcpPcb& pcb(PcbId id) const;
  /// Lowest free slot, as a first-fit scan would pick, so PcbIds do not
  /// depend on how the free slots are found.
  [[nodiscard]] PcbId alloc_pcb();
  /// Move a PCB to CLOSED (4.4BSD tcp_close): drop it from the demux
  /// index or the listener map, return its slot to the free bitmap and
  /// let go of its socket.
  void release_pcb(PcbId id);
  [[nodiscard]] bool slot_free(PcbId id) const noexcept {
    return (free_slots_[id / 64] >> (id % 64) & 1) != 0;
  }
  [[nodiscard]] PcbId listener_on(std::uint16_t port) const;
  [[nodiscard]] PcbId demux(std::uint32_t src_ip, std::uint16_t src_port,
                            std::uint32_t dst_ip, std::uint16_t dst_port);

  /// Transmit a segment: flags + up to `payload_len` bytes taken from the
  /// send buffer at snd_nxt. Handles rtx queueing. Returns false when the
  /// segment could not be built (mbuf pool exhausted) — nothing was sent
  /// or queued, and the caller must keep the bytes for a later attempt.
  bool send_segment(PcbId id, std::uint8_t flags,
                    std::vector<std::uint8_t> payload, bool retransmission,
                    std::uint32_t seq_override = 0);
  /// Push send-buffer data within the usable window.
  void try_send_data(PcbId id);
  void send_ack(PcbId id);
  /// Emit a RST to dst; src_* are our side (placed in the header's source
  /// fields).
  void send_rst(std::uint32_t dst_ip, std::uint16_t dst_port,
                std::uint32_t src_ip, std::uint16_t src_port,
                std::uint32_t seq, std::uint32_t ack, bool with_ack);
  void enter_established(PcbId id);
  void enter_time_wait(PcbId id);
  /// Earliest pending deadline of `p` (+inf if none) and its class.
  [[nodiscard]] std::pair<double, time::TimerClass> earliest_deadline(
      const TcpPcb& p) const;
  /// Reconcile the PCB's consolidated wheel timer with its deadline
  /// fields: cancel/arm so exactly the earliest pending deadline is
  /// armed. No-op without a wheel. Called from every entry point that
  /// can create or shorten a deadline.
  void sync_wheel(PcbId id);
  /// RAII: sync_wheel on every exit path of process().
  struct WheelSync {
    TcpLayer* layer;
    PcbId id;
    ~WheelSync() {
      if (layer != nullptr && id != kNoPcb) layer->sync_wheel(id);
    }
  };
  /// Disarm rtx/delayed-ACK deadlines and reset backoff bookkeeping.
  static void cancel_timers(TcpPcb& p) noexcept;
  void reset_connection(PcbId id);
  void process_ack(PcbId id, std::uint32_t ack, std::uint32_t wnd);
  /// Advance rcv_nxt and pass bytes up toward the socket. Returns false
  /// (with rcv_nxt untouched) when the rx pool is exhausted — the caller
  /// must treat the segment as lost so the peer retransmits it.
  [[nodiscard]] bool deliver_payload(PcbId id, std::vector<std::uint8_t> bytes);
  void handle_fin(PcbId id);
  [[nodiscard]] std::uint16_t advertised_window(const TcpPcb& p) const;
  [[nodiscard]] std::uint32_t next_iss() noexcept;

  Ip4Layer& ip_;
  SocketLayer& sockets_;
  TcpConfig cfg_;
  const double* now_sec_ = nullptr;
  time::TimerWheel* wheel_ = nullptr;
  std::vector<std::unique_ptr<TcpPcb>> pcbs_;
  /// One bit per slot, set while the slot is CLOSED (free).
  std::vector<std::uint64_t> free_slots_;
  /// 4-tuple -> PCB, for every indexed() PCB.
  std::unordered_map<PcbKey, PcbId, PcbKeyHash> index_;
  std::unordered_map<std::uint16_t, PcbId> listeners_;  ///< port -> LISTEN.
  PcbId last_pcb_ = kNoPcb;  ///< Single-entry PCB cache.
  std::uint16_t next_ephemeral_ = 49152;
  std::uint32_t iss_counter_ = 0x1000;
  std::function<void(PcbId)> accept_hook_;
  std::function<void(PcbId, std::span<const std::uint8_t>)> send_tap_;
  TcpLayerStats stats_;
};

}  // namespace ldlp::stack
