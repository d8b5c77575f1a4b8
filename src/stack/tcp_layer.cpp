#include "stack/tcp_layer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "common/byteorder.hpp"
#include "stack/footprints.hpp"
#include "wire/checksum.hpp"
#include "wire/tcp.hpp"

namespace ldlp::stack {

using wire::tcpflags::kAck;
using wire::tcpflags::kFin;
using wire::tcpflags::kPsh;
using wire::tcpflags::kRst;
using wire::tcpflags::kSyn;

namespace {
/// Cadence for re-attempting a segment whose mbuf allocation failed:
/// one wheel tick.
constexpr double kPoolRetrySec = time::TimerWheel::kTickSec;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Drop `n` acknowledged bytes from the front of the send buffer.
void drop_acked(TcpPcb& p, std::uint32_t n) noexcept {
  p.send_buffer.drop_front(n);
  p.sent_bytes -= n;
}
}  // namespace

TcpLayer::TcpLayer(Ip4Layer& ip, SocketLayer& sockets,
                   time::TimerWheel& wheel, TcpConfig config)
    : core::Layer("tcp"),
      ip_(ip),
      sockets_(sockets),
      wheel_(wheel),
      cfg_(config) {}

TcpPcb& TcpLayer::pcb(PcbId id) {
  LDLP_ASSERT_MSG(id < pcbs_.size(), "bad pcb id");
  return *pcbs_[id];
}

const TcpPcb& TcpLayer::pcb(PcbId id) const {
  LDLP_ASSERT_MSG(id < pcbs_.size(), "bad pcb id");
  return *pcbs_[id];
}

PcbId TcpLayer::alloc_pcb() {
  for (std::size_t w = 0; w < free_slots_.size(); ++w) {
    if (free_slots_[w] == 0) continue;
    const auto id = static_cast<PcbId>(
        w * 64 + static_cast<std::size_t>(std::countr_zero(free_slots_[w])));
    free_slots_[w] &= free_slots_[w] - 1;  // clear the lowest set bit
    // A freed slot should have synced its wheel timer away; cancel
    // defensively so a stale callback can never fire for the tenant.
    TcpPcb& p = *pcbs_[id];
    wheel_.cancel(p.wheel_timer);
    // Reset in place, but hand the tenant the old buffers' storage.
    ByteRing send_buffer = std::move(p.send_buffer);
    Ring<RtxSegment> rtx = std::move(p.rtx);
    send_buffer.clear();
    rtx.clear();
    p = TcpPcb{};
    p.send_buffer = std::move(send_buffer);
    p.rtx = std::move(rtx);
    return id;
  }
  const auto id = static_cast<PcbId>(pcbs_.size());
  pcbs_.push_back(std::make_unique<TcpPcb>());
  if (id % 64 == 0) free_slots_.push_back(0);
  return id;
}

void TcpLayer::release_pcb(PcbId id) {
  TcpPcb& p = pcb(id);
  if (p.state == TcpState::kListen) {
    listeners_.erase(p.local_port);
  } else if (p.indexed()) {
    index_.erase(key_of(p));
  }
  p.state = TcpState::kClosed;
  free_slots_[id / 64] |= std::uint64_t{1} << (id % 64);
  if (p.unaccepted) sockets_.close(p.socket);
  sockets_.detach(p.socket);
}

PcbId TcpLayer::listener_on(std::uint16_t port) const {
  const auto it = listeners_.find(port);
  return it != listeners_.end() ? it->second : kNoPcb;
}

std::uint32_t TcpLayer::next_iss() noexcept {
  iss_counter_ += 64000;
  return iss_counter_;
}

PcbId TcpLayer::listen(std::uint16_t port) {
  LDLP_ASSERT_MSG(listener_on(port) == kNoPcb, "port already has a listener");
  const PcbId id = alloc_pcb();
  TcpPcb& p = pcb(id);
  p.state = TcpState::kListen;
  p.local_ip = ip_.ip_addr();
  p.local_port = port;
  listeners_.emplace(port, id);
  return id;
}

PcbId TcpLayer::connect(std::uint32_t dst_ip, std::uint16_t dst_port) {
  trace_fn(Fn::kTcpUsrreq);
  const PcbId id = alloc_pcb();
  TcpPcb& p = pcb(id);
  p.state = TcpState::kSynSent;
  p.local_ip = ip_.ip_addr();
  p.remote_ip = dst_ip;
  p.remote_port = dst_port;
  // Skip an ephemeral port whose tuple is still in use (4.4BSD in_pcbbind):
  // after the counter wraps, two PCBs must never share a tuple.
  for (int tries = 0;; ++tries) {
    LDLP_ASSERT_MSG(tries < 65536 - 49152, "ephemeral ports exhausted");
    p.local_port = next_ephemeral_++;
    if (next_ephemeral_ == 0) next_ephemeral_ = 49152;
    if (!index_.contains(key_of(p))) break;
  }
  index_.emplace(key_of(p), id);
  p.iss = next_iss();
  p.snd_una = p.iss;
  p.snd_nxt = p.iss;
  p.snd_max = p.iss;
  p.snd_wnd = 1;  // enough for the handshake; real window arrives with it
  p.mss = cfg_.mss;
  p.rto_sec = cfg_.rto_initial_sec;
  p.last_rcv_time = now();
  p.socket = sockets_.create(SocketKind::kStream);
  send_segment(id, kSyn, 0, /*retransmission=*/false);
  sync_wheel(id);
  return id;
}

bool TcpLayer::send(PcbId id, std::span<const std::uint8_t> data) {
  trace_fn(Fn::kTcpUsrreq);
  TcpPcb& p = pcb(id);
  if (p.state != TcpState::kEstablished && p.state != TcpState::kCloseWait &&
      p.state != TcpState::kSynSent && p.state != TcpState::kSynReceived)
    return false;
  if (p.fin_queued) return false;
  if (p.unsent_bytes() + data.size() > cfg_.send_buffer_bytes) return false;
  p.send_buffer.append(data);
  if (send_tap_) send_tap_(id, data);
  if (p.state == TcpState::kEstablished || p.state == TcpState::kCloseWait)
    try_send_data(id);
  sync_wheel(id);
  return true;
}

void TcpLayer::close(PcbId id) {
  trace_fn(Fn::kTcpUsrreq);
  TcpPcb& p = pcb(id);
  sockets_.close(p.socket);
  switch (p.state) {
    case TcpState::kListen:
    case TcpState::kSynSent:
      // Cancel timers with the state change: a SYN may still sit on the
      // rtx queue with a live deadline, and the PCB slot is now reusable.
      cancel_timers(p);
      p.rtx.clear();
      p.send_buffer.clear();
      p.sent_bytes = 0;
      release_pcb(id);
      if (last_pcb_ == id) last_pcb_ = kNoPcb;
      break;
    case TcpState::kSynReceived:
    case TcpState::kEstablished:
    case TcpState::kCloseWait:
      p.fin_queued = true;
      try_send_data(id);
      break;
    default:
      break;  // Already closing.
  }
  sync_wheel(id);
}

void TcpLayer::abort(PcbId id) {
  TcpPcb& p = pcb(id);
  sockets_.close(p.socket);
  if (p.state != TcpState::kClosed && p.state != TcpState::kListen) {
    send_rst(p.remote_ip, p.remote_port, p.local_ip, p.local_port, p.snd_nxt,
             0, false);
  }
  reset_connection(id);
}

TcpState TcpLayer::state(PcbId id) const { return pcb(id).state; }
SocketId TcpLayer::socket_of(PcbId id) const { return pcb(id).socket; }
const TcpPcbStats& TcpLayer::pcb_stats(PcbId id) const {
  return pcb(id).stats;
}

PcbId TcpLayer::demux(std::uint32_t src_ip, std::uint16_t src_port,
                      std::uint32_t dst_ip, std::uint16_t dst_port) {
  // Single-entry PCB cache: the common case — a long exchange with one
  // peer — hits here without touching the PCB list (Table 2: "the
  // single-entry PCB cache hits").
  if (last_pcb_ != kNoPcb && last_pcb_ < pcbs_.size() &&
      pcbs_[last_pcb_]->matches(src_ip, src_port, dst_ip, dst_port)) {
    ++stats_.pcb_cache_hits;
    return last_pcb_;
  }
  ++stats_.pcb_cache_misses;
  const auto it = index_.find({src_ip, dst_ip, src_port, dst_port});
  if (it != index_.end()) {
    last_pcb_ = it->second;
    return it->second;
  }
  // Fall back to a listener on the destination port.
  return listener_on(dst_port);
}

std::uint16_t TcpLayer::advertised_window(const TcpPcb& p) const {
  if (p.socket == kNoSocket) return 16 * 1024;
  return static_cast<std::uint16_t>(
      std::min<std::size_t>(sockets_.room(p.socket), 65535));
}

void TcpLayer::process(core::Message msg) {
  trace_fn(Fn::kTcpInput);
  trace_rgn(Rgn::kTcpTablesRo);
  trace_rgn(Rgn::kTcpPcbMut);
  ++stats_.segs_in;

  const std::uint32_t src_ip = flow_src(msg.flow_id);
  const std::uint32_t dst_ip = flow_dst(msg.flow_id);
  const std::uint32_t total_len = msg.packet.length();

  std::uint8_t* base = msg.packet.pullup(wire::kTcpMinHeaderLen);
  if (base == nullptr) {
    ++stats_.bad_header;
    return;
  }
  const std::uint32_t doff = (base[12] >> 4) * 4u;
  if (doff > wire::kTcpMinHeaderLen) {
    base = msg.packet.pullup(doff);
    if (base == nullptr) {
      ++stats_.bad_header;
      return;
    }
  }
  const auto header = wire::parse_tcp({base, msg.packet.head()->len()});
  if (!header.has_value() || header->header_len() > total_len) {
    ++stats_.bad_header;
    return;
  }

  // in_cksum over the whole segment (the paper's fast path computes this
  // for every received segment).
  trace_fn(Fn::kInCksum, 1.0, 2.0 + total_len / 64.0);
  trace_pkt(trace::RefKind::kRead, total_len);
  if (wire::transport_cksum(msg.packet, 0, total_len, src_ip, dst_ip,
                            static_cast<std::uint8_t>(wire::IpProto::kTcp)) !=
      0) {
    ++stats_.bad_checksum;
    return;
  }

  const std::uint32_t payload_len = total_len - header->header_len();
  PcbId id = demux(src_ip, header->src_port, dst_ip, header->dst_port);
  if (id == kNoPcb) {
    ++stats_.no_pcb;
    if (!header->has(kRst)) {
      if (header->has(kAck)) {
        send_rst(src_ip, header->src_port, dst_ip, header->dst_port,
                 header->ack, 0, false);
      } else {
        const std::uint32_t ack = header->seq + payload_len +
                                  (header->has(kSyn) ? 1 : 0) +
                                  (header->has(kFin) ? 1 : 0);
        send_rst(src_ip, header->src_port, dst_ip, header->dst_port, 0, ack,
                 true);
      }
    }
    return;
  }

  // TIME_WAIT reuse (2MSL shortcut, 4.4BSD): a fresh SYN whose sequence
  // is strictly beyond the old incarnation's receive point cannot be a
  // stray duplicate of it, so the wait may be cut short — retire the old
  // PCB and hand the SYN to the listener on the same port.
  if (pcb(id).state == TcpState::kTimeWait && header->has(kSyn) &&
      !header->has(kAck) && !header->has(kRst) &&
      seq_gt(header->seq, pcb(id).rcv_nxt)) {
    const PcbId lid = listener_on(pcb(id).local_port);
    if (lid != kNoPcb) {
      ++stats_.time_wait_reuses;
      reset_connection(id);
      id = lid;
    }
  }

  TcpPcb& p = pcb(id);
  // Everything below can create, shorten, or cancel a deadline on this
  // PCB; reconcile its consolidated wheel timer on every exit path.
  const WheelSync wheel_sync{this, id};
  ++p.stats.segs_in;
  p.last_rcv_time = now();
  p.keep_probes_sent = 0;  // any segment is proof of life

  // ---- LISTEN ----------------------------------------------------------
  if (p.state == TcpState::kListen) {
    if (header->has(kRst)) return;
    if (header->has(kAck)) {
      send_rst(src_ip, header->src_port, dst_ip, header->dst_port,
               header->ack, 0, false);
      return;
    }
    if (!header->has(kSyn)) return;
    const PcbId child_id = alloc_pcb();
    TcpPcb& child = pcb(child_id);
    child.state = TcpState::kSynReceived;
    child.local_ip = dst_ip;
    child.local_port = header->dst_port;
    child.remote_ip = src_ip;
    child.remote_port = header->src_port;
    child.irs = header->seq;
    child.rcv_nxt = header->seq + 1;
    child.iss = next_iss();
    child.snd_una = child.iss;
    child.snd_nxt = child.iss;
    child.snd_max = child.iss;
    child.snd_wnd = header->window;
    child.mss = std::min(cfg_.mss, header->mss.value_or(536));
    child.rto_sec = cfg_.rto_initial_sec;
    child.last_rcv_time = now();
    child.socket = sockets_.create(SocketKind::kStream);
    child.unaccepted = true;
    index_.emplace(key_of(child), child_id);
    send_segment(child_id, static_cast<std::uint8_t>(kSyn | kAck), 0,
                 /*retransmission=*/false);
    sync_wheel(child_id);  // the guard tracks the listener, not the child
    return;
  }

  // ---- SYN_SENT --------------------------------------------------------
  if (p.state == TcpState::kSynSent) {
    if (header->has(kAck) &&
        (seq_leq(header->ack, p.iss) || seq_gt(header->ack, p.snd_nxt))) {
      if (!header->has(kRst)) {
        send_rst(src_ip, header->src_port, dst_ip, header->dst_port,
                 header->ack, 0, false);
      }
      return;
    }
    if (header->has(kRst)) {
      if (header->has(kAck)) reset_connection(id);
      return;
    }
    if (!header->has(kSyn)) return;
    p.irs = header->seq;
    p.rcv_nxt = header->seq + 1;
    if (header->mss.has_value()) p.mss = std::min(p.mss, *header->mss);
    if (header->has(kAck)) {
      process_ack(id, header->ack, header->window);
      enter_established(id);
      send_ack(id);
    } else {
      // Simultaneous open.
      p.state = TcpState::kSynReceived;
      send_segment(id, static_cast<std::uint8_t>(kSyn | kAck), 0,
                   /*retransmission=*/true, p.iss);
    }
    return;
  }

  // ---- Synchronized states ---------------------------------------------

  // Header-prediction fast path (4.4BSD tcp_input): established, exactly
  // ACK (data may carry PSH), next expected sequence, sane ACK.
  const std::uint8_t interesting =
      header->flags & static_cast<std::uint8_t>(kSyn | kFin | kRst);
  if (p.state == TcpState::kEstablished && interesting == 0 &&
      header->has(kAck) && header->seq == p.rcv_nxt &&
      seq_geq(header->ack, p.snd_una) && seq_leq(header->ack, p.snd_nxt)) {
    ++p.stats.fast_path;
    process_ack(id, header->ack, header->window);
    if (payload_len != 0) {
      msg.packet.adj(static_cast<std::int32_t>(header->header_len()));
      deliver_payload(id, std::move(msg.packet));
      drain_ooo(id);  // any out-of-order data this made contiguous
      // ACK every second data segment (the measured 4.4BSD behaviour).
      ++p.segs_since_ack;
      if (p.segs_since_ack >= cfg_.delack_every) {
        send_ack(id);
      } else {
        p.delack_deadline = now() + cfg_.delack_timeout_sec;
      }
    }
    return;
  }

  ++p.stats.slow_path;

  // Sequence acceptability: anything entirely left of rcv_nxt is a
  // duplicate; answer with an ACK so the peer resynchronises.
  const std::uint32_t seg_space =
      payload_len + (header->has(kSyn) ? 1 : 0) + (header->has(kFin) ? 1 : 0);
  if (seg_space != 0 && seq_leq(header->seq + seg_space, p.rcv_nxt)) {
    ++p.stats.dup_acks_sent;
    send_ack(id);
    return;
  }

  // Zero-length acceptability (RFC 793): a segment carrying no sequence
  // space is acceptable only at rcv_nxt (window closed) or inside the
  // receive window. An unacceptable one gets an ACK in reply — which is
  // exactly how a live endpoint answers a keepalive probe (its sequence
  // sits one below rcv_nxt) — unless it is a RST, which must be dropped
  // silently: replying would start an ACK war, and honouring it would
  // hand blind off-window RSTs a connection kill.
  if (seg_space == 0) {
    const std::uint32_t rwnd = advertised_window(p);
    const bool acceptable =
        rwnd == 0 ? header->seq == p.rcv_nxt
                  : (seq_geq(header->seq, p.rcv_nxt) &&
                     seq_lt(header->seq, p.rcv_nxt + rwnd));
    if (!acceptable) {
      if (header->has(kRst)) {
        ++stats_.rsts_ignored;
      } else {
        ++p.stats.dup_acks_sent;
        send_ack(id);
      }
      return;
    }
  }

  if (header->has(kRst)) {
    // In-window by the checks above: a valid abort from the peer.
    reset_connection(id);
    return;
  }
  if (header->has(kSyn)) {
    // SYN in window: fatal.
    send_rst(src_ip, header->src_port, dst_ip, header->dst_port, p.snd_nxt, 0,
             false);
    reset_connection(id);
    return;
  }
  if (!header->has(kAck)) return;

  if (seq_gt(header->ack, p.snd_nxt)) {
    send_ack(id);  // ACK for data we have not sent.
    return;
  }
  const bool fin_was_outstanding =
      (p.state == TcpState::kFinWait1 || p.state == TcpState::kLastAck ||
       p.state == TcpState::kClosing);
  process_ack(id, header->ack, header->window);
  const bool our_fin_acked =
      fin_was_outstanding && p.snd_una == p.snd_nxt && p.rtx.empty();

  if (p.state == TcpState::kSynReceived &&
      seq_geq(header->ack, p.iss + 1)) {
    enter_established(id);
  }
  if (our_fin_acked) {
    switch (p.state) {
      case TcpState::kFinWait1: p.state = TcpState::kFinWait2; break;
      case TcpState::kClosing: enter_time_wait(id); break;
      case TcpState::kLastAck:
        release_pcb(id);
        return;
      default: break;
    }
  }

  // Payload.
  if (payload_len != 0 &&
      (p.state == TcpState::kEstablished || p.state == TcpState::kFinWait1 ||
       p.state == TcpState::kFinWait2)) {
    const std::uint32_t hlen = header->header_len();
    if (header->seq == p.rcv_nxt) {
      msg.packet.adj(static_cast<std::int32_t>(hlen));
      deliver_payload(id, std::move(msg.packet));
      drain_ooo(id);
      send_ack(id);
    } else if (seq_gt(header->seq, p.rcv_nxt)) {
      // Out of order: keep a copy (bounded) and ask for what we need.
      if (p.ooo.size() < 64) {
        std::vector<std::uint8_t> bytes(payload_len);
        if (!msg.packet.copy_out(hlen, bytes)) return;
        p.ooo.emplace(header->seq, std::move(bytes));
        ++p.stats.ooo_buffered;
      }
      ++p.stats.dup_acks_sent;
      send_ack(id);
    } else {
      // Partially duplicate: trim the prefix we already have.
      const std::uint32_t skip = p.rcv_nxt - header->seq;
      msg.packet.adj(static_cast<std::int32_t>(hlen + skip));
      deliver_payload(id, std::move(msg.packet));
      send_ack(id);
    }
  }

  // FIN processing (only once all preceding data has arrived).
  if (header->has(kFin) &&
      header->seq + payload_len == p.rcv_nxt) {
    handle_fin(id);
  }
}

void TcpLayer::deliver_payload(PcbId id, buf::Packet payload) {
  TcpPcb& p = pcb(id);
  const std::uint32_t len = payload.length();
  if (len == 0) return;  // a partly duplicate FIN segment's empty rest
  p.rcv_nxt += len;
  core::Message up(std::move(payload));
  up.flow_id = p.socket;
  emit(std::move(up), 0);
}

void TcpLayer::drain_ooo(PcbId id) {
  TcpPcb& p = pcb(id);
  auto it = p.ooo.begin();
  while (it != p.ooo.end() && seq_leq(it->first, p.rcv_nxt)) {
    const auto end = static_cast<std::uint32_t>(it->first + it->second.size());
    if (seq_gt(end, p.rcv_nxt)) {
      // Consume sequence space only when the bytes reach the socket path.
      // Advancing rcv_nxt past an allocation failure would ACK data that
      // was dropped — the peer clears its rtx entry and the hole in the
      // stream becomes unrecoverable.
      const std::uint32_t skip = p.rcv_nxt - it->first;
      buf::Packet pkt = buf::Packet::from_bytes(
          ip_.pool(), std::span(it->second).subspan(skip));
      if (!pkt) break;
      deliver_payload(id, std::move(pkt));
    }
    it = p.ooo.erase(it);
  }
}

void TcpLayer::handle_fin(PcbId id) {
  TcpPcb& p = pcb(id);
  if (p.fin_received) return;
  p.fin_received = true;
  ++p.rcv_nxt;
  send_ack(id);
  switch (p.state) {
    case TcpState::kEstablished:
      p.state = TcpState::kCloseWait;
      break;
    case TcpState::kFinWait1:
      // Our FIN not yet acked: simultaneous close.
      p.state = TcpState::kClosing;
      break;
    case TcpState::kFinWait2:
      enter_time_wait(id);
      break;
    default:
      break;
  }
}

void TcpLayer::process_ack(PcbId id, std::uint32_t ack, std::uint32_t wnd) {
  TcpPcb& p = pcb(id);
  p.snd_wnd = wnd;
  if (seq_gt(ack, p.snd_una) && seq_leq(ack, p.snd_nxt)) {
    p.snd_una = ack;
    while (!p.rtx.empty()) {
      RtxSegment& seg = p.rtx.front();
      const std::uint32_t seg_space =
          seg.len + ((seg.flags & kSyn) != 0 ? 1 : 0) +
          ((seg.flags & kFin) != 0 ? 1 : 0);
      if (seq_leq(seg.seq + seg_space, p.snd_una)) {
        drop_acked(p, seg.len);
        p.rtx.pop_front();
        continue;
      }
      if (seq_gt(p.snd_una, seg.seq)) {
        // Partial ACK: its bytes leave the buffer, and the segment shrinks
        // to what is still unacked, so a retransmission resends only that.
        const std::uint32_t acked = p.snd_una - seg.seq;
        drop_acked(p, acked);
        seg.seq = p.snd_una;
        seg.len -= acked;
      }
      break;
    }
    p.retries = 0;
    p.rto_sec = cfg_.rto_initial_sec;
    p.rtx_deadline = p.rtx.empty()
                         ? std::numeric_limits<double>::infinity()
                         : now() + p.rto_sec;
  }
  try_send_data(id);
}

void TcpLayer::try_send_data(PcbId id) {
  TcpPcb& p = pcb(id);
  if (p.state != TcpState::kEstablished && p.state != TcpState::kCloseWait &&
      p.state != TcpState::kFinWait1 && p.state != TcpState::kLastAck &&
      p.state != TcpState::kSynReceived)
    return;

  while (p.unsent_bytes() != 0 &&
         (p.state == TcpState::kEstablished ||
          p.state == TcpState::kCloseWait)) {
    const std::uint32_t window = p.usable_window();
    if (window == 0) break;
    const auto take = static_cast<std::uint32_t>(std::min<std::size_t>(
        {p.unsent_bytes(), p.mss, window}));
    if (take == 0) break;
    // If the mbuf pool is exhausted the bytes stay unsent; pcb_timer
    // re-attempts once nothing is in flight.
    if (!send_segment(id, static_cast<std::uint8_t>(kAck | kPsh), take,
                      /*retransmission=*/false))
      return;
  }

  // Persist: if the peer's window is closed with nothing in flight, no
  // ACK will ever arrive to reopen it — arm the probe timer. Any other
  // state (window open, or data in flight whose ACK will carry a window
  // update) disarms it.
  const bool zero_window_stall =
      p.snd_wnd == 0 && p.rtx.empty() && p.unsent_bytes() != 0 &&
      (p.state == TcpState::kEstablished || p.state == TcpState::kCloseWait);
  if (zero_window_stall && cfg_.enable_persist_timer) {
    if (!std::isfinite(p.persist_deadline))
      p.persist_deadline = now() + p.rto_sec;
  } else {
    p.persist_deadline = std::numeric_limits<double>::infinity();
  }

  // FIN once the buffer drains. State advances only if the FIN actually
  // went out; otherwise fin_queued stays set for a later attempt.
  if (p.fin_queued && p.unsent_bytes() == 0) {
    if (p.state == TcpState::kEstablished ||
        p.state == TcpState::kSynReceived) {
      if (send_segment(id, static_cast<std::uint8_t>(kFin | kAck), 0,
                       /*retransmission=*/false)) {
        p.state = TcpState::kFinWait1;
        p.fin_queued = false;
      }
    } else if (p.state == TcpState::kCloseWait) {
      if (send_segment(id, static_cast<std::uint8_t>(kFin | kAck), 0,
                       /*retransmission=*/false)) {
        p.state = TcpState::kLastAck;
        p.fin_queued = false;
      }
    }
  }
}

bool TcpLayer::send_segment(PcbId id, std::uint8_t flags, std::uint32_t len,
                            bool retransmission,
                            std::uint32_t seq_override) {
  trace_fn(Fn::kTcpOutput);
  TcpPcb& p = pcb(id);
  const std::uint32_t seq = retransmission ? seq_override : p.snd_nxt;

  buf::Packet pkt = buf::Packet::make(ip_.pool());
  if (!pkt) return false;

  wire::TcpHeader header;
  header.src_port = p.local_port;
  header.dst_port = p.remote_port;
  header.seq = seq;
  header.ack = (flags & kAck) != 0 ? p.rcv_nxt : 0;
  header.flags = flags;
  header.window = advertised_window(p);
  if ((flags & kSyn) != 0) header.mss = cfg_.mss;

  std::uint8_t header_bytes[wire::kTcpMinHeaderLen + 4];
  const std::size_t hlen = wire::write_tcp(header, header_bytes);
  if (hlen == 0) return false;
  if (!pkt.append({header_bytes, hlen})) return false;
  if (len != 0) {
    const auto [first, rest] =
        p.send_buffer.view(retransmission ? 0 : p.sent_bytes, len);
    if (!pkt.append(first, rest)) return false;
  }
  pkt.sync_pkt_len();

  // Patch the checksum now that everything is in place.
  const std::uint16_t sum = wire::transport_cksum(
      pkt, 0, pkt.length(), p.local_ip, p.remote_ip,
      static_cast<std::uint8_t>(wire::IpProto::kTcp));
  std::uint8_t sum_bytes[2];
  store_be16(sum_bytes, sum);
  if (!pkt.copy_in(16, sum_bytes)) return false;

  ++p.stats.segs_out;
  if ((flags & kAck) != 0 && len == 0 &&
      (flags & (kSyn | kFin)) == 0) {
    ++p.stats.acks_sent;  // pure window/ack segment
  }

  if (!retransmission) {
    const std::uint32_t seg_space =
        len + ((flags & kSyn) != 0 ? 1 : 0) + ((flags & kFin) != 0 ? 1 : 0);
    if (seg_space != 0) {
      p.rtx.push_back(RtxSegment{seq, len, flags});
      p.sent_bytes += len;
      p.snd_nxt = seq + seg_space;
      if (seq_gt(p.snd_nxt, p.snd_max)) p.snd_max = p.snd_nxt;
      if (p.rtx_deadline == std::numeric_limits<double>::infinity())
        p.rtx_deadline = now() + p.rto_sec;
    }
  } else if (len != 0 || (flags & (kSyn | kFin)) != 0) {
    ++p.stats.retransmits;  // pure ACKs resent via this path don't count
  }

  // Data or window-bearing segment counts as an ACK of everything seen.
  p.segs_since_ack = 0;
  p.delack_deadline = std::numeric_limits<double>::infinity();

  ip_.output(std::move(pkt), p.remote_ip, wire::IpProto::kTcp);
  return true;
}

void TcpLayer::send_ack(PcbId id) {
  send_segment(id, kAck, 0, /*retransmission=*/true,
               pcb(id).snd_nxt);  // pure ACK consumes no sequence space
}

void TcpLayer::send_rst(std::uint32_t dst_ip, std::uint16_t dst_port,
                        std::uint32_t src_ip, std::uint16_t src_port,
                        std::uint32_t seq, std::uint32_t ack, bool with_ack) {
  ++stats_.rsts_sent;
  buf::Packet pkt = buf::Packet::make(ip_.pool());
  if (!pkt) return;
  wire::TcpHeader header;
  header.src_port = src_port;
  header.dst_port = dst_port;
  header.seq = seq;
  header.ack = ack;
  header.flags = static_cast<std::uint8_t>(kRst | (with_ack ? kAck : 0));
  std::uint8_t header_bytes[wire::kTcpMinHeaderLen];
  if (wire::write_tcp(header, header_bytes) == 0) return;
  if (!pkt.append(header_bytes)) return;
  const std::uint16_t sum = wire::transport_cksum(
      pkt, 0, pkt.length(), src_ip, dst_ip,
      static_cast<std::uint8_t>(wire::IpProto::kTcp));
  std::uint8_t sum_bytes[2];
  store_be16(sum_bytes, sum);
  if (!pkt.copy_in(16, sum_bytes)) return;
  pkt.sync_pkt_len();
  ip_.output(std::move(pkt), dst_ip, wire::IpProto::kTcp);
}

void TcpLayer::enter_established(PcbId id) {
  TcpPcb& p = pcb(id);
  if (p.state == TcpState::kEstablished) return;
  p.state = TcpState::kEstablished;
  p.unaccepted = false;
  ++stats_.conns_established;
  last_pcb_ = id;
  if (accept_hook_) accept_hook_(id);
  try_send_data(id);
}

void TcpLayer::cancel_timers(TcpPcb& p) noexcept {
  p.rtx_deadline = std::numeric_limits<double>::infinity();
  p.delack_deadline = std::numeric_limits<double>::infinity();
  p.persist_deadline = std::numeric_limits<double>::infinity();
  p.retries = 0;
  p.segs_since_ack = 0;
  p.keep_probes_sent = 0;
}

void TcpLayer::enter_time_wait(PcbId id) {
  TcpPcb& p = pcb(id);
  p.state = TcpState::kTimeWait;
  // Our FIN is acked, so nothing may retransmit and no delayed ACK is
  // owed; only the 2MSL timer stays armed.
  cancel_timers(p);
  p.rtx.clear();
  p.time_wait_deadline = now() + cfg_.time_wait_sec;
}

void TcpLayer::reset_connection(PcbId id) {
  TcpPcb& p = pcb(id);
  if (p.state != TcpState::kClosed) ++stats_.conns_reset;
  if (last_pcb_ == id) last_pcb_ = kNoPcb;
  release_pcb(id);
  p.rtx.clear();
  p.send_buffer.clear();
  p.sent_bytes = 0;
  p.ooo.clear();
  // Disarm everything: the slot is immediately reusable by alloc_pcb(),
  // and a stale deadline must never fire against the next tenant.
  cancel_timers(p);
  p.time_wait_deadline = std::numeric_limits<double>::infinity();
  p.fin_queued = false;
  p.fin_received = false;
  sync_wheel(id);  // slot reusable: the wheel must forget it now
}

void TcpLayer::crash() {
  // No RSTs, no state transitions observable on the wire: the machine
  // simply stops existing mid-thought. Each slot is reinitialised so
  // alloc_pcb() can hand it out fresh after the reboot. Wheel timers are
  // software, not protocol state — cancel them or they would fire into
  // the wiped PCBs. The sockets are the socket layer's to free.
  for (PcbId id = 0; id < pcbs_.size(); ++id) {
    TcpPcb& p = *pcbs_[id];
    wheel_.cancel(p.wheel_timer);
    if (!p.is_free()) release_pcb(id);
    p = TcpPcb{};
  }
  last_pcb_ = kNoPcb;
}

void TcpLayer::pcb_timer(PcbId id) {
  const double t = now();
  TcpPcb& p = pcb(id);
  // Every action below re-checks its own deadline, so a spurious (early)
  // wheel fire — a timer storm — costs one pass over this PCB and
  // nothing else. The guard re-arms the wheel at whatever deadline is
  // earliest once the work settles.
  const WheelSync wheel_sync{this, id};
  switch (p.state) {
    case TcpState::kClosed:
    case TcpState::kListen:
      return;
    case TcpState::kTimeWait:
      if (t >= p.time_wait_deadline) {
        if (last_pcb_ == id) last_pcb_ = kNoPcb;
        release_pcb(id);
      }
      return;
    default:
      break;
  }
  if (t >= p.delack_deadline) {
    send_ack(id);
  }
  // Keepalive: a peer silent past the idle threshold may be gone —
  // crashed, or the other half of a half-open connection. Probe with a
  // zero-length segment one byte below snd_una: a live peer must answer
  // it with an ACK (zero-length acceptability), a restarted peer
  // answers with a RST, and a dead one answers nothing — after
  // `keepalive_probes` silences the connection is torn down rather
  // than wedged forever (4.4BSD tcp_keepalive semantics).
  if (cfg_.keepalive_idle_sec > 0.0 && p.rtx.empty() &&
      (p.state == TcpState::kEstablished ||
       p.state == TcpState::kCloseWait ||
       p.state == TcpState::kFinWait2)) {
    const double due = p.last_rcv_time + cfg_.keepalive_idle_sec +
                       p.keep_probes_sent * cfg_.keepalive_intvl_sec;
    if (t >= due) {
      if (p.keep_probes_sent >= cfg_.keepalive_probes) {
        ++stats_.keepalive_drops;
        reset_connection(id);
        return;
      }
      ++p.keep_probes_sent;
      ++p.stats.keepalive_probes;
      send_segment(id, kAck, 0, /*retransmission=*/true, p.snd_una - 1);
    }
  }
  if (t >= p.persist_deadline) {
    // Zero-window probe: force one byte past the closed window. The
    // receiver either accepts it (and its ACK reopens the window) or
    // dup-ACKs with the current window; either way we learn the truth.
    // The probe byte rides the normal rtx queue, so backoff and loss
    // recovery come for free; try_send_data re-arms if the window is
    // still closed once the probe is ACKed.
    p.persist_deadline = kInf;
    if (p.unsent_bytes() != 0 && p.rtx.empty() &&
        (p.state == TcpState::kEstablished ||
         p.state == TcpState::kCloseWait)) {
      ++p.stats.persist_probes;
      if (!send_segment(id, static_cast<std::uint8_t>(kAck | kPsh), 1,
                        /*retransmission=*/false))
        p.persist_deadline = t + p.rto_sec;  // pool dry: retry later
    }
  }
  if (!p.rtx.empty() && t >= p.rtx_deadline) {
    ++p.retries;
    if (p.retries > cfg_.max_retransmits) {
      reset_connection(id);
      return;
    }
    const RtxSegment seg = p.rtx.front();
    send_segment(id, seg.flags, seg.len, /*retransmission=*/true, seg.seq);
    p.rto_sec = std::min(p.rto_sec * 2.0, cfg_.rto_max_sec);
    p.rtx_deadline = t + p.rto_sec;
  }
  // Mbuf-exhaustion recovery: a segment whose allocation failed was
  // neither sent nor queued for retransmit, so nothing is in flight to
  // drive progress — the rtx queue is empty while the connection still
  // owes the peer a segment. Re-attempt it each timer tick until the
  // pool recovers (snd_nxt was never advanced, so the sequence numbers
  // come out identical to the original attempt). On the wheel this rides
  // the kPoolRetrySec deadline earliest_deadline() keeps armed.
  if (p.rtx.empty()) {
    if (p.state == TcpState::kSynSent) {
      send_segment(id, kSyn, 0, /*retransmission=*/false);
    } else if (p.state == TcpState::kSynReceived) {
      send_segment(id, static_cast<std::uint8_t>(kSyn | kAck), 0,
                   /*retransmission=*/false);
    } else if (p.unsent_bytes() != 0 || p.fin_queued) {
      try_send_data(id);
    }
  }
}

std::pair<double, time::TimerClass> TcpLayer::earliest_deadline(
    const TcpPcb& p) const {
  double best = kInf;
  time::TimerClass cls = time::TimerClass::kCadence;
  const auto consider = [&](double d, time::TimerClass c) {
    if (d < best) {
      best = d;
      cls = c;
    }
  };
  switch (p.state) {
    case TcpState::kClosed:
    case TcpState::kListen:
      return {kInf, cls};
    case TcpState::kTimeWait:
      return {p.time_wait_deadline, time::TimerClass::kExpiry};
    default:
      break;
  }
  consider(p.delack_deadline, time::TimerClass::kCadence);
  if (cfg_.keepalive_idle_sec > 0.0 && p.rtx.empty() &&
      (p.state == TcpState::kEstablished || p.state == TcpState::kCloseWait ||
       p.state == TcpState::kFinWait2)) {
    consider(p.last_rcv_time + cfg_.keepalive_idle_sec +
                 p.keep_probes_sent * cfg_.keepalive_intvl_sec,
             time::TimerClass::kLiveness);
  }
  consider(p.persist_deadline, time::TimerClass::kLiveness);
  if (!p.rtx.empty()) consider(p.rtx_deadline, time::TimerClass::kLiveness);
  // Mbuf-exhaustion recovery cadence: the PCB owes the peer a segment it
  // could not allocate; keep a short-fuse liveness timer burning until
  // the pool recovers (mirrors pcb_timer's recovery block, which also
  // covers the zero-window stall where try_send_data is a cheap no-op).
  if (p.rtx.empty() &&
      (p.state == TcpState::kSynSent || p.state == TcpState::kSynReceived ||
       p.unsent_bytes() != 0 || p.fin_queued)) {
    consider(now() + kPoolRetrySec, time::TimerClass::kLiveness);
  }
  return {best, cls};
}

void TcpLayer::sync_wheel(PcbId id) {
  TcpPcb& p = pcb(id);
  const auto [deadline, cls] = earliest_deadline(p);
  p.wheel_timer = wheel_.rearm_no_later(p.wheel_timer, deadline, cls,
                                        [this, id] { pcb_timer(id); });
}

bool TcpLayer::audit(std::string* why) const {
  const auto fail = [why](std::string what) {
    if (why != nullptr) *why = std::move(what);
    return false;
  };
  const auto who = [this](PcbId id) {
    return "pcb " + std::to_string(id) + " (" +
           std::string(tcp_state_name(pcbs_[id]->state)) + ")";
  };
  for (PcbId id = 0; id < pcbs_.size(); ++id) {
    const TcpPcb& p = *pcbs_[id];
    if (slot_free(id) != p.is_free())
      return fail(who(id) + (p.is_free() ? ": closed but not marked free"
                                         : ": in use but marked free"));
    if (p.state == TcpState::kListen && listener_on(p.local_port) != id)
      return fail(who(id) + ": not the listener indexed for port " +
                  std::to_string(p.local_port));
    if (p.indexed()) {
      const auto it = index_.find(key_of(p));
      if (it == index_.end() || it->second != id)
        return fail(who(id) + ": not found by its own tuple");
    }
  }
  for (const auto& [key, id] : index_) {
    if (id >= pcbs_.size())
      return fail("index entry names missing slot " + std::to_string(id));
    if (!pcbs_[id]->indexed())
      return fail("index entry names " + who(id) + ", which owns no tuple");
    if (key_of(*pcbs_[id]) != key)
      return fail("index entry for port " + std::to_string(key.local_port) +
                  " names " + who(id) + " with a different tuple");
  }
  for (const auto& [port, id] : listeners_) {
    if (id >= pcbs_.size() || pcbs_[id]->state != TcpState::kListen ||
        pcbs_[id]->local_port != port)
      return fail("listener entry for port " + std::to_string(port) +
                  " names a slot that is not listening on it");
  }
  return true;
}

}  // namespace ldlp::stack
