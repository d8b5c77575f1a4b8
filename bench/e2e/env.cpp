#include "env.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>

#include "common/byteorder.hpp"
#include "common/rng.hpp"
#include "traffic/self_similar.hpp"
#include "wire/ipv4.hpp"

namespace ldlp::e2e {

namespace {

constexpr double kStepSec = 10e-6;
constexpr std::size_t kMsg = 64;
constexpr std::size_t kSeg = 1460;
constexpr std::size_t kPatternLen = std::size_t{1} << 16;
constexpr std::uint8_t kReplyMask = 0xa5;
constexpr std::uint16_t kTcpPort = 7000;
constexpr std::uint16_t kUdpSrcPort = 20000;
constexpr std::uint16_t kUdpDstPort = 9000;
/// Short 2MSL so teardown (and churn's PCB reuse) is quick.
constexpr double kTimeWaitSec = 0.001;
constexpr std::size_t kUdpHiwat = 256 * 1024;
/// The burst trace is released in 100 us ticks of virtual time.
constexpr std::uint32_t kTickSteps = 10;
constexpr double kTickSec = kTickSteps * kStepSec;
/// Datagrams the client puts on the wire per step. It stays below the
/// 64-slot RX ring, so a heavy-tail tick queues in the client's backlog
/// (and shows as latency) instead of losing frames.
constexpr int kTxBudget = 48;
constexpr double kBurstRate = 80000.0;
constexpr double kTraceSec = 1.0;
constexpr std::uint32_t kMinDgram = 18;
constexpr std::uint32_t kMaxDgram = 1472;
constexpr std::size_t kDgramHeader = 6;  ///< seq (4) + flow (2).
/// Virtual 10 s: long enough for any TCP retransmission to repair a loss.
constexpr std::uint64_t kMaxDrainSteps = 1'000'000;
constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kUnlimited = std::numeric_limits<std::uint64_t>::max();

[[nodiscard]] std::uint64_t hash_bytes(std::uint64_t h,
                                       std::span<const std::uint8_t> b) {
  std::size_t i = 0;
  for (; i + 8 <= b.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, b.data() + i, 8);
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  for (; i < b.size(); ++i) h = (h ^ b[i]) * 0x100000001b3ULL;
  return h;
}

[[nodiscard]] std::uint16_t flow16(std::size_t i) noexcept {
  return static_cast<std::uint16_t>(i);
}

[[nodiscard]] std::size_t live_pcbs(const stack::TcpLayer& tcp) {
  std::size_t n = 0;
  for (stack::PcbId id = 0; id < tcp.pcb_count(); ++id)
    if (tcp.state(id) != stack::TcpState::kClosed) ++n;
  return n;
}

void add_pcb(PcbTotals& t, const stack::TcpPcbStats& s) noexcept {
  t.fast_path += s.fast_path;
  t.slow_path += s.slow_path;
  t.pure_acks += s.acks_sent;
  t.retransmits += s.retransmits;
}

}  // namespace

const Workload* find_workload(std::string_view name) noexcept {
  for (const Workload& wl : kWorkloads)
    if (name == wl.name) return &wl;
  return nullptr;
}

Inputs::Inputs(const Workload& wl, std::uint64_t s) : seed(s) {
  Rng rng(seed);
  // A slice of up to one max-size payload may start anywhere in the
  // period, so the buffer repeats that much of its start past the end:
  // byte x of any slice is pattern[x mod kPatternLen].
  pattern.resize(kPatternLen + kMaxDgram);
  for (std::size_t i = 0; i < kPatternLen; ++i)
    pattern[i] = static_cast<std::uint8_t>(rng());
  std::copy_n(pattern.begin(), kMaxDgram, pattern.begin() + kPatternLen);
  if (wl.kind == Kind::kBurst) {
    traffic::SelfSimilarConfig cfg;
    cfg.mean_rate_per_sec = kBurstRate;
    cfg.duration_sec = kTraceSec;
    const auto sizes = traffic::ethernet1989_sizes();
    arrivals = traffic::generate_self_similar_trace(cfg, *sizes, seed);
    Rng flows(seed ^ 0xf10f5eedULL);
    arrival_flow.resize(arrivals.size());
    for (std::uint8_t& f : arrival_flow)
      f = static_cast<std::uint8_t>(flows() % wl.flows);
    // A self-similar trace's mean rate wanders from seed to seed even over
    // a second. Rescale time so every seed offers exactly kBurstRate and
    // only the burst structure differs.
    trace_sec = static_cast<double>(arrivals.size()) / kBurstRate;
    for (traffic::PacketArrival& a : arrivals)
      a.time *= trace_sec / kTraceSec;
  }
}

void Env::PcbLedger::close(const stack::TcpLayer& tcp, stack::PcbId id) {
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it == open_.end()) return;
  open_.erase(it);
  add_pcb(closed_, tcp.pcb_stats(id));
}

PcbTotals Env::PcbLedger::total(const stack::TcpLayer& tcp) const {
  PcbTotals t = closed_;
  for (const stack::PcbId id : open_) add_pcb(t, tcp.pcb_stats(id));
  return t;
}

Env::Env(const Workload& wl, Sched sched, const Inputs& in, Probe& probe)
    : wl_(wl),
      sched_(sched),
      in_(in),
      probe_(probe),
      client_ip_(wire::ip_from_parts(10, 0, 0, 1)),
      server_ip_(wire::ip_from_parts(10, 0, 0, 2)) {
  stack::HostConfig cc;
  cc.name = "client";
  cc.mac = {0x02, 0, 0, 0, 0, 0x01};
  cc.ip = client_ip_;
  cc.tcp.time_wait_sec = kTimeWaitSec;
  stack::HostConfig sc = cc;
  sc.name = "server";
  sc.mac = {0x02, 0, 0, 0, 0, 0x02};
  sc.ip = server_ip_;
  sc.mode = sched == Sched::kConv ? core::SchedMode::kConventional
                                  : core::SchedMode::kLdlp;
  client_ = std::make_unique<stack::Host>(cc);
  server_ = std::make_unique<stack::Host>(sc);
  stack::NetDevice::connect(client_->device(), server_->device());
  if (sched == Sched::kStaged) {
    pipe::PipelineConfig pc;
    pc.mode = pipe::RxMode::kHybrid;
    pc.lanes = 2;
    pc.batch_limit = 8;
    staged_ = std::make_unique<pipe::StagedRx>(*server_, pc);
  }
  server_->tcp().set_accept_hook([this](stack::PcbId id) { on_accept(id); });

  cap_.assign(op_slots(wl), 0);
  started_by_slot_.assign(cap_.size(), 0);
  digests_.assign(wl.flows, kDigestSeed);
  client_pool0_ = client_->pool().stats();
  server_pool0_ = server_->pool().stats();
}

// ---- set-up and phases ----------------------------------------------------

void Env::setup() {
  const auto listen = [&] {
    listener_ = probe_.call(Side::kServer, Bnd::kCtl, 0, 0, [&] {
      return server_->tcp().listen(kTcpPort);
    });
  };
  switch (wl_.kind) {
    case Kind::kRr:
    case Kind::kStream:
      listen();
      if (wl_.kind == Kind::kStream) rxbuf_.resize(64 * 1024);
      dialers_.resize(wl_.flows);
      for (std::size_t i = 0; i < dialers_.size(); ++i) {
        Dialer& d = dialers_[i];
        d.pcb = probe_.call(Side::kClient, Bnd::kCtl, 0, flow16(i), [&] {
          return client_->tcp().connect(server_ip_, kTcpPort);
        });
        d.sock = client_->tcp().socket_of(d.pcb);
        client_ledger_.open(d.pcb);
        for (std::uint64_t n = 0;
             client_->tcp().state(d.pcb) != stack::TcpState::kEstablished ||
             accepted_ != i + 1;
             ++n) {
          if (n == kMaxDrainSteps) {
            fail("connection setup stalled");
            return;
          }
          step();
        }
      }
      break;
    case Kind::kChurn:
      listen();
      dialers_.resize(wl_.flows);
      cap_[0] = 1;  // one op alone resolves ARP
      drain("ARP resolution");
      break;
    case Kind::kBurst:
      for (std::size_t f = 0; f < wl_.flows; ++f) {
        const stack::SocketId sock = server_->sockets().create(
            stack::SocketKind::kDatagram, kUdpHiwat);
        const bool bound =
            probe_.call(Side::kServer, Bnd::kCtl, 0, flow16(f), [&] {
              return server_->udp().bind(
                  static_cast<std::uint16_t>(kUdpDstPort + f), sock);
            });
        if (!bound) fail("udp bind refused");
        udp_socks_.push_back(sock);
      }
      inflight_.resize(wl_.flows);
      unsent_.assign(wl_.flows, 0);
      next_seq_.assign(wl_.flows, 0);
      txbuf_.resize(kMaxDgram);
      cap_[0] = 1;  // one datagram alone resolves ARP
      drain("ARP resolution");
      break;
  }
}

void Env::run_quota(std::uint64_t per_slot) {
  for (std::uint64_t& cap : cap_) cap += per_slot;
  drain("measured ops");
}

void Env::open(LatencyHistogram* lat) noexcept {
  lat_ = lat;
  std::fill(cap_.begin(), cap_.end(), kUnlimited);
}

void Env::finish() {
  cap_ = started_by_slot_;
  drain("ops in flight");
  lat_ = nullptr;
  if (wl_.kind == Kind::kRr || wl_.kind == Kind::kStream) {
    for (std::size_t i = 0; i < dialers_.size(); ++i) {
      if (dialers_[i].pcb == stack::kNoPcb) continue;  // set-up failed
      probe_.call(Side::kClient, Bnd::kCtl, dialers_[i].seq, flow16(i),
                  [&] { client_->tcp().close(dialers_[i].pcb); });
      client_ledger_.close(client_->tcp(), dialers_[i].pcb);
    }
  }
  if (listener_ != stack::kNoPcb)
    probe_.call(Side::kServer, Bnd::kCtl, 0, 0,
                [&] { server_->tcp().close(listener_); });
  for (std::size_t f = 0; f < udp_socks_.size(); ++f)
    probe_.call(Side::kServer, Bnd::kCtl, 0, flow16(f), [&] {
      server_->udp().unbind(static_cast<std::uint16_t>(kUdpDstPort + f));
    });
  // FIN handshakes, the server's CloseWait closes and TIME_WAIT expiry
  // all run in ordinary steps.
  for (std::uint64_t n = 0;
       live_pcbs(client_->tcp()) != 0 || live_pcbs(server_->tcp()) != 0 ||
       !server_idle();
       ++n) {
    if (n == kMaxDrainSteps) {
      fail("teardown stalled");
      break;
    }
    step();
  }
  check_leaks();
  if (wl_.kind == Kind::kBurst && lost_ != counted_udp_drops())
    fail("datagrams lost without a drop counter: " + std::to_string(lost_) +
         " lost, " + std::to_string(counted_udp_drops()) + " counted");
  if (client_->tcp().tcp_stats().conns_reset != 0 ||
      server_->tcp().tcp_stats().conns_reset != 0)
    fail("a connection was reset");
}

bool Env::quiescent() const noexcept {
  for (std::size_t i = 0; i < cap_.size(); ++i)
    if (started_by_slot_[i] < cap_[i]) return false;
  return completed_ + lost_ == started_;
}

void Env::drain(const char* what) {
  for (std::uint64_t n = 0; !quiescent(); ++n) {
    if (n == kMaxDrainSteps) {
      fail(std::string(what) + " did not finish");
      return;
    }
    step();
  }
}

void Env::complete(std::int64_t t_start) noexcept {
  ++completed_;
  if (lat_ != nullptr) lat_->add(wall_ns() - t_start);
}

std::size_t Env::payload_offset(std::size_t flow,
                                std::uint32_t seq) const noexcept {
  std::uint64_t state = in_.seed ^ (std::uint64_t{flow} << 32) ^ seq;
  return static_cast<std::size_t>(splitmix64(state) % kPatternLen);
}

// ---- one driver step ------------------------------------------------------

void Env::step() {
  server_rx();
  if (wl_.kind == Kind::kBurst) {
    serve_udp();
  } else {
    serve_tcp();
  }
  probe_.call(Side::kClient, Bnd::kPump,
              static_cast<std::uint32_t>(client_->device().rx_pending()), 0,
              [&] { return client_->pump(); });
  switch (wl_.kind) {
    case Kind::kRr: dial_rr(); break;
    case Kind::kStream: write_stream(); break;
    case Kind::kBurst: send_burst(); break;
    case Kind::kChurn: dial_churn(); break;
  }
  // After advancing a host, ask its wheel for the next deadline, as
  // net::Fabric's idle check does. That call is the only place the wheel
  // pops cancelled entries off its deadline heap; without it the heap
  // grows by one entry per armed timer, and the stack's working set grows
  // until a neighbour on the last-level cache halves its throughput.
  for (const Side side : {Side::kClient, Side::kServer}) {
    stack::Host& host = side == Side::kClient ? *client_ : *server_;
    probe_.call(side, Bnd::kAdvance, 0, 0, [&] {
      host.advance(kStepSec);
      (void)host.wheel().next_deadline();
    });
  }
}

void Env::server_rx() {
  stack::Host& s = *server_;
  const auto pending = static_cast<std::uint32_t>(s.device().rx_pending());
  if (staged_ != nullptr) {
    probe_.call(Side::kServer, Bnd::kPipe, pending, 0,
                [&] { return staged_->pump(); });
    return;
  }
  // Host::pump_queue, inlined so each half is timed on its own: the
  // device-interrupt half (pull_frame) and the softirq half (inject_rx,
  // then one layer-blocked graph run under LDLP).
  probe_.call(Side::kServer, Bnd::kDev, pending, 0,
              [&] { s.device().poll(); });
  std::uint32_t frames = 0;
  while (s.device().rx_pending(0) > 0) {
    buf::Packet frame = probe_.call(Side::kServer, Bnd::kDev, 1, 0,
                                    [&] { return s.pull_frame(0); });
    if (!frame) break;  // pool exhausted; frames wait in device memory
    ++frames;
    probe_.call(Side::kServer, Bnd::kGraph, 1, 0,
                [&] { s.inject_rx(std::move(frame)); });
  }
  if (frames > 0 && sched_ == Sched::kLdlp)
    probe_.call(Side::kServer, Bnd::kGraph, frames, 0,
                [&] { return s.graph().run(); });
}

// ---- server applications --------------------------------------------------

void Env::on_accept(stack::PcbId id) {
  Served sv;
  sv.pcb = id;
  sv.sock = server_->tcp().socket_of(id);
  sv.flow = accepted_++;
  served_.push_back(sv);
  server_ledger_.open(id);
}

void Env::serve_tcp() {
  stack::TcpLayer& tcp = server_->tcp();
  for (std::size_t j = 0; j < served_.size();) {
    Served& sv = served_[j];
    if (wl_.kind == Kind::kStream) {
      read_stream(sv);
    } else {
      read_requests(sv);
    }
    const stack::TcpState st = tcp.state(sv.pcb);
    if (st == stack::TcpState::kCloseWait || st == stack::TcpState::kClosed) {
      if (st == stack::TcpState::kClosed) fail("server connection reset");
      if (sv.have != 0) fail("request cut short by FIN");
      probe_.call(Side::kServer, Bnd::kCtl, sv.ops, sv.flow,
                  [&] { tcp.close(sv.pcb); });
      server_ledger_.close(tcp, sv.pcb);
      served_[j] = served_.back();
      served_.pop_back();
      continue;
    }
    ++j;
  }
}

void Env::read_requests(Served& sv) {
  stack::SocketLayer& socks = server_->sockets();
  while (socks.readable_bytes(sv.sock) > 0) {
    const std::size_t n =
        probe_.call(Side::kServer, Bnd::kRead, sv.ops, sv.flow, [&] {
          return socks.read(sv.sock, std::span(sv.req).subspan(sv.have));
        });
    sv.have += n;
    if (sv.have < kMsg) break;
    for (std::size_t k = 0; k < kMsg; ++k)
      sv.reply[k] = static_cast<std::uint8_t>(sv.req[k] ^ kReplyMask);
    const bool sent = probe_.call(Side::kServer, Bnd::kTx, sv.ops, sv.flow,
                                  [&] {
                                    return server_->tcp().send(sv.pcb,
                                                               sv.reply);
                                  });
    if (!sent) fail("server send refused");
    sv.have = 0;
    ++sv.ops;
  }
}

void Env::read_stream(Served& sv) {
  stack::SocketLayer& socks = server_->sockets();
  const std::size_t avail = socks.readable_bytes(sv.sock);
  if (avail == 0) return;
  const auto seg = static_cast<std::uint32_t>(rx_off_ / kSeg);
  const std::size_t n = probe_.call(Side::kServer, Bnd::kRead, seg, 0, [&] {
    return socks.read(sv.sock,
                      {rxbuf_.data(), std::min(avail, rxbuf_.size())});
  });
  // Byte-exact: stream offset x carries pattern[x mod kPatternLen].
  for (std::size_t done = 0; done < n;) {
    const std::size_t at = (rx_off_ + done) % kPatternLen;
    const std::size_t len = std::min(n - done, kPatternLen - at);
    if (std::memcmp(rxbuf_.data() + done, in_.pattern.data() + at, len) != 0)
      fail("stream bytes differ from the bytes sent");
    done += len;
  }
  if (digesting_) digests_[0] = hash_bytes(digests_[0], {rxbuf_.data(), n});
  rx_off_ += n;
  while (!writes_.empty() && writes_.front().end <= rx_off_) {
    complete(writes_.front().t_start);
    writes_.pop_front();
  }
  // 4.4BSD soreceive: a read that opens the window by two segments sends
  // a window update, so the sender never waits out a delayed ACK.
  if (n >= 2 * kSeg)
    probe_.call(Side::kServer, Bnd::kTx, seg, 0,
                [&] { server_->tcp().ack_now(sv.pcb); });
}

void Env::serve_udp() {
  stack::SocketLayer& socks = server_->sockets();
  for (std::size_t f = 0; f < udp_socks_.size(); ++f) {
    std::deque<Pending>& q = inflight_[f];
    while (socks.pending_datagrams(udp_socks_[f]) > 0) {
      const std::optional<stack::Datagram> d = probe_.call(
          Side::kServer, Bnd::kRead, next_seq_[f], flow16(f),
          [&] { return socks.read_datagram(udp_socks_[f]); });
      const std::vector<std::uint8_t>& p = d->payload;
      if (p.size() < kDgramHeader || q.size() == unsent_[f]) {
        fail("unexpected datagram");
        continue;
      }
      const Pending want = q.front();
      const std::uint32_t seq = load_be32(p.data());
      const std::uint16_t flow = load_be16(p.data() + 4);
      if (seq != want.seq) {
        fail("per-flow FIFO violated");
        continue;
      }
      q.pop_front();
      if (flow != f || d->from_port != kUdpSrcPort + f ||
          p.size() != want.size ||
          std::memcmp(p.data() + kDgramHeader,
                      in_.pattern.data() + payload_offset(f, seq),
                      p.size() - kDgramHeader) != 0)
        fail("datagram bytes differ from the bytes sent");
      if (digesting_) digests_[f] = hash_bytes(digests_[f], p);
      complete(want.t_due);
    }
  }
  // Every datagram the client sent in an earlier step has been through
  // the server's receive path by now, so one still unmatched was dropped
  // (unless it is parked behind ARP or the server's pool ran dry).
  if (client_->eth().arp().pending_total() != 0 ||
      server_->device().rx_pending() != 0 || server_->graph().backlog() != 0)
    return;
  for (std::size_t f = 0; f < inflight_.size(); ++f) {
    while (inflight_[f].size() > unsent_[f]) {
      inflight_[f].pop_front();
      ++lost_;
    }
  }
}

// ---- client applications --------------------------------------------------

bool Env::collect_reply(Dialer& d, std::size_t slot) {
  stack::SocketLayer& socks = client_->sockets();
  if (socks.readable_bytes(d.sock) == 0) return false;
  const std::size_t n =
      probe_.call(Side::kClient, Bnd::kRead, d.seq, flow16(slot), [&] {
        return socks.read(d.sock, std::span(d.reply).subspan(d.got));
      });
  d.got += n;
  if (d.got < kMsg) return false;
  for (std::size_t k = 0; k < kMsg; ++k) {
    if (d.reply[k] != (in_.pattern[d.off + k] ^ kReplyMask)) {
      fail("reply bytes differ from the request's transform");
      break;
    }
  }
  if (digesting_) digests_[slot] = hash_bytes(digests_[slot], d.reply);
  d.waiting = false;
  ++d.seq;
  complete(d.t_start);
  return true;
}

void Env::send_request(Dialer& d, std::size_t slot) {
  d.off = payload_offset(slot, d.seq);
  note_start(slot);
  const bool sent =
      probe_.call(Side::kClient, Bnd::kTx, d.seq, flow16(slot), [&] {
        return client_->tcp().send(
            d.pcb, {in_.pattern.data() + d.off, kMsg});
      });
  if (!sent) {
    fail("client send refused");
    ++lost_;
    return;
  }
  d.waiting = true;
  d.got = 0;
}

void Env::dial_rr() {
  for (std::size_t i = 0; i < dialers_.size(); ++i) {
    Dialer& d = dialers_[i];
    if (d.waiting && !collect_reply(d, i)) continue;
    if (!may_start(i)) continue;
    d.t_start = wall_ns();
    send_request(d, i);
  }
}

void Env::dial_churn() {
  stack::TcpLayer& tcp = client_->tcp();
  for (std::size_t i = 0; i < dialers_.size(); ++i) {
    Dialer& d = dialers_[i];
    if (d.waiting) {
      if (!collect_reply(d, i)) continue;
      probe_.call(Side::kClient, Bnd::kCtl, d.seq, flow16(i),
                  [&] { tcp.close(d.pcb); });
      client_ledger_.close(tcp, d.pcb);
    }
    if (!may_start(i)) continue;
    // The request rides behind the handshake: send() queues it in
    // SYN_SENT and the PCB transmits it on reaching ESTABLISHED.
    d.t_start = wall_ns();
    d.pcb = probe_.call(Side::kClient, Bnd::kCtl, d.seq, flow16(i), [&] {
      return tcp.connect(server_ip_, kTcpPort);
    });
    d.sock = tcp.socket_of(d.pcb);
    client_ledger_.open(d.pcb);
    send_request(d, i);
  }
}

void Env::write_stream() {
  Dialer& d = dialers_[0];
  while (may_start(0)) {
    const std::int64_t t = wall_ns();
    const auto seg = static_cast<std::uint32_t>(tx_off_ / kSeg);
    const bool sent = probe_.call(Side::kClient, Bnd::kTx, seg, 0, [&] {
      return client_->tcp().send(
          d.pcb, {in_.pattern.data() + tx_off_ % kPatternLen, kSeg});
    });
    if (!sent) break;  // send buffer full: the window is the limit
    tx_off_ += kSeg;
    writes_.push_back({tx_off_, t});
    note_start(0);
  }
}

void Env::send_burst() {
  const std::vector<traffic::PacketArrival>& arr = in_.arrivals;
  if (arr.empty()) return;
  // Trace time only runs while the generator may start ops, so a quota stop
  // pauses the trace instead of piling its arrivals up.
  if (may_start(0) && ++tick_phase_ == kTickSteps) {
    tick_phase_ = 0;
    ++ticks_;
    const double tick_end = static_cast<double>(ticks_) * kTickSec;
    const std::int64_t now = wall_ns();
    while (may_start(0)) {
      const std::size_t k = cursor_ % arr.size();
      const double t =
          arr[k].time +
          static_cast<double>(cursor_ / arr.size()) * in_.trace_sec;
      if (t >= tick_end) break;
      Pending p;
      p.flow = in_.arrival_flow[k];
      p.seq = next_seq_[p.flow]++;
      p.size = std::clamp(arr[k].size_bytes, kMinDgram, kMaxDgram);
      p.t_due = now;  // open loop: latency counts from when it was due
      backlog_.push_back(p);
      inflight_[p.flow].push_back(p);
      ++unsent_[p.flow];
      note_start(0);
      ++cursor_;
    }
  }
  for (int k = 0; k < kTxBudget && !backlog_.empty(); ++k) {
    const Pending p = backlog_.front();
    backlog_.pop_front();
    --unsent_[p.flow];
    store_be32(txbuf_.data(), p.seq);
    store_be16(txbuf_.data() + 4, p.flow);
    std::memcpy(txbuf_.data() + kDgramHeader,
                in_.pattern.data() + payload_offset(p.flow, p.seq),
                p.size - kDgramHeader);
    probe_.call(Side::kClient, Bnd::kTx, p.seq, p.flow, [&] {
      client_->udp().send(static_cast<std::uint16_t>(kUdpSrcPort + p.flow),
                          server_ip_,
                          static_cast<std::uint16_t>(kUdpDstPort + p.flow),
                          {txbuf_.data(), p.size});
    });
  }
}

// ---- accounting and checks ------------------------------------------------

Counters Env::counters() const {
  Counters c;
  c.completed = completed_;
  c.client_dev = client_->device().stats();
  c.server_dev = server_->device().stats();
  c.client_pool = client_->pool().stats();
  c.server_pool = server_->pool().stats();
  c.server_tcp = server_->tcp().tcp_stats();
  c.server_pcbs = server_ledger_.total(server_->tcp());
  c.client_pcbs = client_ledger_.total(client_->tcp());
  c.server_wheel = server_->wheel().stats();
  c.server_layers = {server_->eth().stats(), server_->ip().stats(),
                     server_->tcp().stats(), server_->udp().stats(),
                     server_->sockets().stats()};
  if (staged_ != nullptr) {
    c.stages = {staged_->counters(pipe::Stage::kParse),
                staged_->counters(pipe::Stage::kSteer),
                staged_->counters(pipe::Stage::kProto)};
  }
  return c;
}

std::uint64_t Env::counted_udp_drops() const {
  // Every place on the path that may discard a datagram, client send to
  // server socket. The hosts are fresh per cell, so totals are deltas.
  const Counters c = counters();
  std::uint64_t drops = c.client_dev.tx_drops + c.server_dev.rx_drops +
                        c.client_pool.alloc_failures +
                        client_->eth().arp().stats().park_drops;
  const core::GraphStats& g = server_->graph().graph_stats();
  drops += g.shed_entry + g.shed_depth;
  for (const core::LayerStats& l : c.server_layers) drops += l.drops;
  for (const pipe::StageCounters& s : c.stages) drops += s.drops;
  const stack::UdpStats& u = server_->udp().udp_stats();
  drops += u.rx_bad + u.rx_no_port;
  for (const stack::SocketId s : udp_socks_)
    drops += server_->sockets().socket_stats(s).overflows;
  return drops;
}

bool Env::server_idle() const {
  bool staged_empty = true;
  if (staged_ != nullptr) {
    for (const pipe::Stage st :
         {pipe::Stage::kParse, pipe::Stage::kSteer, pipe::Stage::kProto})
      staged_empty = staged_empty && staged_->counters(st).queue_len == 0;
  }
  return staged_empty && server_->device().rx_pending() == 0 &&
         client_->device().rx_pending() == 0 &&
         server_->graph().backlog() == 0 && client_->graph().backlog() == 0;
}

void Env::check_leaks() {
  const auto pool = [&](const char* who, const buf::PoolStats& now,
                        const buf::PoolStats& base) {
    if (now.mbufs_outstanding() != base.mbufs_outstanding() ||
        now.clusters_outstanding() != base.clusters_outstanding())
      fail(std::string(who) + " pool did not return to baseline: " +
           std::to_string(now.mbufs_outstanding()) + " mbufs, " +
           std::to_string(now.clusters_outstanding()) + " clusters out");
  };
  pool("client", client_->pool().stats(), client_pool0_);
  pool("server", server_->pool().stats(), server_pool0_);
  if (live_pcbs(client_->tcp()) != 0 || live_pcbs(server_->tcp()) != 0)
    fail("PCBs still open after teardown");
  if (client_->eth().arp().pending_total() != 0 ||
      server_->eth().arp().pending_total() != 0)
    fail("packets still parked behind ARP");
  if (staged_ != nullptr)
    for (const std::string& v : staged_->audit()) fail("staged: " + v);
}

std::uint64_t Env::digest() const noexcept {
  std::uint64_t h = kDigestSeed;
  for (const std::uint64_t d : digests_) {
    std::uint8_t b[8];
    store_be64(b, d);
    h = hash_bytes(h, b);
  }
  return h;
}

void Env::fail(std::string what) {
  constexpr std::size_t kMaxErrors = 16;
  if (errors_.size() < kMaxErrors)
    errors_.push_back(std::string(wl_.name) + "/" + sched_name(sched_) +
                      ": " + std::move(what));
}

}  // namespace ldlp::e2e
