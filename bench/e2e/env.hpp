// One benchmark cell: two real stack::Hosts joined by
// NetDevice::connect, driven from one thread. The client is the load
// generator and always runs the conventional schedule; the server runs
// the schedule under test:
//
//   conv   — core::SchedMode::kConventional (run to completion per frame)
//   ldlp   — core::SchedMode::kLdlp (layer-blocked batches, §3.1)
//   staged — pipe::StagedRx kHybrid, 2 lanes, batch_limit 8 (the
//            settings of bench/native_micro's staged benchmark)
//
// One driver step is: server receive, server application, client pump,
// client application, then both hosts advance a fixed 10 us of virtual
// time. No wall-clock value enters the control flow, so a seed fixes
// every frame, batch and counter; the wall clock only stamps latencies
// and decides when a timed round ends.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pipe/pipeline.hpp"
#include "probe.hpp"
#include "stack/host.hpp"
#include "traffic/arrivals.hpp"

namespace ldlp::e2e {

enum class Sched : std::uint8_t { kConv, kLdlp, kStaged };
inline constexpr std::size_t kScheds = 3;
inline constexpr std::array<Sched, kScheds> kAllScheds = {
    Sched::kConv, Sched::kLdlp, Sched::kStaged};

[[nodiscard]] constexpr const char* sched_name(Sched s) noexcept {
  constexpr std::array<const char*, kScheds> kNames = {"conv", "ldlp",
                                                       "staged"};
  return kNames[static_cast<std::size_t>(s)];
}

enum class Kind : std::uint8_t { kRr, kStream, kBurst, kChurn };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t flows;  ///< Connections, dialers or UDP flows.
  const char* why;
};

// Each workload names the layers it loads; see README.md for the
// predictions each one carries.
inline constexpr std::array<Workload, 5> kWorkloads = {{
    {"rr1_tcp64", Kind::kRr, 1,
     "light load: one 64 B TCP request/reply at a time, so batches are one "
     "frame and per-message fixed costs dominate; LDLP should add nothing"},
    {"rr24_tcp64", Kind::kRr, 24,
     "loaded: 24 closed-loop 64 B TCP conns put ~24 frames in each pump, so "
     "LDLP batches form and 24 PCBs thrash the one-entry PCB cache"},
    {"stream_tcp1460", Kind::kStream, 1,
     "bulk one-way TCP in 1460 B writes: the per-byte layers (copies, "
     "checksum, clusters) do the work and per-message cost is diluted"},
    {"burst_udp_mix", Kind::kBurst, 16,
     "self-similar 80k dgram/s UDP trace over 16 flows with the 1989 "
     "Ethernet size mix: batches form and dissolve on their own"},
    {"churn_tcp64", Kind::kChurn, 16,
     "16 dialers connect, send 64 B, read 64 B, close: TCP state machine, "
     "PCB alloc/free and TIME_WAIT timers; data-path work is small"},
}};

[[nodiscard]] const Workload* find_workload(std::string_view name) noexcept;

/// Quotas are per connection (rr, churn) so every schedule starts the
/// same ops on the same connections; stream and burst have one sequence.
[[nodiscard]] constexpr std::size_t op_slots(const Workload& wl) noexcept {
  return wl.kind == Kind::kRr || wl.kind == Kind::kChurn ? wl.flows : 1;
}

/// Inputs made from --seed once per run and shared by every cell, so the
/// three schedules see the same bytes and the same burst trace.
struct Inputs {
  Inputs(const Workload& wl, std::uint64_t seed);

  std::uint64_t seed;
  /// Payload source: every payload is a slice of this buffer at an
  /// offset derived from (seed, flow, op), so receivers can check bytes.
  std::vector<std::uint8_t> pattern;
  std::vector<traffic::PacketArrival> arrivals;  ///< burst_udp_mix only.
  std::vector<std::uint8_t> arrival_flow;
  double trace_sec = 0.0;  ///< The trace repeats with this period.
};

/// The four per-PCB counters the benchmark reports, summed over PCBs.
struct PcbTotals {
  std::uint64_t fast_path = 0;
  std::uint64_t slow_path = 0;
  std::uint64_t pure_acks = 0;
  std::uint64_t retransmits = 0;
};

/// Counters a measured phase is judged by, read through public APIs.
struct Counters {
  std::uint64_t completed = 0;
  stack::NetDeviceStats client_dev;
  stack::NetDeviceStats server_dev;
  buf::PoolStats client_pool;
  buf::PoolStats server_pool;
  stack::TcpLayerStats server_tcp;
  PcbTotals server_pcbs;
  PcbTotals client_pcbs;
  time::WheelStats server_wheel;
  /// Server graph layers: eth, ip, tcp, udp, socket.
  std::array<core::LayerStats, 5> server_layers{};
  std::array<pipe::StageCounters, 3> stages{};  ///< parse, steer, proto.
};

class Env {
 public:
  Env(const Workload& wl, Sched sched, const Inputs& in, Probe& probe);

  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  /// Listener or UDP bindings, then connections one at a time (firing
  /// them together parks SYNs behind ARP, whose per-IP queue holds 8).
  void setup();
  /// Allow `per_slot` more ops on every slot (connection, dialer,
  /// or the UDP trace) and step until all of them are done.
  void run_quota(std::uint64_t per_slot);
  /// Start ops without bound, stamping op latencies into `lat`, until the
  /// caller stops stepping and calls finish().
  void open(LatencyHistogram* lat) noexcept;
  void step();
  /// Stop starting ops, drain the ops in flight, close every connection and
  /// check that PCBs and mbufs return to baseline.
  void finish();

  /// Hash app-visible results (reply bytes, stream bytes, datagrams).
  void enable_digest() noexcept { digesting_ = true; }
  [[nodiscard]] std::uint64_t digest() const noexcept;

  [[nodiscard]] std::uint64_t started() const noexcept { return started_; }
  [[nodiscard]] std::uint64_t completed() const noexcept {
    return completed_;
  }
  [[nodiscard]] std::uint64_t lost() const noexcept { return lost_; }
  /// Whole passes through the burst trace the generator has released.
  [[nodiscard]] std::uint64_t trace_laps() const noexcept {
    return in_.arrivals.empty() ? 0 : cursor_ / in_.arrivals.size();
  }
  [[nodiscard]] Counters counters() const;
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
    return errors_;
  }

 private:
  /// A client connection (rr, stream) or dialer (churn) and its op.
  struct Dialer {
    stack::PcbId pcb = stack::kNoPcb;
    stack::SocketId sock = stack::kNoSocket;
    bool waiting = false;
    std::size_t got = 0;
    std::uint32_t seq = 0;
    std::size_t off = 0;  ///< Pattern offset of the outstanding request.
    std::int64_t t_start = 0;
    std::array<std::uint8_t, 64> reply{};
  };
  /// A server-side accepted connection.
  struct Served {
    stack::PcbId pcb = stack::kNoPcb;
    stack::SocketId sock = stack::kNoSocket;
    std::uint16_t flow = 0;  ///< Accept order.
    std::uint32_t ops = 0;
    std::size_t have = 0;
    std::array<std::uint8_t, 64> req{};
    std::array<std::uint8_t, 64> reply{};
  };
  /// A datagram of the burst trace, from arrival to delivery.
  struct Pending {
    std::uint16_t flow = 0;
    std::uint32_t seq = 0;
    std::uint32_t size = 0;
    std::int64_t t_due = 0;
  };
  struct StreamWrite {
    std::uint64_t end = 0;
    std::int64_t t_start = 0;
  };
  /// Per-PCB counters survive slot reuse only if read before it: open
  /// PCBs are summed live, closed ones when the application closes them.
  class PcbLedger {
   public:
    void open(stack::PcbId id) { open_.push_back(id); }
    void close(const stack::TcpLayer& tcp, stack::PcbId id);
    [[nodiscard]] PcbTotals total(const stack::TcpLayer& tcp) const;

   private:
    std::vector<stack::PcbId> open_;
    PcbTotals closed_;
  };

  void server_rx();
  void serve_tcp();
  void read_requests(Served& sv);
  void read_stream(Served& sv);
  void serve_udp();
  void dial_rr();
  void dial_churn();
  void write_stream();
  void send_burst();
  bool collect_reply(Dialer& d, std::size_t slot);
  void send_request(Dialer& d, std::size_t slot);
  void on_accept(stack::PcbId id);

  [[nodiscard]] bool may_start(std::size_t slot) const noexcept {
    return started_by_slot_[slot] < cap_[slot];
  }
  void note_start(std::size_t slot) noexcept {
    ++started_by_slot_[slot];
    ++started_;
  }
  void complete(std::int64_t t_start) noexcept;
  [[nodiscard]] bool quiescent() const noexcept;
  void drain(const char* what);
  [[nodiscard]] std::size_t payload_offset(std::size_t flow,
                                           std::uint32_t seq) const noexcept;
  [[nodiscard]] std::uint64_t counted_udp_drops() const;
  [[nodiscard]] bool server_idle() const;
  void check_leaks();
  void fail(std::string what);

  const Workload& wl_;
  Sched sched_;
  const Inputs& in_;
  Probe& probe_;
  std::uint32_t client_ip_ = 0;
  std::uint32_t server_ip_ = 0;
  std::unique_ptr<stack::Host> client_;
  std::unique_ptr<stack::Host> server_;
  std::unique_ptr<pipe::StagedRx> staged_;
  buf::PoolStats client_pool0_;
  buf::PoolStats server_pool0_;

  std::vector<std::uint64_t> cap_;
  std::vector<std::uint64_t> started_by_slot_;
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t lost_ = 0;
  LatencyHistogram* lat_ = nullptr;
  bool digesting_ = false;
  std::vector<std::uint64_t> digests_;

  stack::PcbId listener_ = stack::kNoPcb;
  std::vector<Dialer> dialers_;
  std::vector<Served> served_;
  std::uint16_t accepted_ = 0;
  PcbLedger client_ledger_;
  PcbLedger server_ledger_;

  std::uint64_t tx_off_ = 0;  ///< Stream bytes written by the client.
  std::uint64_t rx_off_ = 0;  ///< Stream bytes read by the server.
  std::deque<StreamWrite> writes_;
  std::vector<std::uint8_t> rxbuf_;

  std::vector<stack::SocketId> udp_socks_;
  std::deque<Pending> backlog_;
  std::vector<std::deque<Pending>> inflight_;
  std::vector<std::uint32_t> unsent_;
  std::vector<std::uint32_t> next_seq_;
  std::vector<std::uint8_t> txbuf_;
  std::uint64_t cursor_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint32_t tick_phase_ = 0;

  std::vector<std::string> errors_;
};

}  // namespace ldlp::e2e
