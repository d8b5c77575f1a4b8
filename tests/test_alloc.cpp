// Allocation gate for the steady-state TCP data path.
//
// A counting operator new, linked into this binary only, counts every heap
// allocation the process makes. Two hosts joined back to back with
// NetDevice::connect run 64 B request/reply and 1460 B stream traffic with
// the server under the conventional schedule, LDLP, and the staged
// (StagedRx kHybrid) receive path. After a warm-up long enough for every
// queue and ring to reach its working size, a window of traffic must make
// an exact number of allocations. Churn (connect, request, reply, close)
// is held to a fixed count per connection. A timer wheel whose timers are
// re-armed and never queried must stop allocating once it is full.
//
// The counts are deterministic — the same code makes the same calls in
// the same order — so this gate sees a regression that timing noise on a
// shared host would hide.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "pipe/pipeline.hpp"
#include "stack/host_pair.hpp"
#include "time/timer_wheel.hpp"

namespace {
std::uint64_t g_news = 0;

void* counted_alloc(std::size_t n) {
  ++g_news;
  return std::malloc(n != 0 ? n : 1);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++g_news;
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

// Out of line, so GCC does not see free() meet a new-expression's pointer
// once a delete is inlined (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return operator new(n, al);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace ldlp::stack {
namespace {

enum class Sched { kConv, kLdlp, kStaged };
constexpr std::array kScheds = {Sched::kConv, Sched::kLdlp, Sched::kStaged};

const char* sched_name(Sched s) {
  switch (s) {
    case Sched::kConv: return "conv";
    case Sched::kLdlp: return "ldlp";
    case Sched::kStaged: return "staged";
  }
  return "?";
}

constexpr std::uint16_t kPort = 80;
constexpr std::size_t kMsg = 64;
constexpr std::size_t kSeg = 1460;
/// One wheel tick per step; the warm-up runs 5 s of traffic.
constexpr double kStepSec = 1e-3;
constexpr int kWarmupSteps = 5000;
constexpr int kMeasureSteps = 2000;

/// Two hosts on a back-to-back wire: the client always conventional, the
/// server under `sched` (the layout of bench/e2e).
class Rig : public HostPair {
 public:
  explicit Rig(Sched sched)
      : HostPair({.name = "client", .tcp = {.time_wait_sec = 0.005}},
                 {.name = "server",
                  .mode = sched == Sched::kConv ? core::SchedMode::kConventional
                                                : core::SchedMode::kLdlp,
                  .tcp = {.time_wait_sec = 0.005}}) {
    if (sched == Sched::kStaged) {
      pipe::PipelineConfig pc;
      pc.mode = pipe::RxMode::kHybrid;
      pc.lanes = 2;
      pc.batch_limit = 8;
      staged = std::make_unique<pipe::StagedRx>(server, pc);
    }
    server.tcp().set_accept_hook([this](PcbId id) { accepted = id; });
    (void)server.tcp().listen(kPort);
  }

  [[nodiscard]] std::uint32_t server_ip() { return server.ip().ip_addr(); }

  void server_rx() {
    if (staged != nullptr) {
      (void)staged->pump();
    } else {
      (void)server.pump();
    }
  }

  void advance() {
    for (Host* h : {&client, &server}) {
      h->advance(kStepSec);
      (void)h->wheel().next_deadline();
    }
  }

  Host& client = a;
  Host& server = b;
  std::unique_ptr<pipe::StagedRx> staged;
  PcbId accepted = kNoPcb;
};

/// One 64 B request/reply connection; an op is one reply collected.
class RequestReply {
 public:
  explicit RequestReply(Sched sched) : rig_(sched) {
    for (std::size_t k = 0; k < kMsg; ++k)
      req_[k] = static_cast<std::uint8_t>(k * 7 + 1);
    conn_ = rig_.client.tcp().connect(rig_.server_ip(), kPort);
    for (int i = 0; i < 50 && rig_.accepted == kNoPcb; ++i) step();
  }

  [[nodiscard]] bool established() const {
    return rig_.accepted != kNoPcb &&
           rig_.client.tcp().state(conn_) == TcpState::kEstablished;
  }

  void step() {
    rig_.server_rx();
    serve();
    rig_.client.pump();
    dial();
    rig_.advance();
  }

  std::uint64_t ops = 0;
  bool ok = true;

 private:
  void serve() {
    if (rig_.accepted == kNoPcb) return;
    SocketLayer& socks = rig_.server.sockets();
    const SocketId sock = rig_.server.tcp().socket_of(rig_.accepted);
    while (socks.readable_bytes(sock) > 0) {
      have_ += socks.read(sock, std::span(in_).subspan(have_));
      if (have_ < kMsg) break;
      have_ = 0;
      ok &= rig_.server.tcp().send(rig_.accepted, in_);
    }
  }

  void dial() {
    if (rig_.accepted == kNoPcb) return;
    SocketLayer& socks = rig_.client.sockets();
    const SocketId sock = rig_.client.tcp().socket_of(conn_);
    if (waiting_) {
      got_ += socks.read(sock, std::span(reply_).subspan(got_));
      if (got_ < kMsg) return;
      ok &= reply_ == req_;
      waiting_ = false;
      ++ops;
    }
    got_ = 0;
    waiting_ = true;
    ok &= rig_.client.tcp().send(conn_, req_);
  }

  Rig rig_;
  PcbId conn_ = kNoPcb;
  std::array<std::uint8_t, kMsg> req_{};
  std::array<std::uint8_t, kMsg> in_{};
  std::array<std::uint8_t, kMsg> reply_{};
  std::size_t have_ = 0;
  std::size_t got_ = 0;
  bool waiting_ = false;
};

/// One-way bulk transfer in 1460 B writes; an op is one write read back
/// by the server application.
class Stream {
 public:
  explicit Stream(Sched sched) : rig_(sched) {
    for (std::size_t k = 0; k < pattern_.size(); ++k)
      pattern_[k] = static_cast<std::uint8_t>(k * 31 + 5);
    conn_ = rig_.client.tcp().connect(rig_.server_ip(), kPort);
    for (int i = 0; i < 50 && rig_.accepted == kNoPcb; ++i) step();
  }

  [[nodiscard]] bool established() const {
    return rig_.accepted != kNoPcb &&
           rig_.client.tcp().state(conn_) == TcpState::kEstablished;
  }

  void step() {
    rig_.server_rx();
    read();
    rig_.client.pump();
    write();
    rig_.advance();
  }

  std::uint64_t ops = 0;
  bool ok = true;

 private:
  void read() {
    if (rig_.accepted == kNoPcb) return;
    SocketLayer& socks = rig_.server.sockets();
    const std::size_t n =
        socks.read(rig_.server.tcp().socket_of(rig_.accepted), rx_);
    for (std::size_t i = 0; i < n; ++i)
      ok &= rx_[i] == pattern_[(rx_off_ + i) % kSeg];
    rx_off_ += n;
    ops = rx_off_ / kSeg;
    if (n >= 2 * kSeg) rig_.server.tcp().ack_now(rig_.accepted);
  }

  void write() {
    if (rig_.accepted == kNoPcb) return;
    while (rig_.client.tcp().send(conn_, pattern_)) {
    }
  }

  Rig rig_;
  PcbId conn_ = kNoPcb;
  std::array<std::uint8_t, kSeg> pattern_{};
  std::array<std::uint8_t, 64 * 1024> rx_{};
  std::uint64_t rx_off_ = 0;
};

/// Short connections: connect, send 64 B, read the 64 B reply, close.
/// The server replies and closes on the client's FIN. An op is one
/// connection completed.
class Churn {
 public:
  explicit Churn(Sched sched) : rig_(sched) {
    rig_.server.tcp().set_accept_hook([this](PcbId id) {
      ok &= served_n_ < served_.size();
      if (served_n_ < served_.size()) served_[served_n_++] = id;
    });
  }

  void step() {
    rig_.server_rx();
    serve();
    rig_.client.pump();
    dial();
    rig_.advance();
  }

  std::uint64_t ops = 0;
  bool ok = true;

 private:
  void serve() {
    TcpLayer& tcp = rig_.server.tcp();
    SocketLayer& socks = rig_.server.sockets();
    for (std::size_t j = 0; j < served_n_;) {
      const PcbId id = served_[j];
      const SocketId sock = tcp.socket_of(id);
      if (socks.readable_bytes(sock) >= kMsg) {
        ok &= socks.read(sock, in_) == kMsg;
        ok &= tcp.send(id, in_);
      }
      if (tcp.state(id) == TcpState::kCloseWait ||
          tcp.state(id) == TcpState::kClosed) {
        tcp.close(id);
        served_[j] = served_[--served_n_];
        continue;
      }
      ++j;
    }
  }

  void dial() {
    TcpLayer& tcp = rig_.client.tcp();
    if (conn_ != kNoPcb) {
      const SocketId sock = tcp.socket_of(conn_);
      if (rig_.client.sockets().readable_bytes(sock) < kMsg) return;
      ok &= rig_.client.sockets().read(sock, reply_) == kMsg;
      tcp.close(conn_);
      ++ops;
    }
    conn_ = tcp.connect(rig_.server_ip(), kPort);
    ok &= tcp.send(conn_, req_);
  }

  Rig rig_;
  PcbId conn_ = kNoPcb;
  std::array<PcbId, 64> served_{};
  std::size_t served_n_ = 0;
  std::array<std::uint8_t, kMsg> req_{};
  std::array<std::uint8_t, kMsg> in_{};
  std::array<std::uint8_t, kMsg> reply_{};
};

struct Window {
  std::uint64_t ops = 0;
  std::uint64_t news = 0;
};

/// Warm up, then count allocations and ops over the measurement window.
template <typename Workload>
Window measure(Workload& w) {
  for (int i = 0; i < kWarmupSteps; ++i) w.step();
  const std::uint64_t ops0 = w.ops;
  const std::uint64_t news0 = g_news;
  for (int i = 0; i < kMeasureSteps; ++i) w.step();
  return {w.ops - ops0, g_news - news0};
}

/// A connection's only allocations: the node of its 4-tuple in each
/// host's demux index (std::unordered_map), client and server.
constexpr std::uint64_t kChurnNewsPerConnection = 2;

TEST(AllocGate, RequestReply64MakesNoAllocationPerOp) {
  for (const Sched s : kScheds) {
    RequestReply w(s);
    ASSERT_TRUE(w.established()) << sched_name(s);
    const Window win = measure(w);
    EXPECT_TRUE(w.ok) << sched_name(s);
    EXPECT_GT(win.ops, 1000u) << sched_name(s);
    EXPECT_EQ(win.news, 0u)
        << sched_name(s) << ": " << win.news << " allocations over "
        << win.ops << " ops";
  }
}

TEST(AllocGate, Stream1460MakesNoAllocationPerOp) {
  for (const Sched s : kScheds) {
    Stream w(s);
    ASSERT_TRUE(w.established()) << sched_name(s);
    const Window win = measure(w);
    EXPECT_TRUE(w.ok) << sched_name(s);
    EXPECT_GT(win.ops, 10000u) << sched_name(s);
    EXPECT_EQ(win.news, 0u)
        << sched_name(s) << ": " << win.news << " allocations over "
        << win.ops << " ops";
  }
}

TEST(AllocGate, ChurnCostsAFixedCountPerConnection) {
  for (const Sched s : kScheds) {
    Churn w(s);
    const Window win = measure(w);
    EXPECT_TRUE(w.ok) << sched_name(s);
    EXPECT_GT(win.ops, 500u) << sched_name(s);
    EXPECT_EQ(win.news, kChurnNewsPerConnection * win.ops)
        << sched_name(s) << ": " << win.news << " allocations over "
        << win.ops << " connections";
  }
}

/// 1,024 timers, each re-armed every 8 ms (128 per 1 ms tick, round-robin)
/// at +50 ms, so none fires, and nothing ever calls next_deadline(): once
/// the wheel is full, its second second makes no allocation.
TEST(AllocGate, RearmedTimersMakeNoAllocationWithoutQueries) {
  constexpr int kTimers = 1024;
  constexpr int kPerTick = kTimers / 8;
  time::TimerWheel wheel;
  std::array<time::TimerId, kTimers> ids{};
  int fired = 0;
  std::uint64_t news0 = 0;
  for (int ms = 1; ms <= 2000; ++ms) {
    if (ms == 1001) news0 = g_news;
    const double now = ms * kStepSec;
    wheel.advance_to(now);
    for (int i = ms % 8 * kPerTick; i < (ms % 8 + 1) * kPerTick; ++i)
      ids[i] = wheel.rearm(ids[i], now + 0.05, time::TimerClass::kCadence,
                           [&fired] { ++fired; });
  }
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(wheel.armed_count(), static_cast<std::size_t>(kTimers));
  EXPECT_EQ(g_news - news0, 0u) << "allocations in the second second";
}

}  // namespace
}  // namespace ldlp::stack
