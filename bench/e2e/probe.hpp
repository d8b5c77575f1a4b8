// Measurement probes for the end-to-end benchmark.
//
// The driver measures the stack from outside, through public APIs only:
// every call it makes into a layer's public function goes through
// Probe::call(), which does nothing in the untraced timed pass, records a
// wall-clock span in the traced pass, and in the footprint pass streams
// the server's memory references for that call through the paper's
// machine (stack::StackTracer -> TraceBuffer -> sim::MemorySystem). The
// control flow is identical in all three passes: no probe result feeds
// back into what the driver does next.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/memory_system.hpp"
#include "stack/footprints.hpp"
#include "trace/trace_buffer.hpp"

namespace ldlp::e2e {

enum class Side : std::uint8_t { kClient, kServer };
inline constexpr std::size_t kSides = 2;

/// The layer boundaries the driver calls across; one span name each.
enum class Bnd : std::uint8_t {
  kDev,      ///< Server NetDevice::poll, Host::pull_frame.
  kGraph,    ///< Server Host::inject_rx, StackGraph::run.
  kPipe,     ///< Server pipe::StagedRx::pump.
  kPump,     ///< Client Host::pump.
  kRead,     ///< SocketLayer::read / read_datagram.
  kTx,       ///< TcpLayer::send / ack_now, UdpLayer::send.
  kCtl,      ///< TCP listen / connect / close, UDP bind / unbind.
  kAdvance,  ///< Host::advance.
  kCount
};
inline constexpr std::size_t kBnds = static_cast<std::size_t>(Bnd::kCount);

[[nodiscard]] constexpr const char* bnd_name(Bnd b) noexcept {
  constexpr std::array<const char*, kBnds> kNames = {
      "dev", "graph", "pipe", "pump", "sock_read", "tx", "ctl", "advance"};
  return kNames[static_cast<std::size_t>(b)];
}

/// Batch calls carry the number of frames they covered; the others carry
/// the op they serve.
[[nodiscard]] constexpr bool bnd_is_batch(Bnd b) noexcept {
  return b == Bnd::kDev || b == Bnd::kGraph || b == Bnd::kPipe ||
         b == Bnd::kPump || b == Bnd::kAdvance;
}

[[nodiscard]] inline std::int64_t wall_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t arg = 0;   ///< Op sequence number, or frames in the batch.
  std::uint16_t flow = 0;  ///< Connection / flow of a per-op call.
  Bnd bnd = Bnd::kDev;
  Side side = Side::kClient;
};

/// The paper's machine: 8 KB direct-mapped split I/D caches, 32 B lines,
/// 20-cycle miss (sim::MemoryConfig's defaults). Each traced call's
/// reference stream is replayed into it with misses scoped by the
/// reference's Table 1 layer class, then the buffer is cleared, so the
/// replay's memory stays bounded by one call.
class Footprint {
 public:
  explicit Footprint(stack::StackTracer& tracer)
      : tracer_(tracer), mem_(sim::MemoryConfig{}) {}

  void begin() noexcept { tracer_.activate(buffer_); }
  void end() noexcept {
    tracer_.deactivate();
    for (const trace::MemRef& r : buffer_.refs()) {
      mem_.set_scope(static_cast<std::uint32_t>(r.layer));
      const sim::Access kind = r.kind == trace::RefKind::kCode
                                   ? sim::Access::kIFetch
                               : r.kind == trace::RefKind::kRead
                                   ? sim::Access::kRead
                                   : sim::Access::kWrite;
      (void)mem_.access(kind, r.addr, r.len);
    }
    buffer_.clear();
  }

  [[nodiscard]] sim::MemorySystem& memory() noexcept { return mem_; }

 private:
  stack::StackTracer& tracer_;
  trace::TraceBuffer buffer_;
  sim::MemorySystem mem_;
};

class Probe {
 public:
  /// Traced pass: time every call. Spans are summed per side x boundary;
  /// up to `keep_cap` of them are also kept for the Chrome trace while
  /// keep_spans(true) is in effect.
  void enable_spans(std::size_t keep_cap) {
    spans_ = true;
    keep_cap_ = keep_cap;
    kept_.reserve(keep_cap);
  }
  void keep_spans(bool on) noexcept { keeping_ = on; }

  /// Footprint pass: stream every server-side call through `fp`.
  void attach_footprint(Footprint* fp) noexcept { footprint_ = fp; }

  template <class F>
  decltype(auto) call(Side side, Bnd bnd, std::uint32_t arg,
                      std::uint16_t flow, F&& fn) {
    const bool fp = footprint_ != nullptr && side == Side::kServer;
    if (fp) footprint_->begin();
    const Finish done{this, fp, spans_ ? wall_ns() : 0, arg, flow, bnd, side};
    return std::forward<F>(fn)();
  }

  /// Summed span time of one side x boundary.
  [[nodiscard]] std::int64_t ns(Side side, Bnd bnd) const noexcept {
    return ns_[static_cast<std::size_t>(side)][static_cast<std::size_t>(bnd)];
  }
  [[nodiscard]] const std::vector<Span>& kept() const noexcept {
    return kept_;
  }

 private:
  struct Finish {
    Probe* probe;
    bool footprint;
    std::int64_t start;
    std::uint32_t arg;
    std::uint16_t flow;
    Bnd bnd;
    Side side;
    ~Finish() {
      if (footprint) probe->footprint_->end();
      if (probe->spans_) probe->record(*this);
    }
  };

  void record(const Finish& f) {
    const std::int64_t end = wall_ns();
    ns_[static_cast<std::size_t>(f.side)][static_cast<std::size_t>(f.bnd)] +=
        end - f.start;
    if (keeping_ && kept_.size() < keep_cap_)
      kept_.push_back(Span{f.start, end, f.arg, f.flow, f.bnd, f.side});
  }

  bool spans_ = false;
  bool keeping_ = false;
  std::size_t keep_cap_ = 0;
  Footprint* footprint_ = nullptr;
  std::array<std::array<std::int64_t, kBnds>, kSides> ns_{};
  std::vector<Span> kept_;
};

/// Op-latency histogram: 200 log-spaced buckets per decade from 10 ns to
/// 10 s (~1.2 % wide), so the bench's own memory does not grow with the
/// op rate. Unlike ldlp::LogHistogram, which answers with bucket
/// midpoints, quantiles interpolate within the bucket by rank; otherwise
/// estimates taken over many windows would snap to the bucket grid.
class LatencyHistogram {
 public:
  static constexpr int kPerDecade = 200;
  static constexpr double kLoNs = 10.0;
  static constexpr int kDecades = 9;

  LatencyHistogram() : counts_(kPerDecade * kDecades + 2, 0) {}

  void add(std::int64_t ns) noexcept {
    const double v = static_cast<double>(ns);
    std::size_t i = 0;
    if (v >= kLoNs) {
      const auto b = static_cast<std::size_t>(std::log10(v / kLoNs) *
                                              kPerDecade);
      i = std::min(b + 1, counts_.size() - 1);
    }
    ++counts_[i];
    ++total_;
  }

  void merge(const LatencyHistogram& other) noexcept {
    for (std::size_t i = 0; i < counts_.size(); ++i)
      counts_[i] += other.counts_[i];
    total_ += other.total_;
  }
  void reset() noexcept {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
  }

  /// Quantile in microseconds; 0 when empty.
  [[nodiscard]] double quantile_us(double q) const noexcept {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_ - 1);
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(before + counts_[i]) > rank) {
        const double frac =
            (rank - static_cast<double>(before) + 0.5) /
            static_cast<double>(counts_[i]);
        return edge_ns(i, frac) / 1e3;
      }
      before += counts_[i];
    }
    return edge_ns(counts_.size() - 1, 1.0) / 1e3;
  }

 private:
  /// Value at fraction `frac` through bucket `i` (log-linear). The
  /// underflow bucket spans [0, lo), the overflow bucket is one step wide.
  [[nodiscard]] static double edge_ns(std::size_t i, double frac) noexcept {
    if (i == 0) return kLoNs * frac;
    const double lg = (static_cast<double>(i - 1) + frac) / kPerDecade;
    return kLoNs * std::pow(10.0, lg);
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace ldlp::e2e
