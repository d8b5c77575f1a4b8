// Hardware-counter cross-check: L1 instruction-cache misses of the *real*
// stack under conventional vs LDLP scheduling, measured with
// perf_event_open on the host CPU.
//
// The paper's effect is strongest on 8 KB-cache 1995 machines; modern
// cores have 32-64 KB L1i and deep front ends, so the absolute numbers
// here are small — the point of this bench is methodological: the same
// experiment the paper ran with an instruction-level simulator can be run
// against this library's native code path with CPU counters. In
// containers or locked-down kernels perf_event is often unavailable; the
// bench then reports that and exits cleanly.
#include <cstdio>
#include <cstring>
#include <vector>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "pipe/pipeline.hpp"
#include "stack/host_pair.hpp"

using namespace ldlp;

namespace {

#if defined(__linux__)

class PerfCounter {
 public:
  explicit PerfCounter(std::uint64_t config_value, std::uint32_t type) {
    perf_event_attr attr{};
    attr.size = sizeof attr;
    attr.type = type;
    attr.config = config_value;
    attr.disabled = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    fd_ = static_cast<int>(
        syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
  }
  ~PerfCounter() {
    if (fd_ >= 0) close(fd_);
  }
  [[nodiscard]] bool ok() const noexcept { return fd_ >= 0; }
  void start() const {
    ioctl(fd_, PERF_EVENT_IOC_RESET, 0);
    ioctl(fd_, PERF_EVENT_IOC_ENABLE, 0);
  }
  [[nodiscard]] std::uint64_t stop() const {
    ioctl(fd_, PERF_EVENT_IOC_DISABLE, 0);
    std::uint64_t value = 0;
    if (read(fd_, &value, sizeof value) != sizeof value) return 0;
    return value;
  }

 private:
  int fd_ = -1;
};

/// Run `frames` TCP data segments through a receiving host in bursts of
/// `burst`, counting L1i misses during the receive-side processing only.
std::uint64_t measure(core::SchedMode mode, int frames, int burst,
                      PerfCounter& counter) {
  stack::HostPair net({.name = "tx"}, {.name = "rx", .mode = mode});
  stack::Host& tx = net.a;
  stack::Host& rx = net.b;
  (void)rx.tcp().listen(80);
  stack::PcbId accepted = stack::kNoPcb;
  rx.tcp().set_accept_hook([&](stack::PcbId id) { accepted = id; });
  const stack::PcbId conn = tx.tcp().connect(rx.ip().ip_addr(), 80);
  net.settle(8);
  if (accepted == stack::kNoPcb) return 0;

  const std::vector<std::uint8_t> payload(400, 0x7a);
  std::vector<std::uint8_t> sink(65536);
  std::uint64_t total = 0;
  for (int sent = 0; sent < frames; sent += burst) {
    for (int i = 0; i < burst; ++i) {
      (void)tx.tcp().send(conn, payload);
      tx.pump();
    }
    counter.start();
    rx.pump();  // the measured region: the receive path only
    total += counter.stop();
    (void)rx.sockets().read(rx.tcp().socket_of(accepted), sink);
    tx.pump();
  }
  return total;
}

/// Same idea for the staged receive path: `frames` UDP datagrams pulled
/// through pipe::StagedRx in bursts of `burst`, counting L1i misses
/// inside StagedRx::pump() only — the native analogue of fig_pipeline's
/// simulated i-miss/msg column.
std::uint64_t measure_staged(pipe::RxMode mode, int frames, int burst,
                             PerfCounter& counter) {
  // StagedRx schedules the receiver's graph itself.
  stack::HostPair net({.name = "tx"},
                      {.name = "rx", .mode = core::SchedMode::kLdlp});
  stack::Host& tx = net.a;
  stack::Host& rx = net.b;
  const std::uint32_t rx_ip = rx.ip().ip_addr();

  pipe::PipelineConfig pc;
  pc.mode = mode;
  pc.lanes = 2;
  pc.batch_limit = 8;
  pipe::StagedRx staged(rx, pc);

  const stack::SocketId sock =
      rx.sockets().create(stack::SocketKind::kDatagram);
  if (!rx.udp().bind(9000, sock)) return 0;
  const std::vector<std::uint8_t> payload(256, 0x7a);
  tx.udp().send(9001, rx_ip, 9000, payload);  // parks behind ARP
  for (int i = 0; i < 6; ++i) {
    tx.pump();
    (void)staged.pump();
  }
  while (rx.sockets().read_datagram(sock).has_value()) {
  }

  std::uint64_t total = 0;
  for (int sent = 0; sent < frames; sent += burst) {
    for (int i = 0; i < burst; ++i)
      tx.udp().send(9001, rx_ip, 9000, payload);
    tx.pump();
    counter.start();
    (void)staged.pump();  // the measured region: the staged rx path only
    total += counter.stop();
    while (rx.sockets().read_datagram(sock).has_value()) {
    }
  }
  return total;
}

#endif  // __linux__

}  // namespace

int main() {
#if defined(__linux__)
  const std::uint64_t l1i_miss =
      PERF_COUNT_HW_CACHE_L1I | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
      (PERF_COUNT_HW_CACHE_RESULT_MISS << 16);
  PerfCounter counter(l1i_miss, PERF_TYPE_HW_CACHE);
  if (!counter.ok()) {
    std::printf(
        "native_icache: perf_event_open unavailable (container or\n"
        "kernel.perf_event_paranoid) — skipping the hardware-counter\n"
        "cross-check. The simulated-machine benches carry the result.\n");
    return 0;
  }

  const int frames = 4096;
  const int burst = 32;
  std::printf("L1 I-cache misses, native receive path, %d frames in "
              "bursts of %d:\n", frames, burst);
  for (const auto mode :
       {core::SchedMode::kConventional, core::SchedMode::kLdlp}) {
    std::uint64_t best = ~0ull;
    for (int rep = 0; rep < 3; ++rep) {
      const std::uint64_t misses = measure(mode, frames, burst, counter);
      if (misses != 0 && misses < best) best = misses;
    }
    std::printf("  %-13s %10.1f misses/frame\n",
                mode == core::SchedMode::kLdlp ? "LDLP" : "conventional",
                static_cast<double>(best) / frames);
  }
  std::printf("\nL1 I-cache misses, staged receive path (pipe::StagedRx), "
              "%d frames in bursts of %d:\n", frames, burst);
  for (const auto mode : {pipe::RxMode::kLdlp, pipe::RxMode::kPipelined,
                          pipe::RxMode::kHybrid}) {
    std::uint64_t best = ~0ull;
    for (int rep = 0; rep < 3; ++rep) {
      const std::uint64_t misses = measure_staged(mode, frames, burst,
                                                  counter);
      if (misses != 0 && misses < best) best = misses;
    }
    std::printf("  %-13s %10.1f misses/frame\n", pipe::rx_mode_name(mode),
                static_cast<double>(best) / frames);
  }
  std::printf(
      "\n(Modern L1i caches are 4-8x the paper's machine and the mini-\n"
      "stack's code footprint is small, so expect a much smaller gap than\n"
      "the 1995 simulation shows — direction, not magnitude.)\n");
#else
  std::printf("native_icache: perf_event is Linux-only; skipping.\n");
#endif
  return 0;
}
