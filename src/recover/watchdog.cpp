#include "recover/watchdog.hpp"

#include <cstdio>

namespace ldlp::recover {

void ProgressWatchdog::add_host(stack::Host& host,
                                fault::FaultInjector* injector) {
  hosts_.push_back({&host, injector, progress_fingerprint(host), 0, false});
}

std::uint64_t ProgressWatchdog::occupancy(stack::Host& host) {
  std::uint64_t held = host.graph().backlog() + host.device().rx_pending();
  stack::TcpLayer& tcp = host.tcp();
  for (stack::PcbId id = 0; id < tcp.pcb_count(); ++id) {
    const stack::TcpPcb& p = tcp.pcb_view(id);
    held += p.unsent_bytes() + p.rtx.size() + p.ooo.size();
  }
  return held;
}

std::uint64_t ProgressWatchdog::progress_fingerprint(stack::Host& host) {
  std::uint64_t sum = 0;
  core::StackGraph& graph = host.graph();
  for (core::LayerId id = 0; id < graph.layer_count(); ++id) {
    const core::LayerStats& s = graph.layer(id).stats();
    sum += s.processed + s.drops;
  }
  const stack::NetDeviceStats& d = host.device().stats();
  sum += d.rx_frames + d.tx_frames + d.rx_drops + d.tx_drops;
  // Segments built count even when the wire later eats them — the host
  // *acted*; retransmits and probes during a quiet stretch are progress.
  stack::TcpLayer& tcp = host.tcp();
  for (stack::PcbId id = 0; id < tcp.pcb_count(); ++id)
    sum += tcp.pcb_view(id).stats.segs_out;
  return sum;
}

void ProgressWatchdog::on_pass() {
  ++stats_.passes;
  bool fleet_cleared = true;
  for (const auto& cleared : clearances_) {
    if (!cleared()) {
      fleet_cleared = false;
      break;
    }
  }
  for (Tracked& t : hosts_) {
    const std::uint64_t fp = progress_fingerprint(*t.host);
    const bool cleared =
        fleet_cleared &&
        (t.injector == nullptr || t.injector->faults_cleared());
    const bool moved = fp != t.fingerprint;
    t.fingerprint = fp;
    if (!cleared || moved || occupancy(*t.host) == 0) {
      t.stalled = 0;
      continue;
    }
    ++t.stalled;
    if (t.stalled >= cfg_.stall_passes && !t.flagged) {
      t.flagged = true;
      ++stats_.stalls_flagged;
      char line[160];
      std::snprintf(line, sizeof line,
                    "%s holds %llu queued units with zero progress for "
                    "%llu passes",
                    t.host->name().c_str(),
                    static_cast<unsigned long long>(occupancy(*t.host)),
                    static_cast<unsigned long long>(t.stalled));
      violation(line);
    }
  }
}

void ProgressWatchdog::publish(obs::Registry& registry,
                               std::string_view prefix) const {
  const std::string p(prefix);
  registry.counter(p + ".passes").set(stats_.passes);
  registry.counter(p + ".stalls_flagged").set(stats_.stalls_flagged);
}

}  // namespace ldlp::recover
