#include "recover/convergence.hpp"

#include <cstdio>

namespace ldlp::recover {

void ConvergenceOracle::add_host(stack::Host& host,
                                 fault::FaultInjector* injector) {
  hosts_.push_back({&host, injector});
}

bool ConvergenceOracle::ready() const {
  if (!armed_) return false;
  for (const Tracked& t : hosts_) {
    if (t.injector != nullptr && !t.injector->faults_cleared()) return false;
  }
  for (const auto& cleared : clearances_) {
    if (!cleared()) return false;
  }
  return true;
}

bool ConvergenceOracle::pcb_converged(const stack::TcpPcb& p) noexcept {
  switch (p.state) {
    case stack::TcpState::kClosed:
    case stack::TcpState::kListen:
    case stack::TcpState::kTimeWait:
      return true;
    case stack::TcpState::kEstablished:
    case stack::TcpState::kCloseWait:
      // Quiescent both ways: nothing left to send, nothing in flight,
      // no gap the peer still owes us, no FIN waiting to go out.
      return p.send_buffer.empty() && p.rtx.empty() && p.ooo.empty() &&
             !p.fin_queued;
    default:
      // Handshake and close intermediates owe a peer interaction; they
      // must resolve (forward or via reset) within the budget.
      return false;
  }
}

bool ConvergenceOracle::converged() const {
  for (const Tracked& t : hosts_) {
    stack::TcpLayer& tcp = t.host->tcp();
    for (stack::PcbId id = 0; id < tcp.pcb_count(); ++id) {
      if (!pcb_converged(tcp.pcb_view(id))) return false;
    }
  }
  return true;
}

void ConvergenceOracle::on_pass() {
  ++stats_.passes;
  if (!ready()) {
    ready_passes_ = 0;
    return;
  }
  ++ready_passes_;
  if (converged()) {
    if (stats_.passes_to_converge == 0)
      stats_.passes_to_converge = ready_passes_;
    return;
  }
  stats_.passes_to_converge = 0;  // regressed; only the final state counts
  if (ready_passes_ > cfg_.budget_passes && !flagged_) {
    flagged_ = true;
    flag_violations();
  }
}

void ConvergenceOracle::flag_violations() {
  char line[192];
  for (const Tracked& t : hosts_) {
    stack::TcpLayer& tcp = t.host->tcp();
    for (stack::PcbId id = 0; id < tcp.pcb_count(); ++id) {
      const stack::TcpPcb& p = tcp.pcb_view(id);
      if (pcb_converged(p)) continue;
      std::snprintf(line, sizeof line,
                    "%s pcb%u %s not converged %llu passes after faults "
                    "cleared (send_buf=%zu rtx=%zu ooo=%zu fin_queued=%d)",
                    t.host->name().c_str(), id,
                    std::string(tcp_state_name(p.state)).c_str(),
                    static_cast<unsigned long long>(ready_passes_),
                    p.unsent_bytes(), p.rtx.size(), p.ooo.size(),
                    p.fin_queued ? 1 : 0);
      violations_.emplace_back(line);
      ++stats_.violations;
    }
  }
  if (violations_.empty()) {
    // Defensive: flag_violations is only called when !converged(), but a
    // pcb freed between the check and the walk must still leave a trace.
    violations_.emplace_back("convergence budget exceeded");
    ++stats_.violations;
  }
}

void ConvergenceOracle::publish(obs::Registry& registry,
                                std::string_view prefix) const {
  const std::string p(prefix);
  registry.counter(p + ".passes").set(stats_.passes);
  registry.counter(p + ".passes_to_converge").set(stats_.passes_to_converge);
  registry.counter(p + ".violations").set(stats_.violations);
}

}  // namespace ldlp::recover
