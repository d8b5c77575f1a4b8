// Per-protocol structural invariants, checked after every scheduler pass.
//
// Where the DeliveryOracle judges a run by its end-to-end outcome, the
// HostAuditor condemns bad *intermediate* states the moment they appear:
// a TCP PCB whose sequence pointers cross, a retransmit timer armed with
// nothing in flight, a reassembly table that accepted overlapping
// fragments, an ARP cache whose parked-packet accounting drifted. Install
// one auditor per host via install(); it hangs itself on the host's
// post-pass hook so every pump() that handled frames is followed by a
// full audit. Violations accumulate with the simulated time at which the
// state was first seen — under deterministic seeds that pins the exact
// scheduler pass.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "stack/host.hpp"

namespace ldlp::check {

struct AuditorStats {
  std::uint64_t passes = 0;       ///< Audit sweeps run.
  std::uint64_t pcbs_checked = 0;
  std::uint64_t violations = 0;
};

class HostAuditor {
 public:
  explicit HostAuditor(stack::Host& host, std::string label = {});

  /// Hook this auditor onto the host's post-pass hook (replaces any
  /// previous hook; one auditor per host).
  void install();

  /// One audit sweep over TCP PCBs and their demux index, the IP
  /// reassembly table and the ARP cache, plus every registered extra
  /// audit. Safe to call directly (tests do) as well as from the hook.
  void run();

  /// Register a subsystem-supplied audit: it returns the violations it
  /// found this sweep (empty = clean) and runs on every run(). This is how
  /// structures the auditor cannot know about — the ldlp::pipe stage
  /// queues and their mbuf-ownership invariant — join the per-pass sweep
  /// without a check -> pipe dependency.
  void add_audit(std::function<std::vector<std::string>()> audit) {
    extra_audits_.push_back(std::move(audit));
  }

  [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
  [[nodiscard]] const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] const AuditorStats& stats() const noexcept { return stats_; }

  /// Mirror totals into an obs registry as <prefix>.* counters.
  void publish(obs::Registry& registry,
               std::string_view prefix = "check.audit") const;

 private:
  /// Last-seen per-incarnation state for monotonicity checks. A PCB slot
  /// is reused across connections, so tracking re-baselines whenever the
  /// slot's (iss, irs) pair changes or it returns to Closed/Listen.
  struct PcbTrack {
    bool valid = false;
    std::uint32_t iss = 0;
    std::uint32_t irs = 0;
    std::uint32_t rcv_nxt = 0;
    std::uint32_t snd_una = 0;
  };

  void audit_tcp();
  void audit_reassembly();
  void audit_arp();
  void violation(const std::string& what);

  stack::Host& host_;
  std::string label_;
  std::vector<std::function<std::vector<std::string>()>> extra_audits_;
  std::map<std::uint32_t, PcbTrack> tracks_;
  std::vector<std::string> violations_;
  AuditorStats stats_;
};

}  // namespace ldlp::check
