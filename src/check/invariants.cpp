#include "check/invariants.hpp"

#include <cmath>
#include <limits>

#include "stack/tcp_pcb.hpp"
#include "wire/tcp.hpp"

namespace ldlp::check {

HostAuditor::HostAuditor(stack::Host& host, std::string label)
    : host_(host), label_(label.empty() ? host.name() : std::move(label)) {}

void HostAuditor::install() {
  host_.set_post_pass_hook([this] { run(); });
}

void HostAuditor::run() {
  ++stats_.passes;
  audit_tcp();
  audit_reassembly();
  audit_arp();
  for (const auto& audit : extra_audits_)
    for (const std::string& what : audit()) violation(what);
}

void HostAuditor::audit_tcp() {
  using stack::seq_gt;
  using stack::seq_leq;
  using stack::seq_lt;
  using stack::TcpState;

  stack::TcpLayer& tcp = host_.tcp();
  for (std::uint32_t id = 0; id < tcp.pcb_count(); ++id) {
    const stack::TcpPcb& p = tcp.pcb_view(id);
    PcbTrack& track = tracks_[id];
    if (p.state == TcpState::kClosed || p.state == TcpState::kListen) {
      track.valid = false;  // slot free: next tenant re-baselines
      continue;
    }
    ++stats_.pcbs_checked;
    const std::string who =
        label_ + " pcb " + std::to_string(id) + " (" +
        std::string(tcp_state_name(p.state)) + ")";

    // Sequence pointers must never cross: snd_una <= snd_nxt <= snd_max.
    if (!seq_leq(p.snd_una, p.snd_nxt))
      violation(who + ": snd_una " + std::to_string(p.snd_una) +
                " ahead of snd_nxt " + std::to_string(p.snd_nxt));
    if (!seq_leq(p.snd_nxt, p.snd_max))
      violation(who + ": snd_nxt " + std::to_string(p.snd_nxt) +
                " ahead of snd_max " + std::to_string(p.snd_max));

    // Retransmit timer armed exactly when something is in flight.
    const bool armed = std::isfinite(p.rtx_deadline);
    if (armed != !p.rtx.empty())
      violation(who + ": rtx timer " +
                (armed ? "armed with empty rtx queue"
                       : "disarmed with data in flight"));

    // The persist timer is a last-resort probe: it may only be armed when
    // a zero window blocks queued data and nothing is in flight (an ACK
    // of in-flight data would carry the window update instead).
    if (std::isfinite(p.persist_deadline) &&
        (!p.rtx.empty() || p.unsent_bytes() == 0 || p.snd_wnd != 0))
      violation(who + ": persist timer armed outside a zero-window stall" +
                " (rtx=" + std::to_string(p.rtx.size()) +
                " sndbuf=" + std::to_string(p.unsent_bytes()) +
                " snd_wnd=" + std::to_string(p.snd_wnd) + ")");

    // The rtx queue tiles [snd_una, snd_nxt): the oldest segment covers
    // snd_una, consecutive segments are contiguous in sequence space,
    // and the newest ends exactly at snd_nxt.
    if (!p.rtx.empty()) {
      std::uint32_t expect = 0;
      bool first = true;
      for (std::size_t i = 0; i < p.rtx.size(); ++i) {
        const stack::RtxSegment& seg = p.rtx[i];
        const std::uint32_t space =
            seg.len + ((seg.flags & wire::tcpflags::kSyn) != 0 ? 1 : 0) +
            ((seg.flags & wire::tcpflags::kFin) != 0 ? 1 : 0);
        if (first) {
          if (seq_gt(seg.seq, p.snd_una) ||
              !seq_gt(seg.seq + space, p.snd_una)) {
            violation(who + ": oldest rtx segment [" +
                      std::to_string(seg.seq) + ", +" +
                      std::to_string(space) + ") does not cover snd_una " +
                      std::to_string(p.snd_una));
            break;
          }
          first = false;
        } else if (seg.seq != expect) {
          violation(who + ": rtx queue gap at seq " + std::to_string(expect));
          break;
        }
        expect = seg.seq + space;
      }
      if (!first && expect != p.snd_nxt)
        violation(who + ": rtx queue ends at " + std::to_string(expect) +
                  " but snd_nxt is " + std::to_string(p.snd_nxt));
    }

    // Per-incarnation monotonicity: the receiver never un-receives and
    // the sender never un-acknowledges. A PCB slot is recycled across
    // connections, so the baseline resets when (iss, irs) changes.
    if (track.valid && track.iss == p.iss && track.irs == p.irs) {
      if (seq_lt(p.rcv_nxt, track.rcv_nxt))
        violation(who + ": rcv_nxt moved backwards (" +
                  std::to_string(track.rcv_nxt) + " -> " +
                  std::to_string(p.rcv_nxt) + ")");
      if (seq_lt(p.snd_una, track.snd_una))
        violation(who + ": snd_una moved backwards (" +
                  std::to_string(track.snd_una) + " -> " +
                  std::to_string(p.snd_una) + ")");
    }
    track.valid = true;
    track.iss = p.iss;
    track.irs = p.irs;
    track.rcv_nxt = p.rcv_nxt;
    track.snd_una = p.snd_una;
  }

  // The demux index agrees with the PCBs: a stale entry would steer a
  // segment to a closed slot or to the slot's next tenant.
  std::string why;
  if (!tcp.audit(&why)) violation(label_ + " tcp demux: " + why);
}

void HostAuditor::audit_reassembly() {
  std::string why;
  if (!host_.ip().reassembly().audit(&why))
    violation(label_ + " reassembly: " + why);
}

void HostAuditor::audit_arp() {
  std::string why;
  if (!host_.eth().arp().audit(&why))
    violation(label_ + " arp: " + why);
}

void HostAuditor::violation(const std::string& what) {
  ++stats_.violations;
  // The simulated time pins which scheduler pass exposed the state.
  violations_.push_back("[t=" + std::to_string(host_.now()) + "] " + what);
}

void HostAuditor::publish(obs::Registry& registry,
                          std::string_view prefix) const {
  const std::string p(prefix);
  registry.counter(p + ".passes").set(stats_.passes);
  registry.counter(p + ".pcbs_checked").set(stats_.pcbs_checked);
  registry.counter(p + ".violations").set(stats_.violations);
}

}  // namespace ldlp::check
