// Figure 1: plot of active code for the TCP receive & acknowledge path —
// per-function touched bytes in each of the three Table 2 phases, with the
// per-phase code/read/write footers.
#include <cstdio>

#include <string>

#include "bench_util.hpp"
#include "stack/rx_path_trace.hpp"
#include "trace/code_map_render.hpp"
#include "trace/working_set.hpp"

int main(int argc, char** argv) {
  using namespace ldlp;
  benchutil::Flags flags(argc, argv);
  const auto payload = static_cast<std::uint32_t>(flags.u64("payload", 512));
  benchutil::BenchReport report("fig1_code_map", flags);
  flags.reject_unread();
  report.config_u64("payload", payload);

  stack::StackTracer tracer;
  trace::TraceBuffer buffer;
  if (!stack::trace_tcp_receive_ack(tracer, buffer, {payload, 2})) {
    std::fprintf(stderr, "FAILED: receive path did not complete\n");
    return 1;
  }

  benchutil::heading("Table 2: phases of the receive & acknowledge path");
  std::printf(
      "  entry    - process makes read() call, no data, blocks\n"
      "  pkt intr - segment arrives; Ethernet -> IP -> TCP fast path ->\n"
      "             socket buffer; sleeping process woken\n"
      "  exit     - process wakes, copies data out, TCP sends the ACK\n");

  benchutil::heading("Figure 1: map of active code (touched bytes per phase)");
  std::printf("%s", trace::render_code_map(tracer.code_map(), buffer).c_str());
  std::printf(
      "\nPaper footers for comparison: entry 3008 B code / 564 refs;\n"
      "pkt intr 13664 B / 43138 refs; exit 18240 B / 10518 refs.\n"
      "(Reference *counts* are modelled coarsely — loop revisit factors are\n"
      "approximate — byte footprints are the calibrated quantity.)\n");

  const auto ws = trace::analyze_working_set(buffer, 32);
  for (std::size_t i = 0; i < trace::kNumPhases; ++i) {
    const trace::PhaseSummary& phase = ws.phases[i];
    std::string name(trace::phase_name(static_cast<trace::Phase>(i)));
    for (char& c : name)
      if (c == ' ') c = '_';
    report.metric(name + ".code_bytes", static_cast<double>(phase.code_bytes));
    report.metric(name + ".code_refs", static_cast<double>(phase.code_refs));
    report.metric(name + ".read_bytes", static_cast<double>(phase.read_bytes));
    report.metric(name + ".write_bytes",
                  static_cast<double>(phase.write_bytes));
  }
  report.write();
  return 0;
}
