// Table 3: effect of cache line size on the working set of the TCP/IP
// receive trace. The same reference trace is re-rasterised at 4, 8, 16, 32
// and 64-byte lines; percentage changes are reported against the 32-byte
// baseline, exactly as the paper formats it.
#include <cstdio>

#include "bench_util.hpp"
#include "stack/rx_path_trace.hpp"
#include "trace/working_set.hpp"

namespace {

struct PaperDelta {
  int line;
  double code_bytes, code_lines;
  double ro_bytes, ro_lines;
  double mut_bytes, mut_lines;
};

// Percentage deltas vs the 32-byte baseline from the paper's Table 3.
constexpr PaperDelta kPaper[] = {
    {64, +17, -41, +44, -28, +55, -22},
    {32, 0, 0, 0, 0, 0, 0},
    {16, -13, +73, -31, +38, -38, +23},
    {8, -20, +216, -55, +81, -56, +75},
    {4, -25, +500, 0, 0, 0, 0},  // data N/A below the 8-byte word size
};

double pct(double value, double base) {
  return base != 0.0 ? (value - base) / base * 100.0 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ldlp;
  benchutil::Flags flags(argc, argv);
  const auto payload = static_cast<std::uint32_t>(flags.u64("payload", 512));
  benchutil::BenchReport report("table3_line_size", flags);
  flags.reject_unread();
  report.config_u64("payload", payload);

  stack::StackTracer tracer;
  trace::TraceBuffer buffer;
  if (!stack::trace_tcp_receive_ack(tracer, buffer, {payload, 2})) {
    std::fprintf(stderr, "FAILED: receive path did not complete\n");
    return 1;
  }

  const auto base = trace::analyze_working_set(buffer, 32);

  benchutil::heading(
      "Table 3: working-set change vs cache line size (deltas vs 32 B)");
  std::printf("%5s | %-23s | %-23s | %-23s\n", "line", "code bytes/lines",
              "RO bytes/lines", "mut bytes/lines");
  std::printf("%5s | %-23s | %-23s | %-23s\n", "", "paper -> measured",
              "paper -> measured", "paper -> measured");
  for (const PaperDelta& row : kPaper) {
    const auto ws =
        trace::analyze_working_set(buffer, static_cast<std::uint32_t>(row.line));
    const std::string line = std::to_string(row.line);
    report.metric("code_bytes@" + line,
                  static_cast<double>(ws.code_bytes()));
    report.metric("ro_bytes@" + line, static_cast<double>(ws.ro_bytes()));
    report.metric("mut_bytes@" + line, static_cast<double>(ws.mut_bytes()));
    const double code_b = pct(static_cast<double>(ws.code_bytes()),
                              static_cast<double>(base.code_bytes()));
    const double code_l = pct(static_cast<double>(ws.total.code_lines),
                              static_cast<double>(base.total.code_lines));
    const double ro_b = pct(static_cast<double>(ws.ro_bytes()),
                            static_cast<double>(base.ro_bytes()));
    const double ro_l = pct(static_cast<double>(ws.total.ro_lines),
                            static_cast<double>(base.total.ro_lines));
    const double mut_b = pct(static_cast<double>(ws.mut_bytes()),
                             static_cast<double>(base.mut_bytes()));
    const double mut_l = pct(static_cast<double>(ws.total.mut_lines),
                             static_cast<double>(base.total.mut_lines));
    if (row.line == 4) {
      // Paper marks data entries N/A (64-bit word size).
      std::printf(
          "%5d | %+4.0f%%/%+5.0f%% -> %+4.0f%%/%+5.0f%% | %-23s | %-23s\n",
          row.line, row.code_bytes, row.code_lines, code_b, code_l,
          "N/A", "N/A");
      continue;
    }
    std::printf(
        "%5d | %+4.0f%%/%+5.0f%% -> %+4.0f%%/%+5.0f%% | %+4.0f%%/%+4.0f%% -> "
        "%+4.0f%%/%+4.0f%% | %+4.0f%%/%+4.0f%% -> %+4.0f%%/%+4.0f%%\n",
        row.line, row.code_bytes, row.code_lines, code_b, code_l,
        row.ro_bytes, row.ro_lines, ro_b, ro_l, row.mut_bytes, row.mut_lines,
        mut_b, mut_l);
  }

  // The section 5.4 corollary: cache dilution.
  const auto ws4 = trace::analyze_working_set(buffer, 4);
  const double dilution = 1.0 - static_cast<double>(ws4.code_bytes()) /
                                    static_cast<double>(base.code_bytes());
  std::printf(
      "\nCache dilution (section 5.4): %.0f%% of instruction bytes fetched\n"
      "into 32-byte lines are never executed (paper: ~25%%).\n",
      dilution * 100.0);
  report.metric("cache_dilution_frac", dilution);
  report.write();
  return 0;
}
