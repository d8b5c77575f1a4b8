// Table 1: breakdown of working-set sizes in the TCP receive & acknowledge
// path, in bytes of 32-byte cache lines, per layer and reference class.
//
// Runs the instrumented mini-stack through one traced receive+ACK
// iteration (see stack/rx_path_trace.hpp) and prints measured vs paper.
#include <cstdio>

#include "bench_util.hpp"
#include "stack/rx_path_trace.hpp"
#include "trace/working_set.hpp"

namespace {

struct PaperRow {
  ldlp::trace::LayerClass layer;
  double code;
  double ro;
  double mut;
};

constexpr PaperRow kPaper[] = {
    {ldlp::trace::LayerClass::kDevice, 4480, 864, 672},
    {ldlp::trace::LayerClass::kEthernet, 2784, 480, 128},
    {ldlp::trace::LayerClass::kIp, 3168, 448, 160},
    {ldlp::trace::LayerClass::kTcp, 5536, 544, 448},
    {ldlp::trace::LayerClass::kSocketLow, 608, 32, 160},
    {ldlp::trace::LayerClass::kSocketHigh, 1184, 256, 64},
    {ldlp::trace::LayerClass::kKernelEntry, 2208, 1280, 640},
    {ldlp::trace::LayerClass::kProcessControl, 5472, 544, 736},
    {ldlp::trace::LayerClass::kBufferMgmt, 1632, 192, 512},
    {ldlp::trace::LayerClass::kCopyChecksum, 3232, 448, 128},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ldlp;
  benchutil::Flags flags(argc, argv);
  const auto payload = static_cast<std::uint32_t>(flags.u64("payload", 512));
  benchutil::BenchReport report("table1_working_set", flags);
  flags.reject_unread();
  report.config_u64("payload", payload);

  stack::StackTracer tracer;
  trace::TraceBuffer buffer;
  if (!stack::trace_tcp_receive_ack(tracer, buffer, {payload, 2})) {
    std::fprintf(stderr, "FAILED: receive path did not complete\n");
    return 1;
  }

  const auto ws = trace::analyze_working_set(buffer, 32);

  benchutil::heading(
      "Table 1: Working set of TCP receive & acknowledge path (bytes, "
      "32-byte lines)");
  std::printf("%-20s | %21s | %21s | %21s\n", "Layer", "Code (paper/meas)",
              "RO data (paper/meas)", "Mut data (paper/meas)");
  double paper_code = 0;
  double paper_ro = 0;
  double paper_mut = 0;
  for (const PaperRow& row : kPaper) {
    const auto& measured = ws.layers[static_cast<std::size_t>(row.layer)];
    std::printf("%-20s | %8.0f / %10llu | %8.0f / %10llu | %8.0f / %10llu\n",
                std::string(trace::layer_name(row.layer)).c_str(), row.code,
                static_cast<unsigned long long>(measured.code_lines * 32),
                row.ro,
                static_cast<unsigned long long>(measured.ro_lines * 32),
                row.mut,
                static_cast<unsigned long long>(measured.mut_lines * 32));
    paper_code += row.code;
    paper_ro += row.ro;
    paper_mut += row.mut;
    const std::string layer(trace::layer_name(row.layer));
    report.metric(layer + ".code_bytes",
                  static_cast<double>(measured.code_lines * 32));
    report.metric(layer + ".ro_bytes",
                  static_cast<double>(measured.ro_lines * 32));
    report.metric(layer + ".mut_bytes",
                  static_cast<double>(measured.mut_lines * 32));
  }
  std::printf("%s\n", std::string(94, '-').c_str());
  benchutil::compare_row("Total code", paper_code,
                         static_cast<double>(ws.code_bytes()));
  benchutil::compare_row("Total read-only data", paper_ro,
                         static_cast<double>(ws.ro_bytes()));
  benchutil::compare_row("Total mutable data", paper_mut,
                         static_cast<double>(ws.mut_bytes()));

  const double total_fetch =
      static_cast<double>(ws.code_bytes() + ws.ro_bytes());
  std::printf(
      "\nConclusion check (paper section 2.4): ~35 KB of code + read-only\n"
      "data is fetched per iteration vs ~2.2 KB of message contents -> the\n"
      "code:data memory traffic ratio is %.1f:1 for a %u-byte message.\n",
      total_fetch / (2.0 * 2 * payload), payload);

  report.metric("total.code_bytes", static_cast<double>(ws.code_bytes()));
  report.metric("total.ro_bytes", static_cast<double>(ws.ro_bytes()));
  report.metric("total.mut_bytes", static_cast<double>(ws.mut_bytes()));
  report.metric("code_data_ratio", total_fetch / (2.0 * 2 * payload));
  report.write();
  return 0;
}
