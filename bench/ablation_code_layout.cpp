// Ablation D: dense code layout (paper section 5.4).
//
// Mosberger's compaction — moving rarely-executed basic blocks out of
// line — makes the touched code contiguous, so fewer cache lines carry
// it. The paper derives from its Table 3 data that ~25% of instruction
// bytes fetched are never executed, so "a perfectly dense cache layout
// would reduce the number of cache lines in the working set by about
// 25%". This bench computes exactly that for our traced receive path:
// the as-compiled line count vs the line count if each function's touched
// bytes were packed contiguously, plus the per-message stall cycles the
// compaction would save on the paper's machine.
#include <cstdio>

#include "bench_util.hpp"
#include "stack/rx_path_trace.hpp"
#include "trace/working_set.hpp"

int main(int argc, char** argv) {
  using namespace ldlp;
  benchutil::Flags flags(argc, argv);
  const auto payload = static_cast<std::uint32_t>(flags.u64("payload", 512));
  const auto miss_penalty = flags.u64("penalty", 20);
  benchutil::BenchReport report("ablation_code_layout", flags);
  flags.reject_unread();
  report.config_u64("payload", payload);
  report.config_u64("penalty", miss_penalty);

  stack::StackTracer tracer;
  trace::TraceBuffer buffer;
  if (!stack::trace_tcp_receive_ack(tracer, buffer, {payload, 2})) {
    std::fprintf(stderr, "FAILED: receive path did not complete\n");
    return 1;
  }

  const auto as_compiled = trace::analyze_working_set(buffer, 32);
  // Byte-granular rasterisation = exactly the executed bytes; packing them
  // contiguously gives the dense-layout line count.
  const auto bytes_exact = trace::analyze_working_set(buffer, 1);
  const std::uint64_t baseline_lines = as_compiled.total.code_lines;
  const std::uint64_t executed_bytes = bytes_exact.code_bytes();
  const std::uint64_t dense_lines = (executed_bytes + 31) / 32;

  const double dilution =
      1.0 - static_cast<double>(dense_lines) /
                static_cast<double>(baseline_lines);

  benchutil::heading("Ablation: dense code layout (Cord/Mosberger, §5.4)");
  std::printf("  executed instruction bytes:    %llu\n",
              static_cast<unsigned long long>(executed_bytes));
  std::printf("  as-compiled working set:       %llu lines (%llu bytes)\n",
              static_cast<unsigned long long>(baseline_lines),
              static_cast<unsigned long long>(baseline_lines * 32));
  std::printf("  perfectly dense layout:        %llu lines (%llu bytes)\n",
              static_cast<unsigned long long>(dense_lines),
              static_cast<unsigned long long>(dense_lines * 32));
  std::printf("  line-count reduction:          %.0f%%   (paper: ~25%%)\n",
              dilution * 100.0);
  std::printf(
      "  cold-cache stall saved/message: %llu cycles (%llu lines x %llu "
      "cycle miss)\n",
      static_cast<unsigned long long>((baseline_lines - dense_lines) *
                                      miss_penalty),
      static_cast<unsigned long long>(baseline_lines - dense_lines),
      static_cast<unsigned long long>(miss_penalty));
  std::printf(
      "\nCompaction composes with LDLP: batching amortises the (smaller)\n"
      "per-batch fill, so the two optimisations multiply rather than\n"
      "compete.\n");
  report.metric("executed_bytes", static_cast<double>(executed_bytes));
  report.metric("as_compiled_lines", static_cast<double>(baseline_lines));
  report.metric("dense_lines", static_cast<double>(dense_lines));
  report.metric("line_reduction_frac", dilution);
  report.write();
  return 0;
}
