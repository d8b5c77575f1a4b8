// Perf-regression gate driver.
//
//   bench_regress             — run the gate suite, compare against the
//                               checked-in baselines, exit nonzero on drift
//   bench_regress --update    — re-run and rewrite the baselines (do this
//                               deliberately, with the diff in the PR)
//   bench_regress --baseline_dir=<dir> — gate against a different tree
//
// The same suite runs under ctest as `ctest -L bench-gate` via
// tests/test_bench_regress.cpp.
#include <cstdio>
#include <string>

#include "bench/regress_suite.hpp"
#include "bench_util.hpp"

#ifndef LDLP_BASELINE_DIR
#define LDLP_BASELINE_DIR "bench/baselines"
#endif

int main(int argc, char** argv) {
  using namespace ldlp;
  benchutil::Flags flags(argc, argv);
  const std::string dir = flags.str("baseline_dir", LDLP_BASELINE_DIR);
  const bool update = flags.flag("update");
  flags.reject_unread();

  benchutil::heading(update ? "Perf gate: rewriting baselines"
                            : "Perf gate: comparing against baselines");
  std::printf("baseline dir: %s\n\n", dir.c_str());

  int failures = 0;
  for (const regress::GateCase& gate : regress::suite()) {
    if (update) {
      const obs::BenchResult result = gate.run();
      if (!result.write_file(dir)) {
        std::printf("  %-18s WRITE FAILED\n", gate.name);
        ++failures;
      } else {
        std::printf("  %-18s baseline written (%zu metrics, tol %.2g)\n",
                    gate.name, result.metrics.size(), result.tolerance);
      }
      continue;
    }
    const bool pass = regress::gate_case(gate, dir);
    std::printf("  %-18s %s\n", gate.name, pass ? "PASS" : "FAIL");
    if (!pass) ++failures;
  }

  if (!update) {
    std::printf("\n%s\n", failures == 0 ? "gate PASS" : "gate FAIL");
  }
  return failures == 0 ? 0 : 1;
}
