// Shared helpers for the reproduction benches: tiny flag parser,
// paper-vs-measured report formatting, and the common machine-readable
// result file (BENCH_<name>.json, schema "ldlp.bench.v1").
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/bench_result.hpp"

namespace ldlp::benchutil {

/// Minimal "--name=value" flag reader. It marks each argument a read
/// matches; reject_unread() then turns a misspelt flag into an error
/// instead of a silent default.
class Flags {
 public:
  Flags(int argc, char** argv)
      : argc_(argc), argv_(argv), read_(static_cast<std::size_t>(argc)) {}

  [[nodiscard]] std::uint64_t u64(const char* name,
                                  std::uint64_t fallback) const {
    const char* v = find(name);
    return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
  }
  [[nodiscard]] double f64(const char* name, double fallback) const {
    const char* v = find(name);
    return v != nullptr ? std::strtod(v, nullptr) : fallback;
  }
  [[nodiscard]] const char* str(const char* name, const char* fallback) const {
    const char* v = find(name);
    return v != nullptr ? v : fallback;
  }
  [[nodiscard]] bool flag(const char* name) const {
    for (int i = 1; i < argc_; ++i) {
      if (std::strncmp(argv_[i], "--", 2) == 0 &&
          std::strcmp(argv_[i] + 2, name) == 0) {
        read_[static_cast<std::size_t>(i)] = true;
        return true;
      }
    }
    return false;
  }

  /// Call once every flag has been read: exits with status 2, naming
  /// each one, if any argument matched no read (a typo or a repeat).
  void reject_unread() const {
    bool bad = false;
    for (int i = 1; i < argc_; ++i) {
      if (read_[static_cast<std::size_t>(i)]) continue;
      std::fprintf(stderr, "error: unknown argument '%s'\n", argv_[i]);
      bad = true;
    }
    if (bad) std::exit(2);
  }

 private:
  [[nodiscard]] const char* find(const char* name) const {
    const std::size_t len = std::strlen(name);
    for (int i = 1; i < argc_; ++i) {
      const char* arg = argv_[i];
      if (std::strncmp(arg, "--", 2) != 0) continue;
      if (std::strncmp(arg + 2, name, len) == 0 && arg[2 + len] == '=') {
        read_[static_cast<std::size_t>(i)] = true;
        return arg + 2 + len + 1;
      }
    }
    return nullptr;
  }

  int argc_;
  char** argv_;
  mutable std::vector<bool> read_;  ///< Per argv index: matched by a read.
};

inline void heading(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

/// "paper X, measured Y (delta%)" row.
inline void compare_row(const char* label, double paper, double measured) {
  const double delta =
      paper != 0.0 ? (measured - paper) / paper * 100.0 : 0.0;
  std::printf("  %-28s paper %10.0f   measured %10.0f   (%+.1f%%)\n", label,
              paper, measured, delta);
}

/// Accumulates a bench run's key numbers and writes BENCH_<name>.json next
/// to the human-readable stdout report. Output directory comes from
/// --out_dir=<dir> (default "."); --no_json suppresses the file, so ad hoc
/// sweeps don't clobber a result someone is comparing against.
class BenchReport {
 public:
  BenchReport(std::string name, const Flags& flags) {
    result_.name = std::move(name);
    enabled_ = !flags.flag("no_json");
    const char* dir = flags.str("out_dir", ".");
    dir_ = dir;
  }

  void config(std::string key, std::string value) {
    result_.set_config(std::move(key), std::move(value));
  }
  void config_u64(std::string key, std::uint64_t value) {
    result_.set_config(std::move(key), std::to_string(value));
  }
  void metric(std::string key, double value) {
    result_.set_metric(std::move(key), value);
  }
  void tolerance(double tol) { result_.tolerance = tol; }

  [[nodiscard]] const obs::BenchResult& result() const noexcept {
    return result_;
  }

  /// Emit BENCH_<name>.json (unless --no_json). Returns true on success or
  /// when suppressed; prints the path so runs are self-describing.
  bool write() const {
    if (!enabled_) return true;
    if (!result_.write_file(dir_)) {
      std::fprintf(stderr, "warning: failed to write %s/%s\n", dir_.c_str(),
                   result_.file_name().c_str());
      return false;
    }
    std::printf("\nwrote %s/%s\n", dir_.c_str(), result_.file_name().c_str());
    return true;
  }

 private:
  obs::BenchResult result_;
  std::string dir_;
  bool enabled_ = true;
};

/// Human-readable seconds.
inline std::string fmt_latency(double sec) {
  char buf[32];
  if (sec < 1e-3) {
    std::snprintf(buf, sizeof buf, "%7.1f us", sec * 1e6);
  } else if (sec < 1.0) {
    std::snprintf(buf, sizeof buf, "%7.2f ms", sec * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%7.2f s ", sec);
  }
  return buf;
}

}  // namespace ldlp::benchutil
