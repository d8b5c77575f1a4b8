// The one interface every oracle and auditor shares.
//
// A Judge watches a run and keeps its findings: it is stepped once per
// scheduler pass (on_pass), asked for its end-of-run verdict once
// (finalize), and read through ok()/violations(). Like core::Layer for the
// protocol layers, the shared interface lets a harness hold any mix of
// judges in one list, step them together and fold their findings into one
// Verdict. Every judge counts every finding and keeps the first
// kMaxKept, so a fault that persists for thousands of passes costs a
// counter, not a string per pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ldlp::check {

class Judge {
 public:
  /// Findings kept per judge; later ones are counted only.
  static constexpr std::size_t kMaxKept = 64;

  Judge() = default;
  // Hooks and observers hold a judge's address for the whole run.
  Judge(const Judge&) = delete;
  Judge& operator=(const Judge&) = delete;
  virtual ~Judge() = default;

  /// The word a failure reason names this kind of judge by
  /// (e.g. "delivery oracle").
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// One scheduler pass.
  virtual void on_pass() {}
  /// End-of-run checks; call once, after the run's last pass.
  virtual void finalize() {}

  [[nodiscard]] bool ok() const noexcept { return count_ == 0; }
  /// The first kMaxKept findings, in the order they were made.
  [[nodiscard]] const std::vector<std::string>& violations() const noexcept {
    return kept_;
  }
  /// Every finding made, kept or not.
  [[nodiscard]] std::uint64_t violation_count() const noexcept {
    return count_;
  }

 protected:
  void violation(std::string what) {
    ++count_;
    if (kept_.size() < kMaxKept) kept_.push_back(std::move(what));
  }

 private:
  std::vector<std::string> kept_;
  std::uint64_t count_ = 0;
};

/// A run's outcome: the first failure reason and every judge finding,
/// each tagged with the judge it came from.
struct Verdict {
  bool pass = true;
  std::string why;  ///< First failure (empty when pass).
  std::vector<std::string> violations;

  void fail(std::string reason) {
    if (pass) why = std::move(reason);
    pass = false;
  }

  /// Fail with "<name>: <finding>" for each of `judge`'s kept findings
  /// and list each as "<tag>: <finding>".
  void fold(const Judge& judge, std::string_view tag) {
    for (const std::string& v : judge.violations()) {
      fail(std::string(judge.name()) + ": " + v);
      violations.push_back(std::string(tag) + ": " + v);
    }
  }
};

}  // namespace ldlp::check
