// Shared assertion for the judge tests: EXPECT_TRUE(clean(judge)) passes
// when the judge found nothing and otherwise prints every kept finding
// and the total count.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "check/judge.hpp"

namespace ldlp {

inline ::testing::AssertionResult clean(const check::Judge& judge) {
  if (judge.ok()) return ::testing::AssertionSuccess();
  ::testing::AssertionResult failure = ::testing::AssertionFailure();
  failure << judge.name() << ": " << judge.violation_count()
          << " finding(s), first " << judge.violations().size() << ":";
  for (const std::string& v : judge.violations()) failure << "\n  " << v;
  return failure;
}

}  // namespace ldlp
