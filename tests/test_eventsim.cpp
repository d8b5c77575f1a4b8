// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "eventsim/event_queue.hpp"

namespace ldlp::eventsim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(3.0, [&] { order.push_back(3); });
  queue.schedule_at(1.0, [&] { order.push_back(1); });
  queue.schedule_at(2.0, [&] { order.push_back(2); });
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueue, SimultaneousEventsKeepScheduleOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    queue.schedule_at(1.0, [&order, i] { order.push_back(i); });
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Regression: the (time, seq) ordering must survive real heap churn.
// The multi-host fabric schedules hundreds of same-tick events (every
// host tick round, every frame delivery on equal-delay links) and its
// --jobs determinism depends on ties firing in exact insertion order —
// a plain binary heap without the seq tiebreak passes the 5-event test
// above but reorders ties once sift-down gets involved.
TEST(EventQueue, TieOrderSurvivesHeapChurn) {
  EventQueue queue;
  std::vector<std::pair<double, int>> fired;
  // 40 timestamps, each with 8 tied events, interleaved so the heap sees
  // inserts in neither sorted nor reverse order.
  int seq = 0;
  std::vector<std::pair<double, int>> expected;
  for (int round = 0; round < 8; ++round) {
    for (int slot = 0; slot < 40; ++slot) {
      const double t = static_cast<double>((slot * 7) % 40) + 1.0;
      const int id = seq++;
      queue.schedule_at(t, [&fired, t, id] { fired.push_back({t, id}); });
      expected.push_back({t, id});
    }
  }
  // Events scheduled from inside callbacks at an already-pending time
  // must fire after every previously scheduled tie at that time.
  queue.schedule_at(0.5, [&] {
    const int id = seq++;
    queue.schedule_at(20.0, [&fired, id] { fired.push_back({20.0, id}); });
    expected.push_back({20.0, id});
  });
  queue.run();
  // Stable sort by time = (time, insertion-seq) order.
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  EXPECT_EQ(fired, expected);
}

TEST(EventQueue, RunUntilHorizonStops) {
  EventQueue queue;
  int fired = 0;
  queue.schedule_at(1.0, [&] { ++fired; });
  queue.schedule_at(2.0, [&] { ++fired; });
  queue.schedule_at(5.0, [&] { ++fired; });
  queue.run_until(2.0);  // inclusive
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_DOUBLE_EQ(queue.now(), 2.0);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue queue;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 10) queue.schedule_in(0.5, step);
  };
  queue.schedule_at(0.0, step);
  queue.run();
  EXPECT_EQ(chain, 10);
  EXPECT_DOUBLE_EQ(queue.now(), 4.5);
}

TEST(EventQueue, AdvancesClockToHorizonWhenDrained) {
  EventQueue queue;
  queue.schedule_at(1.0, [] {});
  queue.run_until(10.0);
  EXPECT_DOUBLE_EQ(queue.now(), 10.0);
}

}  // namespace
}  // namespace ldlp::eventsim
