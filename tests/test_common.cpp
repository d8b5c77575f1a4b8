// Unit tests for the common substrate: RNG, statistics, histogram, ring
// buffer, byte-order helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/byteorder.hpp"
#include "common/histogram.hpp"
#include "common/ring.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace ldlp {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BoundedNeverReachesBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.bounded(17), 17u);
}

TEST(Rng, BoundedCoversSmallRange) {
  Rng rng(11);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 5000; ++i) ++seen[rng.bounded(5)];
  for (int count : seen) EXPECT_GT(count, 800);
}

TEST(Rng, RangeInclusive) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(2.5));
  EXPECT_NEAR(stats.mean(), 2.5, 0.05);
}

TEST(Rng, ParetoRespectsMinimum) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.pareto(1.5, 0.75), 0.75);
}

TEST(Rng, ParetoMeanMatchesFormula) {
  Rng rng(23);
  RunningStats stats;
  const double alpha = 3.0;  // finite variance for a stable test
  const double xm = 1.0;
  for (int i = 0; i < 100000; ++i) stats.add(rng.pareto(alpha, xm));
  EXPECT_NEAR(stats.mean(), alpha * xm / (alpha - 1.0), 0.03);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(31);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(37);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-5, 5);
    whole.add(v);
    (i % 2 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(LogHistogram, QuantilesOrdered) {
  LogHistogram h(1e-6, 10.0);
  Rng rng(41);
  for (int i = 0; i < 10000; ++i) h.add(rng.exponential(0.01));
  EXPECT_LE(h.quantile(0.1), h.p50());
  EXPECT_LE(h.p50(), h.p99());
  EXPECT_NEAR(h.p50(), 0.00693, 0.001);  // median of exp(mean=0.01)
}

TEST(LogHistogram, MeanIsExact) {
  LogHistogram h(1e-6, 10.0);
  h.add(0.5);
  h.add(1.5);
  EXPECT_DOUBLE_EQ(h.mean(), 1.0);
  EXPECT_EQ(h.count(), 2u);
}

TEST(LogHistogram, UnderOverflowCaptured) {
  LogHistogram h(1e-3, 1.0);
  h.add(1e-9);
  h.add(100.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_LE(h.quantile(0.0), 1e-3);
  EXPECT_GE(h.quantile(1.0), 1.0);
}

TEST(LogHistogram, MergeAddsCounts) {
  LogHistogram a(1e-6, 10.0);
  LogHistogram b(1e-6, 10.0);
  a.add(0.1);
  b.add(0.2);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
}

TEST(Ring, PushPopFifo) {
  Ring<int> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 0u);
  for (int i = 0; i < 4; ++i) ring.push_back(i);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.front(), 0);
  EXPECT_EQ(ring[3], 3);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ring.pop_front(), i);
  EXPECT_TRUE(ring.empty());
}

TEST(Ring, WrapsAroundWithoutGrowing) {
  Ring<int> ring;
  ring.reserve(3);
  const std::size_t cap = ring.capacity();
  for (int round = 0; round < 100; ++round) {
    ring.push_back(round);
    ring.push_back(round + 1000);
    EXPECT_EQ(ring.pop_front(), round);
    EXPECT_EQ(ring.pop_front(), round + 1000);
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), cap);
}

TEST(Ring, GrowsWhileWrappedAndKeepsOrder) {
  Ring<int> ring;
  for (int i = 0; i < 8; ++i) ring.push_back(i);
  ASSERT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ring.pop_front(), i);
  for (int i = 8; i < 13; ++i) ring.push_back(i);  // wraps: head at slot 5
  ring.push_back(13);                              // full and wrapped: grows
  EXPECT_EQ(ring.capacity(), 16u);
  for (std::size_t i = 0; i < ring.size(); ++i)
    EXPECT_EQ(ring[i], static_cast<int>(i) + 5);
  for (int i = 5; i < 14; ++i) EXPECT_EQ(ring.pop_front(), i);
  EXPECT_TRUE(ring.empty());
}

TEST(Ring, ClearKeepsStorageAndReleasesElements) {
  Ring<std::vector<int>> ring;
  for (int i = 0; i < 20; ++i) ring.push_back(std::vector<int>(4, i));
  const std::size_t cap = ring.capacity();
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), cap);
  ring.push_back({7});
  EXPECT_EQ(ring.front(), std::vector<int>{7});
}

TEST(ByteRing, AppendViewAndDropAcrossTheWrap) {
  ByteRing ring;
  std::vector<std::uint8_t> model;
  std::uint8_t next = 0;
  // Append and drop in uneven steps so the window walks round the array,
  // wrapping at every offset, then grows while wrapped.
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> chunk(static_cast<std::size_t>(round % 37 + 1));
    for (std::uint8_t& b : chunk) b = next++;
    ring.append(chunk);
    model.insert(model.end(), chunk.begin(), chunk.end());
    const std::size_t drop = std::min<std::size_t>(model.size(), round % 29);
    ring.drop_front(drop);
    model.erase(model.begin(), model.begin() + static_cast<std::ptrdiff_t>(drop));
    ASSERT_EQ(ring.size(), model.size());
    std::vector<std::uint8_t> out(model.size());
    ring.copy_out(0, out);
    ASSERT_EQ(out, model) << "round " << round;
    if (model.size() > 3) {
      const auto [a, b] = ring.view(2, model.size() - 3);
      std::vector<std::uint8_t> joined(a.begin(), a.end());
      joined.insert(joined.end(), b.begin(), b.end());
      EXPECT_EQ(joined, std::vector<std::uint8_t>(model.begin() + 2,
                                                  model.end() - 1));
    }
  }
  // Drain to empty: the ring is reusable and its storage stays.
  const std::size_t cap = ring.capacity();
  ring.drop_front(ring.size());
  EXPECT_TRUE(ring.empty());
  const std::uint8_t tail[] = {1, 2, 3};
  ring.append(tail);
  std::uint8_t out[3] = {};
  ring.copy_out(0, out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[2], 3);
  EXPECT_EQ(ring.capacity(), cap);
}

TEST(ByteOrder, RoundTrips) {
  std::uint8_t buf[8];
  store_be16(buf, 0xbeef);
  EXPECT_EQ(load_be16(buf), 0xbeef);
  store_be32(buf, 0xdeadbeef);
  EXPECT_EQ(load_be32(buf), 0xdeadbeefu);
  store_be64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(load_be64(buf), 0x0123456789abcdefULL);
  EXPECT_EQ(buf[0], 0x01);  // big-endian byte order on the wire
  EXPECT_EQ(buf[7], 0xef);
}

TEST(ByteReader, BoundsChecked) {
  const std::uint8_t data[] = {1, 2, 3};
  ByteReader r({data, 3});
  EXPECT_EQ(r.u8(), 1);
  EXPECT_EQ(r.be16(), 0x0203);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u8(), 0);  // past the end
  EXPECT_FALSE(r.ok());
}

TEST(ByteWriter, FailsClosedWhenFull) {
  std::uint8_t buf[3];
  ByteWriter w(buf);
  w.be16(0x1122);
  w.be16(0x3344);  // does not fit
  EXPECT_FALSE(w.ok());
  EXPECT_EQ(w.position(), 2u);
}

TEST(ByteReaderWriter, MixedRoundTrip) {
  std::uint8_t buf[32];
  ByteWriter w(buf);
  w.u8(0x42);
  w.be32(123456);
  const std::uint8_t blob[] = {9, 8, 7};
  w.bytes(blob);
  w.fill(0xee, 2);
  ASSERT_TRUE(w.ok());

  ByteReader r({buf, w.position()});
  EXPECT_EQ(r.u8(), 0x42);
  EXPECT_EQ(r.be32(), 123456u);
  auto view = r.bytes(3);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[2], 7);
  EXPECT_EQ(r.be16(), 0xeeee);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

}  // namespace
}  // namespace ldlp
