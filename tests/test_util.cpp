// Unit tests for the util substrate: timers, statistics, RNG, thread pool,
// formatting.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace pu = pastis::util;

TEST(Timer, MonotonicAndResets) {
  pu::Timer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(MinAvgMax, BasicAccumulation) {
  pu::MinAvgMax m;
  m.add(2.0);
  m.add(4.0);
  m.add(6.0);
  EXPECT_DOUBLE_EQ(m.min, 2.0);
  EXPECT_DOUBLE_EQ(m.max, 6.0);
  EXPECT_DOUBLE_EQ(m.avg(), 4.0);
  EXPECT_DOUBLE_EQ(m.imbalance(), 1.5);
  EXPECT_NEAR(m.imbalance_pct(), 50.0, 1e-12);
}

TEST(MinAvgMax, EmptyIsBalanced) {
  pu::MinAvgMax m;
  EXPECT_DOUBLE_EQ(m.avg(), 0.0);
  EXPECT_DOUBLE_EQ(m.imbalance(), 1.0);
}

TEST(MinAvgMax, MergeMatchesCombinedStream) {
  pu::MinAvgMax a, b, c;
  for (double v : {1.0, 5.0}) a.add(v);
  for (double v : {2.0, 8.0}) b.add(v);
  for (double v : {1.0, 5.0, 2.0, 8.0}) c.add(v);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.min, c.min);
  EXPECT_DOUBLE_EQ(a.max, c.max);
  EXPECT_DOUBLE_EQ(a.avg(), c.avg());
}

TEST(MinAvgMax, MergeEmptyIsNoOp) {
  // Merging an empty accumulator must not poison min/max with the
  // ±infinity init sentinels (they would serialize as Infinity, which
  // JSON exports cannot represent).
  pu::MinAvgMax a, empty;
  a.add(3.0);
  a.add(7.0);
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.min, 3.0);
  EXPECT_DOUBLE_EQ(a.max, 7.0);
  EXPECT_EQ(a.count, 2u);
  EXPECT_TRUE(std::isfinite(a.min));
  EXPECT_TRUE(std::isfinite(a.max));
}

TEST(MinAvgMax, MergeIntoEmptyAdopts) {
  pu::MinAvgMax empty, b;
  b.add(2.0);
  b.add(10.0);
  empty.merge(b);
  EXPECT_DOUBLE_EQ(empty.min, 2.0);
  EXPECT_DOUBLE_EQ(empty.max, 10.0);
  EXPECT_DOUBLE_EQ(empty.avg(), 6.0);
  EXPECT_EQ(empty.count, 2u);
}

TEST(MinAvgMax, MergeBothEmptyStaysEmpty) {
  pu::MinAvgMax a, b;
  a.merge(b);
  EXPECT_EQ(a.count, 0u);
  EXPECT_DOUBLE_EQ(a.avg(), 0.0);
  EXPECT_DOUBLE_EQ(a.imbalance(), 1.0);
  EXPECT_DOUBLE_EQ(a.imbalance_pct(), 0.0);
}

TEST(MinAvgMax, ImbalancePct) {
  pu::MinAvgMax m;
  m.add(10.0);
  m.add(10.0);
  m.add(16.0);  // avg 12, max 16 -> imbalance 4/3 -> 33.3%
  EXPECT_NEAR(m.imbalance_pct(), 100.0 / 3.0, 1e-9);
}

TEST(ScalingEfficiency, StrongAndWeak) {
  // Perfect strong scaling: 2x procs, half the time.
  EXPECT_DOUBLE_EQ(pu::strong_scaling_efficiency(100.0, 49, 50.0, 98), 1.0);
  // 66% efficiency case from the paper's Fig. 8 regime.
  EXPECT_NEAR(pu::strong_scaling_efficiency(100.0, 49, 100.0 * 49 / (400 * 0.66), 400),
              0.66, 1e-9);
  EXPECT_DOUBLE_EQ(pu::weak_scaling_efficiency(10.0, 12.5), 0.8);
}

TEST(Rng, DeterministicAcrossInstances) {
  pu::Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  pu::Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  pu::Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowRespectsBound) {
  pu::Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BetweenInclusive) {
  pu::Xoshiro256 rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, GammaPositiveWithPlausibleMean) {
  pu::Xoshiro256 rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gamma(2.2, 100.0);
    EXPECT_GT(g, 0.0);
    sum += g;
  }
  EXPECT_NEAR(sum / n, 220.0, 10.0);  // mean = k * theta
}

TEST(Rng, ZipfWithinRangeAndSkewed) {
  pu::Xoshiro256 rng(17);
  std::uint64_t low = 0, high = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto z = rng.zipf(100, 1.1);
    EXPECT_LT(z, 100u);
    (z < 10 ? low : high) += 1;
  }
  EXPECT_GT(low, high);  // mass concentrates at small ranks
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  pu::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyAndSingle) {
  pu::ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
  int count = 0;
  pool.parallel_for(1, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  pu::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 57) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, NestedParallelForMakesProgress) {
  pu::ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  pu::ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) pool.submit([&] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 10);
}

TEST(Format, WithCommas) {
  EXPECT_EQ(pu::with_commas(0), "0");
  EXPECT_EQ(pu::with_commas(999), "999");
  EXPECT_EQ(pu::with_commas(1000), "1,000");
  EXPECT_EQ(pu::with_commas(1234567), "1,234,567");
  EXPECT_EQ(pu::with_commas(405000000), "405,000,000");
}

TEST(Format, SiUnit) {
  EXPECT_EQ(pu::si_unit(12.0), "12.00");
  EXPECT_EQ(pu::si_unit(1.5e9), "1.50 G");
  EXPECT_EQ(pu::si_unit(690.6e6), "690.60 M");
}

TEST(Format, BytesHuman) {
  EXPECT_EQ(pu::bytes_human(512), "512.00 B");
  EXPECT_EQ(pu::bytes_human(1024.0 * 1024.0), "1.00 MiB");
}

TEST(Format, TextTablePrints) {
  pu::TextTable t({"a", "bb"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| a"), std::string::npos);
  EXPECT_NE(s.find("| 1"), std::string::npos);
}
