// Simulated machine tests: process grid, cost model, SPMD runtime.
#include <gtest/gtest.h>

#include "core/stages.hpp"
#include "sim/grid.hpp"
#include "sim/machine_model.hpp"
#include "sim/runtime.hpp"

namespace psim = pastis::sim;

TEST(ProcGrid, RequiresPerfectSquare) {
  EXPECT_NO_THROW(psim::ProcGrid(1));
  EXPECT_NO_THROW(psim::ProcGrid(49));
  EXPECT_NO_THROW(psim::ProcGrid(3364));  // the paper's production grid
  EXPECT_THROW(psim::ProcGrid(2), std::invalid_argument);
  EXPECT_THROW(psim::ProcGrid(48), std::invalid_argument);
  EXPECT_THROW(psim::ProcGrid(0), std::invalid_argument);
  EXPECT_THROW(psim::ProcGrid(-4), std::invalid_argument);
}

TEST(ProcGrid, RowColRankRoundTrip) {
  const psim::ProcGrid g(16);
  EXPECT_EQ(g.side(), 4);
  for (int r = 0; r < 16; ++r) {
    EXPECT_EQ(g.rank_of(g.row_of(r), g.col_of(r)), r);
  }
  EXPECT_EQ(g.row_of(7), 1);
  EXPECT_EQ(g.col_of(7), 3);
}

class SplitSweep
    : public ::testing::TestWithParam<std::pair<std::uint32_t, int>> {};

TEST_P(SplitSweep, SplitPointsPartitionAndInvert) {
  const auto [n, parts] = GetParam();
  // Boundaries are monotone, start at 0, end at n.
  EXPECT_EQ(psim::ProcGrid::split_point(n, parts, 0), 0u);
  EXPECT_EQ(psim::ProcGrid::split_point(n, parts, parts), n);
  for (int q = 0; q < parts; ++q) {
    EXPECT_LE(psim::ProcGrid::split_point(n, parts, q),
              psim::ProcGrid::split_point(n, parts, q + 1));
  }
  // part_of is the inverse: every index lands in its own range.
  for (std::uint32_t i = 0; i < n; ++i) {
    const int q = psim::ProcGrid::part_of(i, n, parts);
    EXPECT_GE(i, psim::ProcGrid::split_point(n, parts, q));
    EXPECT_LT(i, psim::ProcGrid::split_point(n, parts, q + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SplitSweep,
    ::testing::Values(std::make_pair(100u, 7), std::make_pair(1u, 1),
                      std::make_pair(10u, 10), std::make_pair(13u, 5),
                      std::make_pair(1000u, 58),   // production side
                      std::make_pair(17u, 16)));

TEST(MachineModel, BroadcastTreeCost) {
  const psim::MachineModel m;
  EXPECT_DOUBLE_EQ(m.bcast_time(1000, 1), 0.0);
  // log2(8) = 3 tree levels.
  EXPECT_NEAR(m.bcast_time(0, 8), 3 * m.alpha_s, 1e-12);
  EXPECT_GT(m.bcast_time(1 << 20, 8), m.bcast_time(1 << 10, 8));
  EXPECT_GT(m.bcast_time(1 << 20, 64), m.bcast_time(1 << 20, 8));
}

TEST(MachineModel, SpGemmTimeScalesWithProducts) {
  const psim::MachineModel m;
  const double t1 = m.spgemm_time(1000000);
  const double t2 = m.spgemm_time(2000000);
  EXPECT_GT(t2, t1);
  EXPECT_GT(t1, m.spgemm_call_overhead_s);
}

TEST(MachineModel, IoBandwidthCapsAtAggregate) {
  const psim::MachineModel m;
  // Small node counts scale linearly; huge counts hit the aggregate cap.
  const double few = m.io_time(std::uint64_t(1) << 40, 10);
  const double many = m.io_time(std::uint64_t(1) << 40, 10000);
  EXPECT_GT(few, many);
  const double cap1 = m.io_time(std::uint64_t(1) << 40, 2000);
  const double cap2 = m.io_time(std::uint64_t(1) << 40, 4000);
  EXPECT_NEAR(cap1, cap2, cap1 * 0.01);  // both beyond the aggregate knee
}

TEST(MachineModel, AlignTimeComponents) {
  const psim::MachineModel m;
  // 8.7e8 cells on each of the node's GPUs at 8.7 GCUPS.
  const std::uint64_t cells =
      870000000ull * static_cast<std::uint64_t>(m.gpus_per_node);
  const double kernel_only = pastis::core::balanced_kernel_seconds(m, cells);
  EXPECT_NEAR(kernel_only, 0.1, 1e-9);
  // Kernel launches and host packing of the pairs add to it.
  EXPECT_GT(pastis::core::modeled_align_seconds(m, {1000, cells}, 1.0),
            kernel_only);
}

TEST(MachineModel, PreblockDilations) {
  const psim::MachineModel m;
  // 42 cores, 6 driver threads -> 42/36.
  EXPECT_NEAR(m.preblock_sparse_dilation(), 42.0 / 36.0, 1e-12);
  EXPECT_GT(m.preblock_align_dilation, 1.0);
  EXPECT_LT(m.preblock_align_dilation, 1.3);
}

TEST(Runtime, SpmdRunsEveryRank) {
  psim::SimRuntime rt(16, psim::MachineModel{});
  std::vector<int> hits(16, 0);
  rt.spmd([&](int rank) { hits[static_cast<std::size_t>(rank)] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Runtime, ClockAccumulationAndAggregates) {
  psim::SimRuntime rt(4, psim::MachineModel{});
  rt.spmd([&](int rank) {
    rt.clock(rank).charge(psim::Comp::kAlign, 1.0 + rank);
    rt.clock(rank).charge(psim::Comp::kSpGemm, 0.5);
  });
  EXPECT_DOUBLE_EQ(rt.sum_over_ranks(psim::Comp::kAlign), 10.0);
  EXPECT_DOUBLE_EQ(rt.sum_over_ranks(psim::Comp::kSpGemm), 2.0);
}

TEST(Runtime, RankClockMerge) {
  psim::RankClock a, b;
  a.charge(psim::Comp::kAlign, 1.0);
  a.pairs_aligned = 10;
  a.peak_memory_bytes = 100;
  b.charge(psim::Comp::kAlign, 2.0);
  b.pairs_aligned = 5;
  b.peak_memory_bytes = 400;
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.get(psim::Comp::kAlign), 3.0);
  EXPECT_EQ(a.pairs_aligned, 15u);
  EXPECT_EQ(a.peak_memory_bytes, 400u);
}

TEST(Runtime, CompNamesStable) {
  EXPECT_EQ(psim::comp_name(psim::Comp::kSpGemm), "spgemm");
  EXPECT_EQ(psim::comp_name(psim::Comp::kAlign), "align");
  EXPECT_EQ(psim::comp_name(psim::Comp::kIO), "io");
}
