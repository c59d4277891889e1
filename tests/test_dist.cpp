// Distributed matrix and SUMMA tests: the distributed algorithms must be
// semiring-exact against their serial counterparts on any grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/common_kmers.hpp"
#include "dist/distmat.hpp"
#include "dist/summa.hpp"
#include "dist_oracle.hpp"
#include "util/rng.hpp"

namespace pd = pastis::dist;
namespace pt = pastis::test;
namespace ps = pastis::sparse;
namespace psim = pastis::sim;

using IntMat = ps::SpMat<int>;

namespace {

std::vector<ps::Triple<int>> random_triples(ps::Index nrows, ps::Index ncols,
                                            double density,
                                            std::uint64_t seed) {
  pastis::util::Xoshiro256 rng(seed);
  std::vector<ps::Triple<int>> t;
  for (ps::Index i = 0; i < nrows; ++i) {
    for (ps::Index j = 0; j < ncols; ++j) {
      if (rng.chance(density)) {
        t.push_back({i, j, static_cast<int>(rng.below(7)) + 1});
      }
    }
  }
  return t;
}

std::map<std::pair<ps::Index, ps::Index>, int> to_map(
    const std::vector<ps::Triple<int>>& t) {
  std::map<std::pair<ps::Index, ps::Index>, int> m;
  for (const auto& x : t) m[{x.row, x.col}] = x.val;
  return m;
}

}  // namespace

TEST(DistSpMat, DistributeGatherRoundTrip) {
  const auto triples = random_triples(50, 70, 0.1, 1);
  const psim::ProcGrid grid(9);
  auto D = pd::DistSpMat<int>::from_global_triples(grid, 50, 70, triples);
  EXPECT_EQ(D.nnz(), triples.size());
  EXPECT_EQ(to_map(D.to_global_triples()), to_map(triples));
}

TEST(DistSpMat, LocalDimsTileTheMatrix) {
  const psim::ProcGrid grid(16);
  pd::DistSpMat<int> D(grid, 103, 57);
  ps::Index row_total = 0, col_total = 0;
  for (int gi = 0; gi < grid.side(); ++gi) {
    row_total += D.local_nrows(grid.rank_of(gi, 0));
    col_total += D.local_ncols(grid.rank_of(0, gi));
  }
  EXPECT_EQ(row_total, 103u);
  EXPECT_EQ(col_total, 57u);
}

TEST(DistSpMat, RejectsOutOfRangeTriples) {
  const psim::ProcGrid grid(4);
  std::vector<ps::Triple<int>> bad = {{100, 0, 1}};
  EXPECT_THROW(pd::DistSpMat<int>::from_global_triples(grid, 10, 10, bad),
               std::out_of_range);
}

struct SummaCase {
  int p;
  ps::Index m, k, n;
  double da, db;
};

class SummaSweep : public ::testing::TestWithParam<SummaCase> {};

TEST_P(SummaSweep, MatchesSerialSpGemm) {
  const auto c = GetParam();
  const auto ta = random_triples(c.m, c.k, c.da, 11);
  const auto tb = random_triples(c.k, c.n, c.db, 12);

  psim::SimRuntime rt(c.p, psim::MachineModel{});
  auto A = pd::DistSpMat<int>::from_global_triples(rt.grid(), c.m, c.k, ta);
  auto B = pd::DistSpMat<int>::from_global_triples(rt.grid(), c.k, c.n, tb);
  ps::SpGemmStats dist_stats;
  auto C = pd::summa<ps::PlusTimes<int>>(rt, A, B, {}, &dist_stats);

  auto As = IntMat::from_triples(c.m, c.k, ta);
  auto Bs = IntMat::from_triples(c.k, c.n, tb);
  ps::SpGemmStats serial_stats;
  auto Cs = ps::spgemm_hash<ps::PlusTimes<int>>(As, Bs, &serial_stats);

  EXPECT_EQ(to_map(C.to_global_triples()), to_map(Cs.to_triples()));
  EXPECT_EQ(dist_stats.products, serial_stats.products);
  EXPECT_EQ(C.nnz(), Cs.nnz());

  // Communication/computation must have been charged.
  double charged = 0.0;
  for (int r = 0; r < c.p; ++r) {
    charged += rt.clock(r).get(psim::Comp::kSpGemm);
  }
  if (c.p > 1 && !ta.empty()) {
    EXPECT_GT(charged, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndShapes, SummaSweep,
    ::testing::Values(SummaCase{1, 30, 30, 30, 0.2, 0.2},
                      SummaCase{4, 30, 30, 30, 0.2, 0.2},
                      SummaCase{9, 50, 40, 30, 0.15, 0.15},
                      SummaCase{16, 64, 64, 64, 0.1, 0.1},
                      SummaCase{25, 55, 71, 33, 0.12, 0.08},
                      SummaCase{16, 10, 200, 10, 0.05, 0.05},
                      SummaCase{9, 33, 33, 33, 0.0, 0.3}));  // empty A

TEST(Summa, DimensionMismatchThrows) {
  psim::SimRuntime rt(4, psim::MachineModel{});
  pd::DistSpMat<int> A(rt.grid(), 10, 20);
  pd::DistSpMat<int> B(rt.grid(), 30, 10);
  EXPECT_THROW(pd::summa<ps::PlusTimes<int>>(rt, A, B), std::invalid_argument);
}

struct BlockedCase {
  int p, br, bc;
};

class BlockedSummaSweep : public ::testing::TestWithParam<BlockedCase> {};

TEST_P(BlockedSummaSweep, BlockProductsTileTheFullProduct) {
  // Blocked SUMMA invariant (§VI-A): computing C block-by-block from
  // redistributed stripes gives exactly the unblocked product.
  const auto c = GetParam();
  const ps::Index n = 52;
  const auto ta = random_triples(n, 77, 0.1, 41);
  const auto tb = random_triples(77, n, 0.1, 42);

  psim::SimRuntime rt(c.p, psim::MachineModel{});
  auto A = pd::DistSpMat<int>::from_global_triples(rt.grid(), n, 77, ta);
  auto B = pd::DistSpMat<int>::from_global_triples(rt.grid(), 77, n, tb);

  auto full = pd::summa<ps::PlusTimes<int>>(rt, A, B);
  auto full_map = to_map(full.to_global_triples());

  auto sa = pt::stripes_global(A, c.br, /*rows=*/true);
  auto sb = pt::stripes_global(B, c.bc, /*rows=*/false);
  std::map<std::pair<ps::Index, ps::Index>, int> blocked_map;
  for (int r = 0; r < c.br; ++r) {
    const ps::Index row0 = psim::ProcGrid::split_point(n, c.br, r);
    for (int cc = 0; cc < c.bc; ++cc) {
      const ps::Index col0 = psim::ProcGrid::split_point(n, c.bc, cc);
      auto Crc = pd::summa<ps::PlusTimes<int>>(
          rt, sa[static_cast<std::size_t>(r)], sb[static_cast<std::size_t>(cc)]);
      for (const auto& t : Crc.to_global_triples()) {
        blocked_map[{t.row + row0, t.col + col0}] = t.val;
      }
    }
  }
  EXPECT_EQ(blocked_map, full_map);
}

INSTANTIATE_TEST_SUITE_P(Blockings, BlockedSummaSweep,
                         ::testing::Values(BlockedCase{1, 2, 2},
                                           BlockedCase{4, 1, 1},
                                           BlockedCase{4, 3, 4},
                                           BlockedCase{9, 2, 5},
                                           BlockedCase{16, 4, 4},
                                           BlockedCase{9, 8, 3}));

TEST(Summa, OverlapSemiringSeedsAreOrderIndependent) {
  // The CommonKmers add keeps min/max seed pairs, so any stage/block order
  // produces identical payloads. Multiply the same k-mer-like matrix on two
  // different grids and compare payload-by-payload.
  using pastis::core::KmerPos;
  using pastis::core::OverlapSemiring;
  pastis::util::Xoshiro256 rng(51);
  std::vector<ps::Triple<KmerPos>> ta;
  const ps::Index n = 30, kdim = 500;
  for (ps::Index i = 0; i < n; ++i) {
    for (int t = 0; t < 40; ++t) {
      ta.push_back({i, static_cast<ps::Index>(rng.below(kdim)),
                    KmerPos{static_cast<std::uint32_t>(rng.below(200))}});
    }
  }
  auto keep_min = [](KmerPos& a, const KmerPos& b) {
    if (b.pos < a.pos) a = b;
  };

  auto run_on = [&](int p) {
    psim::SimRuntime rt(p, psim::MachineModel{});
    auto A = pd::DistSpMat<KmerPos>::from_global_triples(rt.grid(), n, kdim,
                                                         ta, keep_min);
    auto B = pt::transpose_global(A);
    auto C = pd::summa<OverlapSemiring>(rt, A, B);
    auto triples = C.to_global_triples();
    ps::sort_triples(triples);
    return triples;
  };

  const auto c1 = run_on(1);
  const auto c9 = run_on(9);
  ASSERT_EQ(c1.size(), c9.size());
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_EQ(c1[i].row, c9[i].row);
    EXPECT_EQ(c1[i].col, c9[i].col);
    EXPECT_EQ(c1[i].val.count, c9[i].val.count);
    EXPECT_TRUE(c1[i].val.first == c9[i].val.first);
    EXPECT_TRUE(c1[i].val.last == c9[i].val.last);
  }
}

// ---- grid strips (the MCL grid's operand and product strips) --------------

TEST(Stripes, HstackVstackReassembleTiles) {
  const auto triples = random_triples(40, 52, 0.15, 109);
  const psim::ProcGrid grid(9);
  auto A = pd::DistSpMat<int>::from_global_triples(grid, 40, 52, triples);
  std::vector<ps::Triple<int>> via_rows;
  for (int gi = 0; gi < grid.side(); ++gi) {
    std::vector<const ps::SpMat<int>*> row;
    for (int gj = 0; gj < grid.side(); ++gj) {
      row.push_back(&A.local(grid.rank_of(gi, gj)));
    }
    const auto strip = ps::hstack(row);
    EXPECT_EQ(strip.ncols(), 52u);
    const ps::Index r0 = A.row_begin(gi);
    for (const auto& t : strip.to_triples()) {
      via_rows.push_back({t.row + r0, t.col, t.val});
    }
  }
  EXPECT_EQ(to_map(via_rows), to_map(triples));

  std::vector<ps::Triple<int>> via_cols;
  for (int gj = 0; gj < grid.side(); ++gj) {
    std::vector<const ps::SpMat<int>*> col;
    for (int gi = 0; gi < grid.side(); ++gi) {
      col.push_back(&A.local(grid.rank_of(gi, gj)));
    }
    const auto strip = ps::vstack(col);
    EXPECT_EQ(strip.nrows(), 40u);
    const ps::Index c0 = A.col_begin(gj);
    for (const auto& t : strip.to_triples()) {
      via_cols.push_back({t.row, t.col + c0, t.val});
    }
  }
  EXPECT_EQ(to_map(via_cols), to_map(triples));
}

