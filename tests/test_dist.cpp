// Distributed matrix and SUMMA tests: the distributed algorithms must be
// semiring-exact against their serial counterparts on any grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/common_kmers.hpp"
#include "dist/distmat.hpp"
#include "dist/summa.hpp"
#include "util/rng.hpp"

namespace pd = pastis::dist;
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

TEST(DistSpMat, TransposeMatchesSerial) {
  const auto triples = random_triples(40, 60, 0.15, 3);
  const psim::ProcGrid grid(4);
  auto D = pd::DistSpMat<int>::from_global_triples(grid, 40, 60, triples);
  auto Dt = D.transposed();
  EXPECT_EQ(Dt.nrows(), 60u);
  EXPECT_EQ(Dt.ncols(), 40u);
  std::vector<ps::Triple<int>> expect;
  for (const auto& t : triples) expect.push_back({t.col, t.row, t.val});
  EXPECT_EQ(to_map(Dt.to_global_triples()), to_map(expect));
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

TEST(Stripes, RowStripesReassembleToOriginal) {
  const auto triples = random_triples(45, 61, 0.12, 31);
  psim::SimRuntime rt(9, psim::MachineModel{});
  auto A = pd::DistSpMat<int>::from_global_triples(rt.grid(), 45, 61, triples);
  for (int nb : {1, 2, 3, 5}) {
    auto stripes = pd::split_row_stripes(rt, A, nb);
    ASSERT_EQ(stripes.size(), static_cast<std::size_t>(nb));
    std::vector<ps::Triple<int>> merged;
    ps::Index offset = 0;
    for (const auto& s : stripes) {
      for (const auto& t : s.to_global_triples()) {
        merged.push_back({t.row + offset, t.col, t.val});
      }
      offset += s.nrows();
    }
    EXPECT_EQ(offset, 45u);
    EXPECT_EQ(to_map(merged), to_map(triples));
  }
}

TEST(Stripes, ColStripesReassembleToOriginal) {
  const auto triples = random_triples(45, 61, 0.12, 37);
  psim::SimRuntime rt(4, psim::MachineModel{});
  auto B = pd::DistSpMat<int>::from_global_triples(rt.grid(), 45, 61, triples);
  auto stripes = pd::split_col_stripes(rt, B, 4);
  std::vector<ps::Triple<int>> merged;
  ps::Index offset = 0;
  for (const auto& s : stripes) {
    for (const auto& t : s.to_global_triples()) {
      merged.push_back({t.row, t.col + offset, t.val});
    }
    offset += s.ncols();
  }
  EXPECT_EQ(offset, 61u);
  EXPECT_EQ(to_map(merged), to_map(triples));
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

  auto sa = pd::split_row_stripes(rt, A, c.br);
  auto sb = pd::split_col_stripes(rt, B, c.bc);
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
    auto B = A.transposed();
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

// ---- thread-pool sweeps for the reshape primitives -------------------------

TEST(DistSpMat, TransposedIsPoolInvariant) {
  // transposed() routes through from_global_triples, whose per-tile builds
  // may fan out over a pool — exercised directly here (1/2/8 workers plus
  // the serial path), not just through the SUMMA suites.
  const auto triples = random_triples(83, 59, 0.13, 101);
  const psim::ProcGrid grid(9);
  auto D = pd::DistSpMat<int>::from_global_triples(grid, 83, 59, triples);
  const auto serial = D.transposed();
  for (std::size_t threads : {1u, 2u, 8u}) {
    pastis::util::ThreadPool pool(threads);
    const auto pooled = D.transposed(&pool);
    ASSERT_EQ(pooled.nnz(), serial.nnz()) << "threads=" << threads;
    for (int r = 0; r < grid.size(); ++r) {
      EXPECT_TRUE(pooled.local(r) == serial.local(r))
          << "threads=" << threads << " rank=" << r;
    }
  }
}

TEST(Stripes, RowStripeSplitIsPoolInvariant) {
  const auto triples = random_triples(91, 47, 0.12, 103);
  for (std::size_t threads : {1u, 2u, 8u}) {
    pastis::util::ThreadPool pool(threads);
    psim::SimRuntime rt(9, psim::MachineModel{}, &pool);
    auto A = pd::DistSpMat<int>::from_global_triples(rt.grid(), 91, 47,
                                                     triples);
    psim::SimRuntime rt_serial(9, psim::MachineModel{});
    const auto serial = pd::split_row_stripes(rt_serial, A, 4);
    const auto pooled = pd::split_row_stripes(rt, A, 4, &pool);
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t s = 0; s < serial.size(); ++s) {
      for (int r = 0; r < rt.grid().size(); ++r) {
        EXPECT_TRUE(pooled[s].local(r) == serial[s].local(r))
            << "threads=" << threads << " stripe=" << s << " rank=" << r;
      }
    }
  }
}

// ---- row-stripe reshapes (the distributed MCL layout) ----------------------

TEST(Stripes, GatherRowStripesTilesTheRows) {
  const auto triples = random_triples(77, 77, 0.1, 107);
  // A copy-through epilogue makes the fused gather a plain reshape.
  auto copy_row = [](std::size_t, ps::Index, const ps::Index* cols,
                     const int* vals, std::size_t n, ps::Index* out_cols,
                     int* out_vals) {
    std::copy_n(cols, n, out_cols);
    std::copy_n(vals, n, out_vals);
    return n;
  };
  for (int p : {1, 4, 9}) {
    psim::SimRuntime rt(p, psim::MachineModel{});
    auto A = pd::DistSpMat<int>::from_global_triples(rt.grid(), 77, 77,
                                                     triples);
    const auto stripes = pd::gather_row_stripes_fused(rt, A, copy_row, 0);
    ASSERT_EQ(stripes.size(), static_cast<std::size_t>(p));
    // Stripes tile the rows; entries carry global columns.
    ps::Index rows = 0;
    std::vector<ps::Triple<int>> merged;
    for (const auto& s : stripes) {
      for (const auto& t : s.to_triples()) {
        merged.push_back({t.row + rows, t.col, t.val});
      }
      rows += s.nrows();
    }
    EXPECT_EQ(rows, 77u);
    EXPECT_EQ(to_map(merged), to_map(triples));
    // The reshape's wire time was charged.
    if (p > 1) {
      EXPECT_GT(rt.sum_over_ranks(psim::Comp::kSparseOther), 0.0);
    }
  }
}

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

// ---- gather-stages SUMMA (the bitwise-exact float fold) --------------------

TEST(Summa, GatherStagesAgreesWithStagedMergeOnInts) {
  const auto ta = random_triples(45, 45, 0.2, 111);
  const auto tb = random_triples(45, 45, 0.2, 112);
  psim::SimRuntime rt(9, psim::MachineModel{});
  auto A = pd::DistSpMat<int>::from_global_triples(rt.grid(), 45, 45, ta);
  auto B = pd::DistSpMat<int>::from_global_triples(rt.grid(), 45, 45, tb);
  pd::SummaOptions staged, gathered;
  gathered.gather_stages = true;
  ps::SpGemmStats s1, s2;
  auto Cs = pd::summa<ps::PlusTimes<int>>(rt, A, B, staged, &s1);
  auto Cg = pd::summa<ps::PlusTimes<int>>(rt, A, B, gathered, &s2);
  EXPECT_EQ(to_map(Cs.to_global_triples()), to_map(Cg.to_global_triples()));
  EXPECT_EQ(s1.products, s2.products);
}

TEST(Summa, GatherStagesIsBitwiseEqualToSerialFloatKernel) {
  // Float addition is order-sensitive: the staged merge regroups the
  // per-stage partial sums, but the gather-stages fold accumulates every
  // C(i,j) in ascending-k order exactly like the serial kernel — bitwise,
  // on any grid. This is what the distributed MCL's determinism rests on.
  pastis::util::Xoshiro256 rng(113);
  std::vector<ps::Triple<float>> tf;
  for (ps::Index i = 0; i < 60; ++i) {
    for (ps::Index j = 0; j < 60; ++j) {
      if (rng.chance(0.2)) {
        tf.push_back({i, j, 0.01f + static_cast<float>(rng.uniform())});
      }
    }
  }
  auto As = ps::SpMat<float>::from_triples(60, 60, tf);
  const auto serial = ps::spgemm_hash2p<ps::PlusTimes<float>>(As, As);

  for (int p : {4, 9}) {
    psim::SimRuntime rt(p, psim::MachineModel{});
    auto A = pd::DistSpMat<float>::from_global_triples(rt.grid(), 60, 60, tf);
    pd::SummaOptions opt;
    opt.gather_stages = true;
    auto C = pd::summa<ps::PlusTimes<float>>(rt, A, A, opt);
    auto triples = C.to_global_triples();
    ps::sort_triples(triples);
    const auto expect = serial.to_triples();
    ASSERT_EQ(triples.size(), expect.size()) << "p=" << p;
    for (std::size_t i = 0; i < triples.size(); ++i) {
      EXPECT_EQ(triples[i].row, expect[i].row);
      EXPECT_EQ(triples[i].col, expect[i].col);
      // Bitwise float equality, not approximate.
      EXPECT_EQ(triples[i].val, expect[i].val) << "p=" << p << " i=" << i;
    }
  }
}
