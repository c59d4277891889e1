// Unit tests for the DCSR local sparse matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "sparse/matrix.hpp"
#include "util/rng.hpp"

namespace ps = pastis::sparse;

using IntMat = ps::SpMat<int>;
using Triples = std::vector<ps::Triple<int>>;

namespace {

IntMat random_matrix(ps::Index nrows, ps::Index ncols, double density,
                     std::uint64_t seed) {
  pastis::util::Xoshiro256 rng(seed);
  Triples t;
  for (ps::Index i = 0; i < nrows; ++i) {
    for (ps::Index j = 0; j < ncols; ++j) {
      if (rng.chance(density)) {
        t.push_back({i, j, static_cast<int>(rng.below(9)) + 1});
      }
    }
  }
  return IntMat::from_triples(nrows, ncols, std::move(t));
}

}  // namespace

TEST(SpMat, EmptyMatrix) {
  IntMat m(5, 7);
  EXPECT_EQ(m.nrows(), 5u);
  EXPECT_EQ(m.ncols(), 7u);
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.n_nonempty_rows(), 0u);
}

TEST(SpMat, FromTriplesSortsAnyOrder) {
  Triples t = {{2, 1, 5}, {0, 3, 7}, {2, 0, 1}, {0, 0, 2}};
  auto m = IntMat::from_triples(3, 4, t);
  EXPECT_EQ(m.nnz(), 4u);
  auto out = m.to_triples();
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end(),
                             [](const auto& a, const auto& b) {
                               return a.row != b.row ? a.row < b.row
                                                     : a.col < b.col;
                             }));
}

TEST(SpMat, FromTriplesCombinesDuplicatesWithAdd) {
  Triples t = {{1, 1, 5}, {1, 1, 3}, {0, 0, 1}};
  auto m = IntMat::from_triples(2, 2, t, [](int& a, const int& b) { a += b; });
  EXPECT_EQ(m.nnz(), 2u);
  const auto out = m.to_triples();
  EXPECT_EQ(out[1].val, 8);
}

TEST(SpMat, FromTriplesDefaultKeepsLast) {
  Triples t = {{0, 0, 1}, {0, 0, 9}};
  auto m = IntMat::from_triples(1, 1, t);
  EXPECT_EQ(m.to_triples()[0].val, 9);
}

TEST(SpMat, FromTriplesRejectsOutOfRange) {
  Triples t = {{5, 0, 1}};
  EXPECT_THROW(IntMat::from_triples(3, 3, t), std::out_of_range);
  Triples t2 = {{0, 9, 1}};
  EXPECT_THROW(IntMat::from_triples(3, 3, t2), std::out_of_range);
}

TEST(SpMat, FindRowBinarySearch) {
  Triples t = {{1, 0, 1}, {5, 2, 2}, {100, 1, 3}};
  auto m = IntMat::from_triples(200, 3, t);
  EXPECT_NE(m.find_row(1), IntMat::npos);
  EXPECT_NE(m.find_row(5), IntMat::npos);
  EXPECT_NE(m.find_row(100), IntMat::npos);
  EXPECT_EQ(m.find_row(0), IntMat::npos);
  EXPECT_EQ(m.find_row(50), IntMat::npos);
  EXPECT_EQ(m.find_row(199), IntMat::npos);
}

TEST(SpMat, HypersparseStorageIsNnzBounded) {
  // A matrix with a huge dimension but 3 nonzeros must not allocate
  // dimension-sized arrays (the DCSC/DCSR rationale; paper's k-mer matrix
  // has 244M columns).
  Triples t = {{0, 0, 1}, {1000000, 1, 2}, {4000000000u, 2, 3}};
  auto m = IntMat::from_triples(4000000001u, 3, t);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_LT(m.bytes(), 1024u);
}

TEST(SpMat, TransposeRoundTrip) {
  auto m = random_matrix(23, 17, 0.2, 42);
  auto tt = m.transposed().transposed();
  EXPECT_TRUE(m == tt);
}

TEST(SpMat, TransposeMapsCoordinates) {
  Triples t = {{1, 4, 9}};
  auto m = IntMat::from_triples(3, 6, t);
  const auto mt = m.transposed();
  EXPECT_EQ(mt.nrows(), 6u);
  EXPECT_EQ(mt.ncols(), 3u);
  const auto out = mt.to_triples();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row, 4u);
  EXPECT_EQ(out[0].col, 1u);
  EXPECT_EQ(out[0].val, 9);
}

TEST(SpMat, PrunedKeepsPredicate) {
  auto m = random_matrix(30, 30, 0.3, 7);
  auto upper = m.pruned([](ps::Index i, ps::Index j, int) { return i < j; });
  upper.for_each([](ps::Index i, ps::Index j, int) { EXPECT_LT(i, j); });
  auto none = m.pruned([](ps::Index, ps::Index, int) { return false; });
  EXPECT_EQ(none.nnz(), 0u);
}

TEST(SpMat, ExtractReindexesBlock) {
  auto m = random_matrix(40, 40, 0.25, 11);
  auto blk = m.extract(10, 30, 5, 25);
  EXPECT_EQ(blk.nrows(), 20u);
  EXPECT_EQ(blk.ncols(), 20u);
  // Every extracted element matches the original at the offset position.
  std::uint64_t count = 0;
  m.for_each([&](ps::Index i, ps::Index j, int) {
    if (i >= 10 && i < 30 && j >= 5 && j < 25) ++count;
  });
  EXPECT_EQ(blk.nnz(), count);
}

TEST(SpMat, ExtractThenReassembleEqualsOriginal) {
  auto m = random_matrix(20, 20, 0.3, 13);
  Triples merged;
  for (ps::Index r0 : {0u, 10u}) {
    for (ps::Index c0 : {0u, 10u}) {
      auto blk = m.extract(r0, r0 + 10, c0, c0 + 10);
      blk.for_each([&](ps::Index i, ps::Index j, int v) {
        merged.push_back({i + r0, j + c0, v});
      });
    }
  }
  EXPECT_TRUE(IntMat::from_triples(20, 20, merged) == m);
}

TEST(SpMat, ForEachVisitsRowMajor) {
  auto m = random_matrix(15, 15, 0.4, 17);
  ps::Index last_row = 0, last_col = 0;
  bool first = true;
  m.for_each([&](ps::Index i, ps::Index j, int) {
    if (!first) {
      EXPECT_TRUE(i > last_row || (i == last_row && j > last_col));
    }
    last_row = i;
    last_col = j;
    first = false;
  });
}

TEST(SpMat, EqualityDetectsValueDifference) {
  Triples t1 = {{0, 0, 1}};
  Triples t2 = {{0, 0, 2}};
  EXPECT_FALSE(IntMat::from_triples(1, 1, t1) == IntMat::from_triples(1, 1, t2));
}

namespace {

/// Triple-rebuild reference for the direct-build fast paths: the pre-
/// rewrite transposed/pruned/extract went through from_triples, so
/// equality against these is equality with the old behavior.
IntMat transpose_ref(const IntMat& m) {
  Triples t;
  m.for_each([&](ps::Index i, ps::Index j, int v) { t.push_back({j, i, v}); });
  return IntMat::from_triples(m.ncols(), m.nrows(), std::move(t));
}

}  // namespace

TEST(SpMatDirectBuild, FromSortedPartsEqualsFromTriples) {
  const auto m = random_matrix(37, 23, 0.2, 77);
  std::vector<ps::Index> row_ids, col_ids;
  std::vector<ps::Offset> row_ptr;
  std::vector<int> vals;
  ps::Index last_row = ps::Index(-1);
  m.for_each([&](ps::Index i, ps::Index j, int v) {
    if (i != last_row) {
      row_ids.push_back(i);
      row_ptr.push_back(static_cast<ps::Offset>(col_ids.size()));
      last_row = i;
    }
    col_ids.push_back(j);
    vals.push_back(v);
  });
  row_ptr.push_back(static_cast<ps::Offset>(col_ids.size()));
  const auto direct = IntMat::from_sorted_parts(
      37, 23, std::move(row_ids), std::move(row_ptr), std::move(col_ids),
      std::move(vals));
  EXPECT_TRUE(direct == m);
}

TEST(SpMatDirectBuild, EmptyNormalizesLikeFromTriples) {
  const auto direct = IntMat::from_sorted_parts(5, 6, {}, {0}, {}, {});
  EXPECT_TRUE(direct == IntMat::from_triples(5, 6, Triples{}));
  EXPECT_TRUE(direct == IntMat(5, 6));
  EXPECT_EQ(direct.nnz(), 0u);
}

TEST(SpMatDirectBuild, TransposedMatchesTripleRebuild) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto m = random_matrix(40, 31, 0.15, seed);
    EXPECT_TRUE(m.transposed() == transpose_ref(m));
  }
  // Hypersparse shape (dimension ≫ nnz) and fully-empty matrix.
  Triples t = {{0, 3000000000u, 1}, {17, 5, 2}, {17, 3000000000u, 3}};
  const auto h = IntMat::from_triples(20, 3000000001u, t);
  EXPECT_TRUE(h.transposed() == transpose_ref(h));
  const IntMat e(8, 9);
  EXPECT_TRUE(e.transposed() == transpose_ref(e));
}

TEST(SpMatDirectBuild, TransposedAcrossRadixPassCounts) {
  // Column counts on both sides of the radix transpose's one-, two- and
  // three-pass widths (2^14, 2^28) and the largest 32-bit shape, each with
  // columns at both ends: hypersparse, single-column and empty matrices.
  const std::array<ps::Index, 8> widths = {
      1u,           (1u << 14) - 1, 1u << 14,       (1u << 14) + 1,
      (1u << 28) - 1, (1u << 28) + 1, 0xFFFFFFFEu, 0xFFFFFFFFu};
  pastis::util::Xoshiro256 rng(91);
  for (const ps::Index ncols : widths) {
    SCOPED_TRACE("ncols " + std::to_string(ncols));
    // A few shared columns (several rows per output row), the two ends and
    // random ones; duplicates add up.
    const std::array<ps::Index, 4> shared = {
        0, ncols - 1, static_cast<ps::Index>(rng.below(ncols)),
        static_cast<ps::Index>(rng.below(ncols))};
    Triples t;
    for (ps::Index r = 0; r < 300; r += 1 + static_cast<ps::Index>(rng.below(3))) {
      for (int e = 0; e < 6; ++e) {
        const ps::Index c =
            rng.chance(0.5) ? shared[rng.below(shared.size())]
                            : static_cast<ps::Index>(rng.below(ncols));
        t.push_back({r, c, static_cast<int>(rng.below(9)) + 1});
      }
    }
    const auto h = IntMat::from_triples(300, ncols, t,
                                        [](int& a, const int& b) { a += b; });
    EXPECT_TRUE(h.transposed() == transpose_ref(h));
    EXPECT_TRUE(h.transposed().transposed() == h);
    Triples one;
    for (ps::Index r = 0; r < 300; r += 7) one.push_back({r, ncols - 1, 1});
    const auto single = IntMat::from_triples(300, ncols, one);
    EXPECT_TRUE(single.transposed() == transpose_ref(single));
    EXPECT_EQ(single.transposed().n_nonempty_rows(), 1u);
    EXPECT_TRUE(single.transposed().transposed() == single);
    const IntMat e(300, ncols);
    EXPECT_TRUE(e.transposed() == transpose_ref(e));
    EXPECT_TRUE(e.transposed().transposed() == e);
  }
}

TEST(SpMatDirectBuild, PrunedMatchesTripleRebuild) {
  const auto m = random_matrix(30, 30, 0.3, 88);
  auto pred = [](ps::Index i, ps::Index j, int v) {
    return (i + j + static_cast<ps::Index>(v)) % 3 == 0;
  };
  Triples kept;
  m.for_each([&](ps::Index i, ps::Index j, int v) {
    if (pred(i, j, v)) kept.push_back({i, j, v});
  });
  EXPECT_TRUE(m.pruned(pred) ==
              IntMat::from_triples(m.nrows(), m.ncols(), std::move(kept)));
  EXPECT_EQ(m.pruned([](ps::Index, ps::Index, int) { return false; }).nnz(),
            0u);
}

TEST(SpMatDirectBuild, ExtractMatchesTripleRebuild) {
  const auto m = random_matrix(50, 45, 0.2, 89);
  for (const auto [r0, r1, c0, c1] :
       {std::array<ps::Index, 4>{0, 50, 0, 45},
        std::array<ps::Index, 4>{10, 30, 5, 25},
        std::array<ps::Index, 4>{49, 50, 0, 45},
        std::array<ps::Index, 4>{20, 20, 10, 10}}) {
    Triples kept;
    m.for_each([&](ps::Index i, ps::Index j, int v) {
      if (i >= r0 && i < r1 && j >= c0 && j < c1) {
        kept.push_back({i - r0, j - c0, v});
      }
    });
    EXPECT_TRUE(m.extract(r0, r1, c0, c1) ==
                IntMat::from_triples(r1 - r0, c1 - c0, std::move(kept)));
  }
}

TEST(TripleHelpers, SortAndCombine) {
  Triples t = {{1, 1, 4}, {0, 0, 1}, {1, 1, 6}, {0, 1, 2}};
  ps::sort_triples(t);
  ps::combine_duplicates(t, [](int& a, const int& b) { a += b; });
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[2].val, 10);
}

// ---- block concatenation (sparse::hstack / sparse::vstack) -----------------

namespace {

std::vector<const IntMat*> ptrs(const std::vector<IntMat>& parts) {
  std::vector<const IntMat*> out;
  for (const auto& m : parts) out.push_back(&m);
  return out;
}

/// The parts' nonzeros shifted by the widths (heights) of the parts before
/// them, rebuilt through from_triples.
IntMat stacked_oracle(const std::vector<IntMat>& parts, bool side_by_side) {
  Triples t;
  ps::Index rows = 0;
  ps::Index cols = 0;
  for (const auto& m : parts) {
    m.for_each([&](ps::Index i, ps::Index j, int v) {
      t.push_back(side_by_side ? ps::Triple<int>{i, j + cols, v}
                               : ps::Triple<int>{i + rows, j, v});
    });
    if (side_by_side) {
      rows = m.nrows();
      cols += m.ncols();
    } else {
      rows += m.nrows();
      cols = m.ncols();
    }
  }
  return IntMat::from_triples(rows, cols, std::move(t));
}

}  // namespace

TEST(SparseStack, HstackMatchesShiftedTriples) {
  const std::vector<IntMat> parts = {
      random_matrix(30, 7, 0.2, 301), IntMat(30, 4),
      random_matrix(30, 11, 0.3, 302), IntMat(30, 0),
      random_matrix(30, 5, 0.05, 303)};
  const auto h = ps::hstack(ptrs(parts));
  EXPECT_EQ(h.nrows(), 30u);
  EXPECT_EQ(h.ncols(), 27u);
  EXPECT_TRUE(h == stacked_oracle(parts, true));
  // Read, not consumed.
  EXPECT_TRUE(parts[0] == random_matrix(30, 7, 0.2, 301));
}

TEST(SparseStack, VstackMatchesShiftedTriples) {
  const std::vector<IntMat> parts = {
      random_matrix(9, 20, 0.2, 311), IntMat(4, 20),
      random_matrix(13, 20, 0.3, 312), IntMat(0, 20),
      random_matrix(6, 20, 0.05, 313)};
  const auto v = ps::vstack(ptrs(parts));
  EXPECT_EQ(v.nrows(), 32u);
  EXPECT_EQ(v.ncols(), 20u);
  EXPECT_TRUE(v == stacked_oracle(parts, false));
}

TEST(SparseStack, EmptyAndSingleParts) {
  const std::vector<IntMat> one = {random_matrix(12, 9, 0.3, 321)};
  EXPECT_TRUE(ps::hstack(ptrs(one)) == one[0]);
  EXPECT_TRUE(ps::vstack(ptrs(one)) == one[0]);

  const std::vector<IntMat> empties = {IntMat(5, 3), IntMat(5, 2)};
  EXPECT_TRUE(ps::hstack(ptrs(empties)) == IntMat(5, 5));
  const std::vector<IntMat> tall = {IntMat(3, 4), IntMat(2, 4)};
  EXPECT_TRUE(ps::vstack(ptrs(tall)) == IntMat(5, 4));

  EXPECT_TRUE(ps::hstack(std::vector<const IntMat*>{}) == IntMat());
  EXPECT_TRUE(ps::vstack(std::vector<const IntMat*>{}) == IntMat());

  const std::vector<IntMat> ragged = {IntMat(5, 3), IntMat(6, 3)};
  EXPECT_THROW((void)ps::hstack(ptrs(ragged)), std::invalid_argument);
  EXPECT_THROW((void)ps::vstack(ptrs(empties)), std::invalid_argument);
}

TEST(SparseStack, HypersparseHstackIsNnzBounded) {
  // Index shards over the k-mer space are this shape: 2^30 rows, a handful
  // nonempty, some shared between parts. The stack must cost nnz, not
  // rows.
  const ps::Index rows = ps::Index{1} << 30;
  const std::array<ps::Index, 4> hot = {0, 12345, ps::Index{1} << 29,
                                        rows - 1};
  std::vector<IntMat> parts;
  for (int p = 0; p < 3; ++p) {
    Triples t;
    for (std::size_t k = 0; k < hot.size(); ++k) {
      if ((k + static_cast<std::size_t>(p)) % 2 == 0) {
        t.push_back({hot[k], 1, static_cast<int>(k) + 10 * p});
      }
    }
    parts.push_back(IntMat::from_triples(rows, 3, std::move(t)));
  }
  const auto h = ps::hstack(ptrs(parts));
  EXPECT_TRUE(h == stacked_oracle(parts, true));
  EXPECT_EQ(h.nrows(), rows);
  EXPECT_EQ(h.ncols(), 9u);
  EXPECT_EQ(h.nnz(), 6u);
  EXPECT_LT(h.bytes(), 1024u);
}
