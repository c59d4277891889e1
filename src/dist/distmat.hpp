// 2D-distributed sparse matrix over the simulated √p × √p process grid
// (paper §V-A: CombBLAS's square-grid decomposition).
//
// The global M × N matrix is tiled: grid row gi owns rows
// [split(M, side, gi), split(M, side, gi+1)), grid column gj the analogous
// column range; rank (gi, gj) stores its tile as a local DCSR SpMat in
// tile-local coordinates. All collective reshapes (construction from global
// triples, transpose, the stripe splits of the blocked SUMMA §VI-A) move
// real data between the rank-local tiles deterministically; the *time* of
// the wire traffic is charged to the MachineModel by the callers or the
// split helpers below.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/grid.hpp"
#include "sim/runtime.hpp"
#include "sparse/matrix.hpp"
#include "sparse/triple.hpp"
#include "util/thread_pool.hpp"

namespace pastis::dist {

using sparse::Index;
using sparse::Offset;
using sparse::SpMat;
using sparse::Triple;

template <typename T>
class DistSpMat {
 public:
  DistSpMat() = default;

  /// Empty matrix of the given global shape on `grid`.
  DistSpMat(const sim::ProcGrid& grid, Index nrows, Index ncols)
      : grid_(grid), nrows_(nrows), ncols_(ncols) {
    locals_.resize(static_cast<std::size_t>(grid_.size()));
    for (int r = 0; r < grid_.size(); ++r) {
      locals_[static_cast<std::size_t>(r)] =
          SpMat<T>(local_nrows(r), local_ncols(r));
    }
  }

  /// Builds from global triples: each triple is routed to its owner tile and
  /// re-indexed to tile-local coordinates. Duplicate (row, col) entries are
  /// combined with `combine(acc, v)`; the overload without `combine` keeps
  /// the last duplicate (mirroring SpMat::from_triples). Out-of-range
  /// triples throw std::out_of_range.
  template <typename CombineOp>
  static DistSpMat from_global_triples(const sim::ProcGrid& grid, Index nrows,
                                       Index ncols,
                                       const std::vector<Triple<T>>& triples,
                                       CombineOp combine,
                                       util::ThreadPool* pool = nullptr) {
    DistSpMat m(grid, nrows, ncols);
    const int side = grid.side();
    std::vector<std::vector<Triple<T>>> buckets(
        static_cast<std::size_t>(grid.size()));
    for (const auto& t : triples) {
      if (t.row >= nrows || t.col >= ncols) {
        throw std::out_of_range("DistSpMat::from_global_triples: triple out of range");
      }
      const int gi = sim::ProcGrid::part_of(t.row, nrows, side);
      const int gj = sim::ProcGrid::part_of(t.col, ncols, side);
      buckets[static_cast<std::size_t>(grid.rank_of(gi, gj))].push_back(
          {t.row - m.row_begin(gi), t.col - m.col_begin(gj), t.val});
    }
    auto build_one = [&](std::size_t rank) {
      m.locals_[rank] = SpMat<T>::from_triples(
          m.local_nrows(static_cast<int>(rank)),
          m.local_ncols(static_cast<int>(rank)), std::move(buckets[rank]),
          combine);
    };
    util::parallel_for(pool, buckets.size(), build_one);
    return m;
  }

  static DistSpMat from_global_triples(const sim::ProcGrid& grid, Index nrows,
                                       Index ncols,
                                       const std::vector<Triple<T>>& triples,
                                       util::ThreadPool* pool = nullptr) {
    return from_global_triples(
        grid, nrows, ncols, triples, [](T& acc, const T& v) { acc = v; }, pool);
  }

  [[nodiscard]] const sim::ProcGrid& grid() const { return grid_; }
  [[nodiscard]] Index nrows() const { return nrows_; }
  [[nodiscard]] Index ncols() const { return ncols_; }

  /// Global offset of grid row `gi` / grid column `gj`.
  [[nodiscard]] Index row_begin(int gi) const {
    return sim::ProcGrid::split_point(nrows_, grid_.side(), gi);
  }
  [[nodiscard]] Index col_begin(int gj) const {
    return sim::ProcGrid::split_point(ncols_, grid_.side(), gj);
  }

  [[nodiscard]] Index local_nrows(int rank) const {
    const int gi = grid_.row_of(rank);
    return row_begin(gi + 1) - row_begin(gi);
  }
  [[nodiscard]] Index local_ncols(int rank) const {
    const int gj = grid_.col_of(rank);
    return col_begin(gj + 1) - col_begin(gj);
  }

  [[nodiscard]] const SpMat<T>& local(int rank) const {
    return locals_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] SpMat<T>& local(int rank) {
    return locals_[static_cast<std::size_t>(rank)];
  }

  [[nodiscard]] Offset nnz() const {
    Offset total = 0;
    for (const auto& l : locals_) total += l.nnz();
    return total;
  }

  /// Logical bytes across all tiles.
  [[nodiscard]] std::uint64_t bytes() const {
    std::uint64_t total = 0;
    for (const auto& l : locals_) total += l.bytes();
    return total;
  }

  /// Exports all tiles back to global coordinates (rank-major order).
  [[nodiscard]] std::vector<Triple<T>> to_global_triples() const {
    std::vector<Triple<T>> out;
    out.reserve(static_cast<std::size_t>(nnz()));
    for (int rank = 0; rank < grid_.size(); ++rank) {
      const Index r0 = row_begin(grid_.row_of(rank));
      const Index c0 = col_begin(grid_.col_of(rank));
      locals_[static_cast<std::size_t>(rank)].for_each(
          [&](Index i, Index j, const T& v) {
            out.push_back({r0 + i, c0 + j, v});
          });
    }
    return out;
  }

  /// Global transpose (pairwise tile exchange on the real machine). The
  /// caller charges the wire time; the data movement itself is exact.
  [[nodiscard]] DistSpMat transposed(util::ThreadPool* pool = nullptr) const {
    auto triples = to_global_triples();
    for (auto& t : triples) std::swap(t.row, t.col);
    return from_global_triples(grid_, ncols_, nrows_, triples, pool);
  }

 private:
  sim::ProcGrid grid_{1};
  Index nrows_ = 0;
  Index ncols_ = 0;
  std::vector<SpMat<T>> locals_;  // one tile per rank, tile-local coords
};

/// Splits A into `nb` row stripes (stripe r = global rows
/// [split(M, nb, r), split(M, nb, r+1)), re-indexed to stripe-local rows),
/// each redistributed over the full grid — the input layout of the blocked
/// SUMMA (§VI-A). Charges the all-to-all redistribution to kSparseOther.
template <typename T>
[[nodiscard]] std::vector<DistSpMat<T>> split_row_stripes(
    sim::SimRuntime& rt, const DistSpMat<T>& A, int nb,
    util::ThreadPool* pool = nullptr) {
  const Index n = A.nrows();
  std::vector<std::vector<Triple<T>>> per_stripe(static_cast<std::size_t>(nb));
  for (const auto& t : A.to_global_triples()) {
    const int s = sim::ProcGrid::part_of(t.row, n, nb);
    per_stripe[static_cast<std::size_t>(s)].push_back(
        {t.row - sim::ProcGrid::split_point(n, nb, s), t.col, t.val});
  }
  std::vector<DistSpMat<T>> stripes;
  stripes.reserve(per_stripe.size());
  for (int s = 0; s < nb; ++s) {
    const Index rows = sim::ProcGrid::split_point(n, nb, s + 1) -
                       sim::ProcGrid::split_point(n, nb, s);
    stripes.push_back(DistSpMat<T>::from_global_triples(
        rt.grid(), rows, A.ncols(), per_stripe[static_cast<std::size_t>(s)],
        pool));
  }
  // Redistribution cost: every rank streams its tile out and its stripe
  // slices back in; the wire carries each tile once.
  rt.spmd([&](int rank) {
    const std::uint64_t b = A.local(rank).bytes();
    rt.clock(rank).charge(sim::Comp::kSparseOther,
                          rt.model().sparse_stream_time(2 * b) +
                              rt.model().p2p_time(b));
    rt.clock(rank).bytes_sent += b;
    rt.clock(rank).bytes_recv += b;
  });
  return stripes;
}

/// Column-stripe analogue of split_row_stripes.
template <typename T>
[[nodiscard]] std::vector<DistSpMat<T>> split_col_stripes(
    sim::SimRuntime& rt, const DistSpMat<T>& B, int nb,
    util::ThreadPool* pool = nullptr) {
  const Index n = B.ncols();
  std::vector<std::vector<Triple<T>>> per_stripe(static_cast<std::size_t>(nb));
  for (const auto& t : B.to_global_triples()) {
    const int s = sim::ProcGrid::part_of(t.col, n, nb);
    per_stripe[static_cast<std::size_t>(s)].push_back(
        {t.row, t.col - sim::ProcGrid::split_point(n, nb, s), t.val});
  }
  std::vector<DistSpMat<T>> stripes;
  stripes.reserve(per_stripe.size());
  for (int s = 0; s < nb; ++s) {
    const Index cols = sim::ProcGrid::split_point(n, nb, s + 1) -
                       sim::ProcGrid::split_point(n, nb, s);
    stripes.push_back(DistSpMat<T>::from_global_triples(
        rt.grid(), B.nrows(), cols, per_stripe[static_cast<std::size_t>(s)],
        pool));
  }
  rt.spmd([&](int rank) {
    const std::uint64_t b = B.local(rank).bytes();
    rt.clock(rank).charge(sim::Comp::kSparseOther,
                          rt.model().sparse_stream_time(2 * b) +
                              rt.model().p2p_time(b));
    rt.clock(rank).bytes_sent += b;
    rt.clock(rank).bytes_recv += b;
  });
  return stripes;
}

/// Horizontally concatenates the tiles of grid row `gi` into one strip:
/// rows = the grid row's local rows, columns = global. Tiles along a grid
/// row own consecutive disjoint column ranges, so per-row segments
/// concatenate in grid-column order straight into sorted DCSR — no sort,
/// no dedup, values bit-exact. This is the A-side operand assembly of the
/// gather-stages SUMMA fold (dist/summa.hpp).
template <typename T>
[[nodiscard]] SpMat<T> hstack_grid_row(const DistSpMat<T>& A, int gi) {
  const int side = A.grid().side();
  const Index R = A.row_begin(gi + 1) - A.row_begin(gi);
  std::vector<Offset> counts(R, 0);
  for (int s = 0; s < side; ++s) {
    const auto& t = A.local(A.grid().rank_of(gi, s));
    for (std::size_t k = 0; k < t.n_nonempty_rows(); ++k) {
      counts[t.row_id(k)] += t.row_end(k) - t.row_begin(k);
    }
  }
  std::vector<Index> row_ids;
  std::vector<Offset> row_ptr;
  row_ptr.push_back(0);
  std::vector<Offset> cursor(R, 0);
  Offset nnz = 0;
  for (Index r = 0; r < R; ++r) {
    if (counts[r] == 0) continue;
    row_ids.push_back(r);
    cursor[r] = nnz;
    nnz += counts[r];
    row_ptr.push_back(nnz);
  }
  if (nnz == 0) return SpMat<T>(R, A.ncols());
  std::vector<Index> cols(nnz);
  std::vector<T> vals(nnz);
  for (int s = 0; s < side; ++s) {
    const Index c0 = A.col_begin(s);
    const auto& t = A.local(A.grid().rank_of(gi, s));
    for (std::size_t k = 0; k < t.n_nonempty_rows(); ++k) {
      const Index r = t.row_id(k);
      for (Offset o = t.row_begin(k); o < t.row_end(k); ++o) {
        cols[cursor[r]] = t.col(o) + c0;
        vals[cursor[r]] = t.val(o);
        ++cursor[r];
      }
    }
  }
  return SpMat<T>::from_sorted_parts(R, A.ncols(), std::move(row_ids),
                                     std::move(row_ptr), std::move(cols),
                                     std::move(vals));
}

/// Vertically concatenates the tiles of grid column `gj`: rows = global,
/// columns = the grid column's local columns. Tiles down a grid column own
/// consecutive disjoint row ranges, so the concatenation in grid-row order
/// is sorted DCSR by construction. The B-side operand assembly of the
/// gather-stages SUMMA fold.
template <typename T>
[[nodiscard]] SpMat<T> vstack_grid_col(const DistSpMat<T>& B, int gj) {
  const int side = B.grid().side();
  const Index C = B.col_begin(gj + 1) - B.col_begin(gj);
  std::vector<Index> row_ids;
  std::vector<Offset> row_ptr;
  std::vector<Index> cols;
  std::vector<T> vals;
  row_ptr.push_back(0);
  for (int s = 0; s < side; ++s) {
    const Index r0 = B.row_begin(s);
    const auto& t = B.local(B.grid().rank_of(s, gj));
    for (std::size_t k = 0; k < t.n_nonempty_rows(); ++k) {
      row_ids.push_back(t.row_id(k) + r0);
      for (Offset o = t.row_begin(k); o < t.row_end(k); ++o) {
        cols.push_back(t.col(o));
        vals.push_back(t.val(o));
      }
      row_ptr.push_back(static_cast<Offset>(cols.size()));
    }
  }
  return SpMat<T>::from_sorted_parts(B.nrows(), C, std::move(row_ids),
                                     std::move(row_ptr), std::move(cols),
                                     std::move(vals));
}

}  // namespace pastis::dist
