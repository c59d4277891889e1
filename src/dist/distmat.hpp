// 2D-distributed sparse matrix over the simulated √p × √p process grid
// (paper §V-A: CombBLAS's square-grid decomposition).
//
// The global M × N matrix is tiled: grid row gi owns rows
// [split(M, side, gi), split(M, side, gi+1)), grid column gj the analogous
// column range; rank (gi, gj) stores its tile as a local DCSR SpMat in
// tile-local coordinates. Producers fill the tiles directly (the k-mer
// stripes of core/kmer_matrix, SUMMA's output) and charge the wire time of
// their reshapes to the MachineModel themselves. from_global_triples and
// to_global_triples route through global coordinates — the tests' oracle
// pair, not a production path.
#pragma once

#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/grid.hpp"
#include "sparse/matrix.hpp"
#include "sparse/triple.hpp"

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
                                       CombineOp combine) {
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
    for (int rank = 0; rank < grid.size(); ++rank) {
      m.local(rank) = SpMat<T>::from_triples(
          m.local_nrows(rank), m.local_ncols(rank),
          std::move(buckets[static_cast<std::size_t>(rank)]), combine);
    }
    return m;
  }

  static DistSpMat from_global_triples(const sim::ProcGrid& grid, Index nrows,
                                       Index ncols,
                                       const std::vector<Triple<T>>& triples) {
    return from_global_triples(grid, nrows, ncols, triples,
                               [](T& acc, const T& v) { acc = v; });
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

 private:
  sim::ProcGrid grid_{1};
  Index nrows_ = 0;
  Index ncols_ = 0;
  std::vector<SpMat<T>> locals_;  // one tile per rank, tile-local coords
};

}  // namespace pastis::dist
