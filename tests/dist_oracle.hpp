// Test-side reshapes of a DistSpMat through global triples: the oracle the
// library's tile-by-tile transposes and stripe cuts are compared with.
#pragma once

#include <utility>
#include <vector>

#include "dist/distmat.hpp"

namespace pastis::test {

/// The global transpose, routed through global coordinates.
template <typename T>
dist::DistSpMat<T> transpose_global(const dist::DistSpMat<T>& m) {
  auto triples = m.to_global_triples();
  for (auto& t : triples) std::swap(t.row, t.col);
  return dist::DistSpMat<T>::from_global_triples(m.grid(), m.ncols(),
                                                 m.nrows(), triples);
}

/// `nb` row (`rows`) or column stripes: stripe s holds the rows (columns)
/// [split(n, nb, s), split(n, nb, s+1)), re-indexed to stripe-local
/// coordinates and distributed over m's grid.
template <typename T>
std::vector<dist::DistSpMat<T>> stripes_global(const dist::DistSpMat<T>& m,
                                               int nb, bool rows) {
  using sim::ProcGrid;
  const sparse::Index n = rows ? m.nrows() : m.ncols();
  std::vector<std::vector<sparse::Triple<T>>> per_stripe(
      static_cast<std::size_t>(nb));
  for (auto t : m.to_global_triples()) {
    auto& x = rows ? t.row : t.col;
    const int s = ProcGrid::part_of(x, n, nb);
    x -= ProcGrid::split_point(n, nb, s);
    per_stripe[static_cast<std::size_t>(s)].push_back(t);
  }
  std::vector<dist::DistSpMat<T>> stripes;
  for (int s = 0; s < nb; ++s) {
    const sparse::Index len =
        ProcGrid::split_point(n, nb, s + 1) - ProcGrid::split_point(n, nb, s);
    stripes.push_back(dist::DistSpMat<T>::from_global_triples(
        m.grid(), rows ? len : m.nrows(), rows ? m.ncols() : len,
        per_stripe[static_cast<std::size_t>(s)]));
  }
  return stripes;
}

}  // namespace pastis::test
