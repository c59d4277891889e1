#include "cluster/components.hpp"

#include <algorithm>

namespace pastis::cluster {

namespace {

Clustering propagate_min_labels(const sparse::SpMat<float>& adj,
                                util::ThreadPool* pool) {
  const std::size_t n = adj.nrows();
  std::vector<Index> cur(n);
  for (std::size_t v = 0; v < n; ++v) cur[v] = static_cast<Index>(v);
  if (adj.empty()) return canonicalize(cur);

  std::vector<Index> next(n);
  const std::size_t n_rows = adj.n_nonempty_rows();

  // Per-chunk change flags avoid an atomic in the hot loop; parallel_for's
  // chunking is schedule-only, so flags are written per-row-slot via a
  // plain array indexed by row (merged after the pass).
  std::vector<std::uint8_t> row_changed(n_rows);

  for (;;) {
    // Neighbour-min pass (Jacobi: reads cur, writes next once per vertex).
    std::copy(cur.begin(), cur.end(), next.begin());
    util::parallel_for(pool, n_rows, [&](std::size_t k) {
      const Index v = adj.row_id(k);
      Index m = cur[v];
      for (Offset o = adj.row_begin(k); o < adj.row_end(k); ++o) {
        m = std::min(m, cur[adj.col(o)]);
      }
      next[v] = m;
      row_changed[k] = m != cur[v] ? 1 : 0;
    });
    bool changed = false;
    for (const auto f : row_changed) changed = changed || f != 0;

    // Full pointer-jumping compression: every vertex chases next's parent
    // chain to its root. next[v] <= v throughout, so chains strictly
    // decrease and terminate; the chase reads the completed next array
    // only, so it parallelizes with one write per vertex.
    util::parallel_for(pool, n, [&](std::size_t v) {
      Index r = next[v];
      while (next[r] != r) r = next[r];
      cur[v] = r;
    });
    if (!changed) break;
  }
  return canonicalize(cur);
}

}  // namespace

Clustering connected_components(const SimilarityGraph& g,
                                util::ThreadPool* pool) {
  return propagate_min_labels(g.adjacency(), pool);
}

Clustering components_of_adjacency(const sparse::SpMat<float>& adj,
                                   util::ThreadPool* pool) {
  return propagate_min_labels(adj, pool);
}

}  // namespace pastis::cluster
