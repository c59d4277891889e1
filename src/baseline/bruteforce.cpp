#include "baseline/bruteforce.hpp"

#include <atomic>
#include <mutex>

#include "util/timer.hpp"

namespace pastis::baseline {

std::vector<io::SimilarityEdge> brute_force_search(
    const std::vector<std::string>& seqs, const align::Scoring& scoring,
    double ani_threshold, double cov_threshold, BruteForceStats* stats,
    util::ThreadPool* pool) {
  util::Timer wall;
  const std::size_t n = seqs.size();
  std::vector<std::vector<io::SimilarityEdge>> per_row(n);
  std::atomic<std::uint64_t> cells{0};

  auto row_task = [&](std::size_t i) {
    std::uint64_t row_cells = 0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const auto res = align::smith_waterman(seqs[i], seqs[j], scoring);
      row_cells += res.cells;
      const double ani = res.identity();
      const double cov = res.coverage(seqs[i].size(), seqs[j].size());
      if (ani >= ani_threshold && cov >= cov_threshold) {
        per_row[i].push_back({static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(j),
                              static_cast<float>(ani),
                              static_cast<float>(cov), res.score});
      }
    }
    cells.fetch_add(row_cells, std::memory_order_relaxed);
  };
  util::parallel_for(pool, n, row_task);

  std::vector<io::SimilarityEdge> edges;
  for (auto& row : per_row) {
    edges.insert(edges.end(), row.begin(), row.end());
  }
  io::sort_edges(edges);

  if (stats != nullptr) {
    stats->pairs = n * (n - 1) / 2;
    stats->cells = cells.load();
    stats->wall_seconds = wall.seconds();
  }
  return edges;
}

}  // namespace pastis::baseline
