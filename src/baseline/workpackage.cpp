#include "baseline/workpackage.hpp"

#include <algorithm>

#include "baseline/chunk_search.hpp"
#include "sim/grid.hpp"
#include "util/timer.hpp"

namespace pastis::baseline {

std::vector<io::SimilarityEdge> work_package_search(
    const std::vector<std::string>& seqs, const core::PastisConfig& cfg,
    const sim::MachineModel& model, int query_chunks, int ref_chunks,
    int workers, WorkPackageStats* stats, util::ThreadPool* pool) {
  util::Timer wall;
  const auto n = static_cast<std::uint32_t>(seqs.size());
  auto qsplit = [&](int c) { return sim::ProcGrid::split_point(n, query_chunks, c); };
  auto rsplit = [&](int c) { return sim::ProcGrid::split_point(n, ref_chunks, c); };

  const int n_packages = query_chunks * ref_chunks;
  std::vector<ChunkResult> packages(static_cast<std::size_t>(n_packages));
  util::parallel_for(pool, packages.size(), [&](std::size_t pkg) {
    const int qc = static_cast<int>(pkg) / ref_chunks;
    const int rc = static_cast<int>(pkg) % ref_chunks;
    packages[pkg] = chunk_search(seqs, qsplit(qc), qsplit(qc + 1), rsplit(rc),
                                 rsplit(rc + 1), cfg, pool);
  });

  std::vector<io::SimilarityEdge> edges;
  for (const auto& o : packages) {
    edges.insert(edges.end(), o.edges.begin(), o.edges.end());
  }
  io::sort_edges(edges);

  if (stats != nullptr) {
    stats->query_chunks = query_chunks;
    stats->ref_chunks = ref_chunks;
    stats->packages = n_packages;
    stats->similar_pairs = edges.size();

    std::uint64_t seq_bytes = 0;
    for (const auto& s : seqs) seq_bytes += s.size();
    const double cpu_cups =
        model.cpu_simd_cups_per_core * model.cores_per_node;

    // Per-package modeled time (read chunks, scan, align, write its hits to
    // the FS), then greedy longest-processing-time scheduling on the
    // workers.
    std::vector<double> package_time(static_cast<std::size_t>(n_packages));
    std::uint64_t join_bytes = 0;
    for (int k = 0; k < n_packages; ++k) {
      const auto& o = packages[static_cast<std::size_t>(k)];
      stats->candidates += o.candidates;
      stats->aligned_pairs += o.aligned;
      stats->cells += o.cells;
      const std::uint64_t chunk_bytes =
          seq_bytes / static_cast<std::uint64_t>(query_chunks) +
          seq_bytes / static_cast<std::uint64_t>(ref_chunks);
      const std::uint64_t hit_bytes = o.aligned * 32;
      join_bytes += hit_bytes;
      stats->io_bytes += chunk_bytes + hit_bytes;
      package_time[static_cast<std::size_t>(k)] =
          model.io_time(chunk_bytes + hit_bytes, 1) +
          model.spgemm_time(o.products) +
          static_cast<double>(o.cells) / cpu_cups;
    }
    // Join pass: every query chunk's hits are read back and merged.
    stats->io_bytes += join_bytes;

    std::sort(package_time.rbegin(), package_time.rend());
    std::vector<double> load(static_cast<std::size_t>(std::max(1, workers)), 0.0);
    for (double t : package_time) {
      *std::min_element(load.begin(), load.end()) += t;
    }
    stats->modeled_seconds = *std::max_element(load.begin(), load.end()) +
                             model.io_time(join_bytes, workers);
    stats->wall_seconds = wall.seconds();
  }
  return edges;
}

}  // namespace pastis::baseline
