#include "baseline/replicated_index.hpp"

#include <algorithm>

#include "baseline/chunk_search.hpp"
#include "sim/grid.hpp"
#include "util/timer.hpp"

namespace pastis::baseline {

std::vector<io::SimilarityEdge> replicated_index_search(
    const std::vector<std::string>& seqs, const core::PastisConfig& cfg,
    const sim::MachineModel& model, int nprocs, ReplicationMode mode,
    ReplicatedIndexStats* stats, util::ThreadPool* pool) {
  util::Timer wall;
  const auto n = static_cast<std::uint32_t>(seqs.size());
  const bool ref_chunked = mode == ReplicationMode::kReferenceChunked;
  auto chunk_begin = [&](int q) {
    return sim::ProcGrid::split_point(n, nprocs, q);
  };

  // Rank q searches every query against its reference chunk (mode 1) or
  // its query chunk against the whole index (mode 2); either way the
  // rank pairs tile the query × reference square, so the chunk search's
  // i < j rule aligns each unordered pair once.
  std::vector<ChunkResult> ranks(static_cast<std::size_t>(nprocs));
  util::parallel_for(pool, ranks.size(), [&](std::size_t qr) {
    const int q = static_cast<int>(qr);
    ranks[qr] = ref_chunked ? chunk_search(seqs, 0, n, chunk_begin(q),
                                           chunk_begin(q + 1), cfg, pool)
                            : chunk_search(seqs, chunk_begin(q),
                                           chunk_begin(q + 1), 0, n, cfg, pool);
  });

  std::vector<io::SimilarityEdge> edges;
  for (const auto& r : ranks) {
    edges.insert(edges.end(), r.edges.begin(), r.edges.end());
  }
  io::sort_edges(edges);

  if (stats != nullptr) {
    std::uint64_t seq_bytes = 0;
    for (const auto& s : seqs) seq_bytes += s.size();
    std::uint64_t max_products = 0, max_cells = 0;
    for (int q = 0; q < nprocs; ++q) {
      const ChunkResult& r = ranks[static_cast<std::size_t>(q)];
      stats->candidates += r.candidates;
      stats->aligned_pairs += r.aligned;
      stats->cells += r.cells;
      max_products = std::max(max_products, r.products);
      max_cells = std::max(max_cells, r.cells);
      // The replication wall: the index a rank holds plus the sequences
      // it must keep — all queries (mode 1), or its query chunk and every
      // target's residues (mode 2).
      const std::uint64_t rank_bytes =
          ref_chunked
              ? r.index_bytes + seq_bytes
              : r.index_bytes +
                    (seq_bytes * (chunk_begin(q + 1) - chunk_begin(q))) /
                        std::max<std::uint32_t>(1, n) +
                    seq_bytes;
      stats->peak_rank_bytes = std::max(stats->peak_rank_bytes, rank_bytes);
    }
    stats->similar_pairs = edges.size();
    // Intermediate per-chunk results are staged through the filesystem and
    // merged (MMseqs2's MPI workflow): hits are written and read back, and
    // every rank stages the sequence set, so the volume scales with ranks.
    const std::uint64_t hit_bytes = stats->aligned_pairs * 32;
    stats->io_bytes =
        hit_bytes * 2 + seq_bytes * static_cast<std::uint64_t>(nprocs);

    // Modeled time: index scan at the sparse-products rate, alignment on
    // CPU SIMD (MMseqs2 has no GPU path — §IV), IO for staging and merge.
    const double cpu_cups =
        model.cpu_simd_cups_per_core * model.cores_per_node;
    stats->modeled_seconds =
        model.spgemm_time(max_products) +
        static_cast<double>(max_cells) / cpu_cups +
        model.io_time(stats->io_bytes, nprocs);
    stats->wall_seconds = wall.seconds();
  }
  return edges;
}

}  // namespace pastis::baseline
