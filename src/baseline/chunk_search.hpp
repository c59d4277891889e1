// One query-chunk × reference-chunk search: the unit of work of both
// distributed baselines (paper §IV). MMseqs2's ranks and DIAMOND's work
// packages schedule, replicate and stage chunks differently, but inside a
// chunk pair both run PASTIS's candidate rule — the k-mer matrix SpGEMM
// with substitute k-mers (Fig. 1) — and a full Smith-Waterman of every
// candidate, so this runs exactly the library's stages: the query chunk's
// A and the reference chunk's Aᵀ from core::kmer_matrix_blocks, the counts
// from core::discovery_spgemm over the OverlapSemiring, and alignment and
// the ANI/coverage filter through core::align_and_filter with the cascade
// off. Over chunk pairs that cover every unordered pair once, the edges
// are PASTIS's graph for full Smith-Waterman with the cascade off,
// substitute k-mers included.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "io/graph_io.hpp"
#include "util/thread_pool.hpp"

namespace pastis::baseline {

struct ChunkResult {
  /// Pairs that passed the filter, query = smaller id (unsorted).
  std::vector<io::SimilarityEdge> edges;
  /// Unordered pairs i < j sharing at least one k-mer.
  std::uint64_t candidates = 0;
  /// Candidates at or above cfg.common_kmer_threshold, all aligned.
  std::uint64_t aligned = 0;
  std::uint64_t cells = 0;
  /// Discovery SpGEMM products, without each sequence's products with
  /// itself.
  std::uint64_t products = 0;
  /// Bytes of the reference chunk's Aᵀ: the index the chunk's owner holds.
  std::uint64_t index_bytes = 0;
};

/// Searches queries seqs[q_begin, q_end) against references
/// seqs[r_begin, r_end) and keeps each pair (i, j) with i < j, i a query
/// and j a reference, so chunk pairs that tile the query × reference
/// square find every unordered pair once. Pool work (extraction, the
/// SpGEMM, the alignment batch) may nest inside a caller's parallel_for;
/// results do not depend on the pool.
[[nodiscard]] ChunkResult chunk_search(const std::vector<std::string>& seqs,
                                       std::uint32_t q_begin,
                                       std::uint32_t q_end,
                                       std::uint32_t r_begin,
                                       std::uint32_t r_end,
                                       const core::PastisConfig& cfg,
                                       util::ThreadPool* pool);

}  // namespace pastis::baseline
