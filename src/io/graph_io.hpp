// Similarity-graph triples IO.
//
// The search output is "the similarity graph in triplets whose entries
// indicate two sequences and the similarity between them" (§V-B). Each line
// carries the pair, alignment score, identity (ANI) and coverage — enough
// for the downstream clustering workflows the paper motivates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pastis::io {

struct SimilarityEdge {
  std::uint32_t seq_a = 0;
  std::uint32_t seq_b = 0;
  float ani = 0.0f;    // alignment identity in [0,1]
  float cov = 0.0f;    // short coverage in [0,1]
  std::int32_t score = 0;

  friend bool operator==(const SimilarityEdge&, const SimilarityEdge&) = default;
};

/// Writes edges as TSV: seq_a, seq_b, ani, cov, score.
void write_similarity_graph(const std::string& path,
                            const std::vector<SimilarityEdge>& edges);

/// Reads a TSV similarity graph back. Throws std::runtime_error, naming the
/// 1-based line, at the first line that does not hold all five fields,
/// a truncated last line included.
[[nodiscard]] std::vector<SimilarityEdge> read_similarity_graph(
    const std::string& path);

/// Canonical ordering (seq_a, seq_b ascending) used when comparing graphs
/// produced by different parallel decompositions.
void sort_edges(std::vector<SimilarityEdge>& edges);

/// Writes per-sequence cluster assignments as TSV (`seq_id <tab>
/// cluster_id`, one line per sequence, seq ids ascending from 0). Cluster
/// ids are renumbered deterministically by smallest member before writing
/// — the same canonical form cluster::canonicalize produces — so files
/// from different runs/machines diff clean.
void write_cluster_assignments(const std::string& path,
                               const std::vector<std::uint32_t>& assignment);

/// Reads an assignment TSV back (inverse of write). Throws
/// std::runtime_error on gaps or out-of-order seq ids, and, naming the
/// 1-based line, on a malformed or truncated line.
[[nodiscard]] std::vector<std::uint32_t> read_cluster_assignments(
    const std::string& path);

/// Bytes one edge occupies in the output file model (used by the IO cost
/// accounting; the paper's production output was 27 TB for 1.05T edges,
/// ~26 bytes per edge — our TSV rows are the same order of magnitude).
[[nodiscard]] std::uint64_t edge_bytes();

}  // namespace pastis::io
