// MMseqs2-style distributed search (paper §IV).
//
// MMseqs2's MPI parallelisation offers two modes: (1) the *reference* set is
// chunked across ranks and every rank searches ALL queries against its
// chunk, or (2) the *query* set is chunked and every rank holds the FULL
// reference index. Either way "the index data structures for at least one
// set of the sequences are replicated on each compute node ... which limits
// the largest problems that can be solved" — the exact memory wall the
// paper contrasts PASTIS against. Each rank runs one chunk_search
// (baseline/chunk_search.hpp), PASTIS's own candidate rule and filter, so
// the graph is identical to PASTIS's for full Smith-Waterman with the
// cascade off, substitute k-mers included; what differs is the per-rank
// memory and IO accounting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "io/graph_io.hpp"
#include "sim/machine_model.hpp"
#include "util/thread_pool.hpp"

namespace pastis::baseline {

enum class ReplicationMode {
  kReferenceChunked,  // mode 1: queries replicated, reference chunked
  kQueryChunked,      // mode 2: query chunked, reference index replicated
};

struct ReplicatedIndexStats {
  std::uint64_t candidates = 0;
  std::uint64_t aligned_pairs = 0;
  std::uint64_t similar_pairs = 0;
  std::uint64_t cells = 0;
  /// Logical bytes the *largest* rank must hold: the replication wall.
  std::uint64_t peak_rank_bytes = 0;
  /// Intermediate result bytes staged through the filesystem (per-chunk
  /// results are merged via files, as MMseqs2 does).
  std::uint64_t io_bytes = 0;
  double modeled_seconds = 0.0;
  double wall_seconds = 0.0;
};

/// Self-search of `seqs` with `nprocs` ranks in the given mode. Returns the
/// canonical similarity graph: PASTIS's for the same config with full
/// Smith-Waterman and the cascade off.
[[nodiscard]] std::vector<io::SimilarityEdge> replicated_index_search(
    const std::vector<std::string>& seqs, const core::PastisConfig& cfg,
    const sim::MachineModel& model, int nprocs, ReplicationMode mode,
    ReplicatedIndexStats* stats = nullptr,
    util::ThreadPool* pool = &util::ThreadPool::global());

}  // namespace pastis::baseline
