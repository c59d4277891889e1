// DIAMOND-style work-package search (paper §IV).
//
// DIAMOND's distributed mode avoids MPI: both query and reference sets are
// split into chunks; every (query-chunk × reference-chunk) element of the
// cartesian product is a *work package* processed independently by worker
// processes, staging inputs and results through a POSIX parallel
// filesystem, with a final join pass per query chunk. The design trades
// performance for commodity-cluster friendliness and fault tolerance — the
// paper's §IV calls out the file-system pressure this creates on HPC
// systems. Each package is one chunk_search (baseline/chunk_search.hpp),
// PASTIS's own candidate rule and filter, so the graph is identical to
// PASTIS's for full Smith-Waterman with the cascade off, substitute k-mers
// included; the interesting outputs are the IO volume and the makespan.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "io/graph_io.hpp"
#include "sim/machine_model.hpp"
#include "util/thread_pool.hpp"

namespace pastis::baseline {

struct WorkPackageStats {
  int query_chunks = 0;
  int ref_chunks = 0;
  int packages = 0;
  std::uint64_t candidates = 0;
  std::uint64_t aligned_pairs = 0;
  std::uint64_t similar_pairs = 0;
  std::uint64_t cells = 0;
  /// Bytes staged through the shared filesystem (chunk reads, per-package
  /// hit writes, join reads/writes).
  std::uint64_t io_bytes = 0;
  /// Makespan of scheduling the packages on `workers` nodes (greedy LPT).
  double modeled_seconds = 0.0;
  double wall_seconds = 0.0;
};

/// Self-search of `seqs` split into query_chunks × ref_chunks packages,
/// executed by `workers` simulated worker nodes.
[[nodiscard]] std::vector<io::SimilarityEdge> work_package_search(
    const std::vector<std::string>& seqs, const core::PastisConfig& cfg,
    const sim::MachineModel& model, int query_chunks, int ref_chunks,
    int workers, WorkPackageStats* stats = nullptr,
    util::ThreadPool* pool = &util::ThreadPool::global());

}  // namespace pastis::baseline
