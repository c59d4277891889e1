// The PASTIS similarity-search pipeline (paper Fig. 4):
//
//   FASTA ──parallel read──► DistSeqStore
//        ──k-mer extraction──► A's grid tiles (sequences × k-mers, KmerPos)
//        ──per-tile transposes──► Aᵀ's tiles
//        ──tile slices──► A's row stripes, Aᵀ's column stripes
//                                          [core::kmer_matrix_stripes]
//   for each planned output block (r,c):               [BlockPlan, §VI-B]
//        C_rc = SUMMA(stripeA[r], stripeB[c])          [§VI-A]
//        tasks = {nonzeros of C_rc: count ≥ τ, scheme keeps (i,j)}
//        batch-align tasks on the node's devices        [ADEPT model]
//        edges += pairs with ANI ≥ 0.30 and coverage ≥ 0.70
//   write similarity graph.
//
// Streaming execution (§VI-C generalized): the block loop runs on the
// streaming executor (exec/stream_pipeline.hpp) as a software pipeline of
// {discover, screen, align} stages with cfg.pipeline_depth blocks in
// flight — depth 1 is the serial loop, depth 2 the paper's pre-blocking,
// deeper depths its generalization under the bounded-memory admission
// gate. The screen and align stages run core/stages' shared data plane.
// Results are identical for ANY depth (the schedule changes, not the
// data); the modeled timeline charges the overlapped phases as the
// pipeline makespan (for depth 2, exactly max(align_b, sparse_{b+1})
// summed — the accounting behind the paper's Table I) with the contention
// dilations of the MachineModel.
//
// Determinism: for a fixed input and configuration, the returned edge set is
// bit-identical for ANY process count, blocking factor and scheme — the
// paper's headline reproducibility property, asserted by the test suite.
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"
#include "io/graph_io.hpp"
#include "sim/machine_model.hpp"
#include "sim/runtime.hpp"
#include "util/thread_pool.hpp"

namespace pastis::core {

struct SearchResult {
  /// Canonically ordered similarity edges (seq_a < seq_b).
  std::vector<io::SimilarityEdge> edges;
  SearchStats stats;
};

/// Search + post-align clustering (§III use case 2: "find the similar
/// sequences in a given set by clustering them").
struct ClusteredSearchResult {
  SearchResult search;
  cluster::ClusterRun clustering;
};

class SimilaritySearch {
 public:
  SimilaritySearch(PastisConfig config, sim::MachineModel model, int nprocs,
                   util::ThreadPool* pool = &util::ThreadPool::global());

  /// Many-against-many search of `seqs` against itself.
  [[nodiscard]] SearchResult run(std::vector<std::string> seqs) const;

  /// run() followed by the clustering post-align stage on the edge stream.
  /// cfg.cluster_method == kNone skips the stage (the returned clustering
  /// stays empty). An MCL memory budget left at its default inherits
  /// exec_memory_budget_bytes. Cluster assignments, like the edges, are
  /// bit-identical for any process count, blocking, depth and pool size.
  [[nodiscard]] ClusteredSearchResult run_and_cluster(
      std::vector<std::string> seqs) const;

  /// FASTA-to-graph convenience wrapper: parallel chunked read, search,
  /// triples write. `out_path` may be empty to skip writing.
  [[nodiscard]] SearchResult run_fasta(const std::string& fasta_path,
                                       const std::string& out_path) const;

  [[nodiscard]] const PastisConfig& config() const { return config_; }
  [[nodiscard]] const sim::MachineModel& model() const { return model_; }
  [[nodiscard]] int nprocs() const { return nprocs_; }

 private:
  PastisConfig config_;
  sim::MachineModel model_;
  int nprocs_;
  util::ThreadPool* pool_;
};

}  // namespace pastis::core
