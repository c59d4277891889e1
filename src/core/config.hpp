// PASTIS search configuration. Defaults mirror the production parameters of
// the paper's Table IV where one exists (k = 6, BLOSUM62 11/2, common-k-mer
// threshold 2, ANI 0.30, coverage 0.70).
#pragma once

#include <cstdint>
#include <string>

#include "align/batch.hpp"
#include "align/cascade.hpp"
#include "cluster/cluster.hpp"
#include "exec/retry.hpp"
#include "kmer/alphabet.hpp"
#include "obs/telemetry.hpp"
#include "sim/fault.hpp"

namespace pastis::core {

enum class LoadBalanceScheme {
  kIndexBased,      // compute all blocks, parity-prune nonzeros (§VI-B right)
  kTriangularity,   // skip lower-triangular blocks entirely (§VI-B left)
};

[[nodiscard]] inline std::string to_string(LoadBalanceScheme s) {
  return s == LoadBalanceScheme::kIndexBased ? "index-based"
                                             : "triangularity-based";
}

struct PastisConfig {
  // --- discovery -----------------------------------------------------------
  int k = 6;
  kmer::Alphabet::Kind alphabet = kmer::Alphabet::Kind::kProtein25;
  /// m substitute k-mers per exact k-mer (0 disables; §V sensitivity knob).
  int subs_kmers = 0;
  /// Maximum substitution-score loss a substitute k-mer may have.
  int subs_max_loss = 3;
  /// Minimum shared k-mers for a candidate to be aligned (Table IV: 2).
  std::uint32_t common_kmer_threshold = 2;

  // --- alignment -------------------------------------------------------------
  align::AlignKind align_kind = align::AlignKind::kFullSW;
  align::Scoring::Matrix matrix = align::Scoring::Matrix::kBlosum62;
  int gap_open = 11;
  int gap_extend = 2;
  int band_half_width = 32;
  int xdrop = 25;
  /// Tiered prefilter cascade ahead of the batch aligner (align/cascade.hpp):
  /// tier-0 count/ungapped screen, tier-1 banded/x-drop probe, tier-2 the
  /// configured `align_kind`. All-off default keeps the exact path
  /// bit-identical by construction.
  align::CascadeOptions cascade;

  // --- filters ----------------------------------------------------------------
  double ani_threshold = 0.30;
  double cov_threshold = 0.70;

  // --- parallel decomposition ---------------------------------------------------
  /// Blocking factors of the blocked 2D Sparse SUMMA (br × bc).
  int block_rows = 1;
  int block_cols = 1;
  LoadBalanceScheme load_balance = LoadBalanceScheme::kIndexBased;
  /// Streaming-executor depth: the maximum pre-blocked blocks (or query
  /// batches) in flight at once through discovery → screen → align. 1 (or
  /// less) is the serial oracle; 2 is the paper's §VI-C pre-blocking, which
  /// runs block b+1's SpGEMM concurrently with block b's alignment and
  /// charges the modeled timeline as the pipeline makespan (max, not sum —
  /// exec/timeline.hpp); deeper depths generalize it. Results are
  /// bit-identical for any depth.
  int pipeline_depth = 1;
  /// Admission gate of the streaming executor: while the in-flight items
  /// (pipeline overlap blocks; serving batches' staged work) hold more
  /// registered bytes than this, no new item's discovery is admitted
  /// (0 = unbounded). Bounds the *host* memory of the streaming
  /// execution; the modeled stats (timeline, peak_rank_bytes) assume the
  /// configured depth and are therefore a conservative upper bound on
  /// what a gated schedule can hold in flight.
  std::uint64_t exec_memory_budget_bytes = 0;

  // --- distributed memory model (rank-resident serving + clustering) --------
  /// Per-rank resident-bytes budget of the distributed paths: shard
  /// placements (grid-mode QueryEngine serving) and per-iteration
  /// tile+stripe footprints (MCL on a grid) whose modeled resident bytes
  /// would exceed any rank's budget are rejected/tightened. 0 = unbounded;
  /// unset inherits through the chain documented at
  /// effective_rank_memory_budget().
  std::uint64_t rank_memory_budget_bytes = 0;

  // --- fault tolerance (sim/fault.hpp, exec/retry.hpp) -----------------------
  /// Planned rank faults (deaths / slowdowns / message drops, each firing
  /// at a serving-batch ordinal) injected into the simulated runtime.
  /// Consumed by grid-mode serving (QueryEngine failover + graceful
  /// degradation), which validates it at construction. Empty (the
  /// default) leaves every rank alive and healthy, which keeps every
  /// output bit-identical to a build without the fault layer; ignored by
  /// the single-address-space serve (there is no rank to fail). See
  /// docs/ARCHITECTURE.md for the plan grammar.
  sim::FaultPlan fault_plan;
  /// Retry/timeout/backoff policy for rank tasks in the serving stream:
  /// transient slow-rank faults retry (per-attempt timeout, exponential
  /// backoff with deterministic config-seeded jitter), permanent deaths
  /// escalate to replica failover. timeout_s = 0 (default) disables
  /// timeouts; the policy only ever engages under a non-empty fault plan.
  exec::RetryPolicy retry;

  // --- clustering (post-align stage; §III use case 2) -----------------------
  /// Cluster the similarity graph after the block loop retires
  /// (SimilaritySearch::run_and_cluster). kNone skips the stage.
  cluster::Method cluster_method = cluster::Method::kNone;
  /// Edge weighting + extra cutoffs of the clustering graph (the search's
  /// own ANI/coverage filters already ran; these only tighten).
  cluster::GraphWeighting cluster_weighting;
  // --- observability ---------------------------------------------------------
  /// Telemetry sinks (non-owning; obs/telemetry.hpp). Null pointers — the
  /// default — disable all instrumentation at a single branch per sample
  /// site, keeping results and timings bit-identical to a build without
  /// telemetry. Set metrics/tracer to a caller-owned
  /// obs::MetricsRegistry / obs::Tracer to collect counters, latency
  /// histograms and Chrome-trace spans across discovery, alignment,
  /// serving and clustering. Stage layers inherit this (stream executor,
  /// QueryEngine, SpGEMM, BatchAligner, MCL via run_and_cluster).
  obs::Telemetry telemetry;

  /// MCL knobs for cluster::Method::kMarkov. A memory budget left at its
  /// default inherits exec_memory_budget_bytes (see run_and_cluster); with
  /// mcl.grid_side >= 1 an unset rank budget inherits
  /// effective_rank_memory_budget().
  /// Caution: unlike everywhere else, a memory budget changes MCL
  /// *results* — it deterministically tightens the per-column prune cap
  /// when an iteration's resident bytes exceed it.
  cluster::MclOptions mcl;

  [[nodiscard]] int n_blocks() const { return block_rows * block_cols; }

  // --- memory-budget knob inheritance (THE one place; see the table in
  // docs/ARCHITECTURE.md) ----------------------------------------------------
  // Three budgets form a chain; each unset (0) knob inherits the previous
  // stage's effective value, so one top-level `exec_memory_budget_bytes`
  // bounds the whole run unless a stage overrides it:
  //
  //   exec_memory_budget_bytes          (host admission gate — the root)
  //     └─> mcl.memory_budget_bytes     (MCL iteration footprint; CAUTION:
  //                                      result-affecting — tightens the
  //                                      per-column prune cap)
  //           └─> rank_memory_budget_bytes  (per-rank resident gate of the
  //                                          distributed serving/MCL paths)
  //
  // Call sites must use these helpers instead of re-implementing the
  // fallbacks (run_and_cluster, QueryEngine and grid-mode MCL all
  // resolve through here).

  /// mcl.memory_budget_bytes, falling back to exec_memory_budget_bytes.
  [[nodiscard]] std::uint64_t effective_mcl_memory_budget() const {
    return mcl.memory_budget_bytes != 0 ? mcl.memory_budget_bytes
                                        : exec_memory_budget_bytes;
  }
  /// rank_memory_budget_bytes, falling back down the documented chain.
  [[nodiscard]] std::uint64_t effective_rank_memory_budget() const {
    return rank_memory_budget_bytes != 0 ? rank_memory_budget_bytes
                                         : effective_mcl_memory_budget();
  }

  [[nodiscard]] align::Scoring make_scoring() const {
    return align::Scoring(matrix, gap_open, gap_extend);
  }
};

}  // namespace pastis::core
