// Sparse Markov clustering (MCL) on the two-phase SpGEMM kernel.
//
// HipMCL [Azad et al., NAR 2018] showed the MCL process — expand (M ← M²),
// inflate (entrywise power + column renormalization), prune (per-column
// cutoff + top-k selection) — is exactly a repeated SpGEMM workload, which
// is why the paper's discovery kernel doubles as a clustering engine. One
// iteration here is one sparse::spgemm_hash2p_fused call over the
// conventional (+, *) semiring: each flow column is inflated, pruned,
// renormalized and chaos-accumulated inside the numeric phase while hot,
// so the flow matrix is written to DCSR exactly once per iteration. On a
// simulated process grid (MclOptions::grid_side >= 1) the same loop swaps
// that call for a grid expansion: each rank multiplies its gathered
// operand strips once, and the same column pass folds into the reshape
// back to row stripes.
//
// Storage convention: the column-stochastic flow matrix M is held
// TRANSPOSED, i.e. DCSR row j stores column j of M. Expansion is then
// still a self-product — (M²)ᵀ = Mᵀ·Mᵀ — and every per-column kernel
// (normalize, inflate, prune, chaos) becomes a cache-friendly row scan.
//
// Determinism: expansion is bit-identical for any pool size (the hash2p
// contract); inflation/prune/chaos are per-column passes with one writer
// per slot and fixed tie-breaks, so the full iteration — and hence the
// final clustering — is bit-identical for ANY thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/graph.hpp"
#include "cluster/result.hpp"
#include "obs/telemetry.hpp"
#include "sim/machine_model.hpp"
#include "sparse/spgemm.hpp"
#include "util/thread_pool.hpp"

namespace pastis::cluster {

struct MclOptions {
  /// Inflation exponent r (granularity knob: higher splits finer).
  double inflation = 2.0;
  int max_iterations = 64;
  /// Converged when the chaos metric — max over columns of
  /// (max entry − Σ entry²) of the stochastic column — drops below this.
  double chaos_epsilon = 1e-3;
  /// Post-inflation stochastic entries below this are cut (mcl -P flavour).
  float prune_threshold = 1e-4f;
  /// Keep at most this many entries per column after pruning, largest
  /// first (mcl -S flavour; 0 = unbounded). Bounds expansion fill-in.
  std::uint32_t max_column_entries = 64;
  /// Final-matrix entries at or above this join the attractor support
  /// whose connected components are the clusters.
  float interpret_threshold = 1e-3f;
  /// Self-loop weight added before the first normalization, as a fraction
  /// of the vertex's maximum incident edge weight (regularizes the flow;
  /// plain MCL's loop weight 1 is the special case of unit-weight graphs).
  double self_loop_scale = 1.0;
  /// Resident-bytes budget for one iteration (current + expanded matrix),
  /// compatible with PastisConfig::exec_memory_budget_bytes: when an
  /// iteration's resident bytes exceed it, the per-column entry cap is
  /// halved (floor 4) for the rest of the run. 0 = unbounded. The
  /// tightening depends only on deterministic byte counts, so results
  /// remain thread-count invariant.
  std::uint64_t memory_budget_bytes = 0;
  /// Converged-column dropout: a column whose chaos stayed below
  /// dropout_epsilon for this many consecutive iterations — and whose
  /// support columns all did too — skips recompute (its flow column is
  /// carried over frozen) until a support column's streak resets, which
  /// re-enters it the following iteration. 0 = off (the default;
  /// exact-equivalence mode). With dropout on, iterations shrink as the
  /// flow settles; results stay bit-identical across pool sizes and grid
  /// sides for a FIXED dropout setting, and epsilon-close to the
  /// no-dropout run.
  std::uint32_t dropout_iterations = 0;
  /// Per-column chaos threshold the dropout streaks compare against
  /// (0 = use chaos_epsilon).
  double dropout_epsilon = 0.0;

  // --- grid expansion (HipMCL-style) ---------------------------------------
  /// 0 (the default) runs in one address space. >= 1 runs the expansion
  /// over a simulated grid_side × grid_side process grid: each rank owns a
  /// row stripe of the transposed flow matrix, M·M is a SUMMA whose ranks
  /// gather their grid row of tiles and grid column of tiles and multiply
  /// once (every product summed in ascending k, so bitwise equal to the
  /// local kernel), and inflate/prune/chaos fold into the reshape back to
  /// stripes. It is the same iteration loop either way:
  /// assignments are bit-identical for ANY grid side; what the grid adds
  /// is the modeled per-rank memory and time. < 0 throws
  /// std::invalid_argument (as QueryEngine::Options::grid_side).
  int grid_side = 0;
  /// Per-rank resident-bytes budget of grid runs: when any rank's modeled
  /// iteration footprint (tile + gathered strips + stripe) exceeds it, the
  /// column cap is halved exactly like the global budget.
  /// CAUTION: per-rank footprints depend on the grid side, so — unlike
  /// every other knob — a *binding* rank budget can make assignments
  /// differ across grid sides. 0 = unbounded.
  std::uint64_t rank_memory_budget_bytes = 0;
  /// Machine grid runs charge (wire + SpGEMM + stream time).
  sim::MachineModel machine;

  /// Telemetry sinks (null = off). With metrics, every iteration records
  /// the chaos gauge and the resident-bytes / nnz min-avg-max series (and
  /// a one-address-space expansion inherits SpGEMM phase instrumentation);
  /// with a tracer, each iteration is a measured "mcl.iteration" span
  /// carrying chaos / nnz / resident-bytes args. Results are unaffected —
  /// SimilaritySearch::run_and_cluster inherits PastisConfig::telemetry
  /// here like the other knobs.
  obs::Telemetry telemetry;
};

/// Per-iteration accounting (the exec-layer-compatible resident story).
struct MclIterationStats {
  std::uint64_t expansion_products = 0;  // semiring multiplies this iter
  std::uint64_t expansion_nnz = 0;       // nnz of M² before pruning
  std::uint64_t pruned_nnz = 0;          // nnz kept after inflate+prune
  std::uint64_t resident_bytes = 0;      // M + M² live simultaneously
  /// Grid runs only: the busiest rank's modeled resident bytes this
  /// iteration (tile + gathered strips / stripe footprint).
  std::uint64_t max_rank_resident_bytes = 0;
  double chaos = 0.0;
  std::uint32_t column_cap = 0;          // cap in force this iteration
  /// Columns excluded from this iteration's expansion by the converged-
  /// column dropout mask (0 when dropout is off).
  std::uint32_t dropout_columns = 0;
  /// Previously-frozen columns forced back into this iteration's expansion
  /// because a support column's streak reset (the re-entry rule).
  std::uint32_t reentered_columns = 0;
  /// Running high-water of the recycled iteration scratch (SpGEMM
  /// workspace + epilogue lanes + dropout arrays + stitch spares) — the
  /// buffer-churn gauge: flat from iteration 2 on means no per-iteration
  /// reallocation growth (asserted in tests).
  std::uint64_t scratch_high_water_bytes = 0;
};

struct MclStats {
  int iterations = 0;
  bool converged = false;
  double final_chaos = 0.0;
  std::uint64_t peak_resident_bytes = 0;
  int budget_tightenings = 0;
  sparse::SpGemmStats spgemm;
  std::vector<MclIterationStats> per_iteration;

  // --- grid runs (empty/zero in one address space) --------------------------
  int grid_side = 0;  // 0 = one address space
  /// Per-rank resident-bytes high-water marks from the SimRuntime ledger.
  std::vector<std::uint64_t> rank_peak_resident_bytes;
  /// Cap tightenings forced by rank_memory_budget_bytes (as opposed to the
  /// global memory_budget_bytes, counted in budget_tightenings).
  int rank_budget_tightenings = 0;
  /// Modeled seconds of the slowest rank (SUMMA + reshapes + scans).
  double modeled_seconds = 0.0;
};

/// Clusters `g` with the MCL process. Isolated vertices become singleton
/// clusters. `pool` is scheduling only; the returned Clustering is
/// bit-identical for any pool size.
[[nodiscard]] Clustering markov_cluster(const SimilarityGraph& g,
                                        const MclOptions& opt = {},
                                        MclStats* stats = nullptr,
                                        util::ThreadPool* pool = nullptr);

}  // namespace pastis::cluster
