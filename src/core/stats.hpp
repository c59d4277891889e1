// Aggregated statistics of one similarity search: workload counters, the
// modeled component timeline, and per-rank data for the load-imbalance
// figures. The fields map one-to-one onto the paper's reporting (§VII,
// Table IV): component timers, alignments-per-second over the whole
// runtime, and CUPS over the alignment kernel time only.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "align/cascade.hpp"
#include "sim/clock.hpp"
#include "sparse/spgemm.hpp"
#include "util/stats.hpp"

namespace pastis::core {

struct SearchStats {
  // --- workload ---------------------------------------------------------
  std::uint64_t n_seqs = 0;
  std::uint64_t total_residues = 0;
  std::uint64_t kmer_nnz = 0;
  std::uint64_t kmer_cols = 0;
  std::uint64_t candidates = 0;     // overlap nonzeros in computed blocks
  std::uint64_t aligned_pairs = 0;  // pairs actually aligned
  std::uint64_t similar_pairs = 0;  // edges passing ANI + coverage
  std::uint64_t align_cells = 0;    // DP cells updated
  /// Per-tier prefilter work (pairs in/out, screen cells); all-zero when
  /// the cascade is disabled.
  align::CascadeStats cascade;
  sparse::SpGemmStats spgemm;

  // --- modeled timeline (seconds on the simulated machine) ----------------
  double t_io_in = 0.0;
  double t_setup = 0.0;     // k-mer matrix, transpose, stripe splits
  double t_cwait = 0.0;     // residual sequence-communication wait
  double t_seq_fetch = 0.0; // the (hidden) sequence transfer, max rank
  double t_blocks = 0.0;    // the incremental block loop (after overlap)
  double t_io_out = 0.0;
  double t_total = 0.0;

  // Component totals: each rank sums its own component across the run; the
  // value reported is the average over ranks (the per-rank spread is in
  // `ranks` — Fig. 7 plots its min/avg/max; Table IV reports its
  // (max/avg - 1) as the imbalance percentage).
  double comp_spgemm = 0.0;       // "SpGEMM" / "sparse (mult)"
  double comp_sparse_other = 0.0; // "sparse (other)"
  double comp_align = 0.0;        // "align"
  double comp_other = 0.0;

  [[nodiscard]] double comp_sparse_all() const {
    return comp_spgemm + comp_sparse_other;
  }

  // --- per-block maxima over ranks (pre-blocking analysis, Fig. 5) ---------
  std::vector<double> block_sparse_s;
  std::vector<double> block_align_s;

  /// Per-rank time spent in the block loop as that rank's own timer would
  /// measure it: with pre-blocking, Σ_b max(align_b, sparse_{b+1}) plus the
  /// unhidden first discovery; without, Σ_b (sparse_b + align_b). Table I's
  /// "sum" column is the average of this vector.
  std::vector<double> rank_loop_s;
  [[nodiscard]] double avg_rank_loop_s() const {
    if (rank_loop_s.empty()) return 0.0;
    double s = 0.0;
    for (double v : rank_loop_s) s += v;
    return s / static_cast<double>(rank_loop_s.size());
  }

  // --- per-rank detail ------------------------------------------------------
  std::vector<sim::RankClock> ranks;

  // --- memory ----------------------------------------------------------------
  std::uint64_t peak_rank_bytes = 0;  // max logical bytes on any rank

  // --- meta -------------------------------------------------------------------
  int nprocs = 0;
  int block_rows = 1, block_cols = 1;
  /// Streaming-executor depth the run was modeled with (and executed
  /// with, when a host pool is available — without one the executor
  /// degrades to the serial schedule; results are identical either way).
  int pipeline_depth = 1;
  double wall_seconds = 0.0;  // real time of the simulation process

  // --- derived metrics ----------------------------------------------------------
  [[nodiscard]] double alignments_per_second() const {
    return t_total <= 0.0 ? 0.0
                          : static_cast<double>(aligned_pairs) / t_total;
  }

  /// Cell updates per second over the alignment kernel time (§VII: "we only
  /// use the time spent in the alignment kernel").
  [[nodiscard]] double cups() const;

  [[nodiscard]] util::MinAvgMax rank_aligned_pairs() const;
  [[nodiscard]] util::MinAvgMax rank_cells() const;
  [[nodiscard]] util::MinAvgMax rank_align_seconds() const;
  [[nodiscard]] util::MinAvgMax rank_sparse_seconds() const;

  /// Table IV-style imbalance percentages: (max/avg - 1)*100.
  [[nodiscard]] double align_imbalance_pct() const {
    return rank_align_seconds().imbalance_pct();
  }
  [[nodiscard]] double sparse_imbalance_pct() const {
    return rank_sparse_seconds().imbalance_pct();
  }
};

/// Prints a Table IV-style report (parameters, results, breakdown).
void print_search_report(std::ostream& os, const SearchStats& s);

}  // namespace pastis::core
