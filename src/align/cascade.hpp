// Tiered sensitivity cascade ahead of batch alignment (ROADMAP direction 1;
// the paper's §IX names prefiltering as the sensitivity/throughput axis on
// which MMseqs2 trades against PASTIS).
//
// Tier 0 screens every SpGEMM candidate with a shared-k-mer count threshold
// plus a diagonal-bucketed ungapped extension over the seed positions the
// overlap semiring already carries (core/common_kmers.hpp keeps the
// lexicographic min/max seed pair per element). Tier 1 probes survivors
// with a cheap DP kernel — banded Smith-Waterman or x-drop extension — and
// a per-tier score cutoff. Tier 2 is the existing batch path: the
// configured alignment kind runs only on pairs that survive both screens.
// When tier 1 probes with that same kind, its probe already is the tier-2
// result, and the data plane (core::screen_candidates, align_and_filter)
// keeps it instead of aligning the pair again.
//
// Every tier is disabled by default, so the exact path is bit-identical by
// construction (a single branch per candidate). The `exact()` preset
// enables both tiers with thresholds that reject nothing — the screens run
// and report their measured work, but the output is still bit-identical —
// and `fast()` is the documented throughput preset whose ≥2x alignment-cell
// reduction at ≥0.95 recall is hard-gated by bench_sensitivity_cascade.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>

#include "align/batch.hpp"
#include "align/scoring.hpp"

namespace pastis::align {

/// Sentinel score threshold that rejects nothing.
inline constexpr int kCascadeNoCutoff = std::numeric_limits<int>::min();

/// A seed position pair in alignment-task orientation: `q` indexes the
/// task's query sequence, `r` its reference. (Kept distinct from
/// core::SeedPair, whose pos_a/pos_b follow matrix-element orientation, so
/// this header stays free of core dependencies.)
struct Seed {
  std::uint32_t q = 0;
  std::uint32_t r = 0;
};

/// Knobs of the tiered prefilter cascade, threaded through PastisConfig
/// into the pipeline's {discover, screen, align} stage graph and
/// QueryEngine::serve(). All-off default == the exact path.
struct CascadeOptions {
  // --- Tier 0: shared-k-mer count + diagonal-bucketed ungapped extension --
  bool tier0_enabled = false;
  /// Minimum shared-k-mer count (applied on top of the global
  /// common_kmer_threshold, which still gates candidate extraction).
  std::uint32_t tier0_min_count = 0;
  /// Minimum best ungapped-extension score over the carried seeds.
  int tier0_min_ungapped_score = kCascadeNoCutoff;
  /// Minimum number of agreeing minhash sketch slots between query and
  /// reference (index format v4 sketch table); 0 disables the sketch
  /// screen, and pairs without a sketch (delta-segment references, v2/v3
  /// indexes) always pass it.
  int tier0_min_sketch_overlap = 0;

  // --- Tier 1: banded / x-drop probe with score + coverage cutoffs -------
  bool tier1_enabled = false;
  /// Probe kernel. When it equals the aligner's configured kind the probe
  /// is reused as the tier-2 result; kFullSW then screens at full cost.
  AlignKind tier1_kind = AlignKind::kXDrop;
  int tier1_min_score = kCascadeNoCutoff;
  /// Minimum short coverage of the probe's alignment window (the same
  /// min-of-both-sequences ratio the final edge filter thresholds at
  /// 0.70). Raw score is length-blind — high-scoring low-complexity
  /// repeat pairs sail past any score cutoff but cover only a fragment —
  /// so this is the knob that separates homologs from repeats. 0 (or
  /// negative) disables the coverage screen.
  double tier1_min_cov = 0.0;

  [[nodiscard]] bool any() const { return tier0_enabled || tier1_enabled; }

  /// Deterministic fingerprint of every knob, folded into the ResultCache
  /// key so retuning thresholds can never serve stale cascade results.
  /// Exactly 0 when the cascade is fully disabled.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Both tiers on with thresholds that reject nothing: measures screen
  /// cost at zero sensitivity loss, output bit-identical to all-off.
  [[nodiscard]] static CascadeOptions exact();
  /// The documented throughput preset (benchmarked recall ≥ 0.95 on the
  /// metagenome generator with ≥ 2x alignment-cell reduction).
  [[nodiscard]] static CascadeOptions fast();
};

/// Measured work of one tier over a block/batch of candidates.
struct TierStats {
  std::uint64_t pairs_in = 0;
  std::uint64_t pairs_out = 0;  // survivors handed to the next tier
  std::uint64_t rejects = 0;
  std::uint64_t cells = 0;      // DP cells updated by the screen

  void merge(const TierStats& o) {
    pairs_in += o.pairs_in;
    pairs_out += o.pairs_out;
    rejects += o.rejects;
    cells += o.cells;
  }
};

/// Per-tier measured work of the whole cascade.
struct CascadeStats {
  TierStats tier0;
  TierStats tier1;

  void merge(const CascadeStats& o) {
    tier0.merge(o.tier0);
    tier1.merge(o.tier1);
  }
  [[nodiscard]] std::uint64_t screen_cells() const {
    return tier0.cells + tier1.cells;
  }
};

/// Outcome of the tier-0 ungapped diagonal extension of one pair.
struct UngappedExtension {
  int score = 0;           // best x-drop ungapped score over the seeds
  std::uint64_t cells = 0; // diagonal cells scanned
  int seeds_extended = 0;  // seeds left after diagonal bucketing
};

/// Ungapped x-drop extension of `seeds` along their diagonals, clamped to
/// the sequence bounds (seed residues past either end are not scored and
/// the seed start is pulled back onto the valid diagonal segment, so
/// callers never pre-validate positions — unlike xdrop_extend, which
/// returns empty for malformed seeds). Seeds whose diagonals lie within
/// `2*bucket_half_width` of an already-extended seed are skipped: they
/// would rediscover the same band. Symmetric under swapping the two
/// sequences together with every seed's coordinates.
[[nodiscard]] UngappedExtension ungapped_diag_extend(
    std::string_view q, std::string_view r, std::span<const Seed> seeds,
    std::uint32_t seed_len, const Scoring& scoring, int xdrop,
    int bucket_half_width);

/// Tier-0 screen of one candidate pair: shared-k-mer count, optional
/// minhash sketch agreement (`sketch_overlap < 0` = no sketch available,
/// always passes), then the ungapped diagonal extension. Returns true when
/// the pair survives; `ts` accumulates measured work.
[[nodiscard]] bool tier0_keep(std::string_view q, std::string_view r,
                              std::span<const Seed> seeds,
                              std::uint32_t shared_kmers, int sketch_overlap,
                              const BatchAligner& aligner,
                              const CascadeOptions& opt, TierStats& ts);

/// The tier-1 keep rule for one candidate's probe result (a tier1_kind
/// alignment of a |q| = len_q, |r| = len_r pair): the score cutoff, then
/// the coverage cutoff. Returns true when the pair survives; `ts`
/// accumulates the probe's pair and cells.
[[nodiscard]] bool tier1_accept(const AlignResult& probe, std::size_t len_q,
                                std::size_t len_r, const CascadeOptions& opt,
                                TierStats& ts);

/// Tier-1 screen of one candidate pair: the probe kernel (tier1_kind) via
/// the aligner's table-driven dispatch, then tier1_accept.
[[nodiscard]] bool tier1_keep(std::string_view q, std::string_view r,
                              const AlignTask& task,
                              const BatchAligner& aligner,
                              const CascadeOptions& opt, TierStats& ts);

}  // namespace pastis::align
