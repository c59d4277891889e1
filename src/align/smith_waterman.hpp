// Smith-Waterman local alignment with affine gaps (Gotoh's algorithm).
//
// This is the CPU-exact equivalent of the ADEPT GPU kernel the paper runs:
// the full dynamic-programming matrix is computed (no heuristics), which is
// what makes "cell updates per second" a meaningful metric (§VII). Besides
// the score, the recurrence carries per-cell path statistics (begin
// coordinates, matches, alignment columns) in O(n) memory so that identity
// (ANI) and coverage can be thresholded without a traceback matrix. The
// scalar recurrence exists once, in banded_smith_waterman (banded.hpp):
// smith_waterman runs it with a band that holds every cell.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "align/scoring.hpp"

namespace pastis::align {

/// Outcome of one pairwise local alignment.
struct AlignResult {
  int score = 0;
  // Half-open alignment windows [beg, end) on query and reference.
  std::uint32_t beg_q = 0, end_q = 0;
  std::uint32_t beg_r = 0, end_r = 0;
  std::uint32_t matches = 0;     // identical aligned residue pairs
  std::uint32_t align_len = 0;   // alignment columns (incl. gaps)
  std::uint64_t cells = 0;       // DP cells updated (CUPS accounting)

  /// Sequence identity of the aligned region; the paper's "ANI" filter
  /// (threshold 0.30 in Table IV) applies to this value.
  [[nodiscard]] double identity() const {
    return align_len == 0 ? 0.0
                          : static_cast<double>(matches) /
                                static_cast<double>(align_len);
  }

  /// Coverage of a sequence of length `len` by its aligned window.
  [[nodiscard]] static double coverage_of(std::uint32_t beg, std::uint32_t end,
                                          std::size_t len) {
    return len == 0 ? 0.0
                    : static_cast<double>(end - beg) /
                          static_cast<double>(len);
  }

  /// Short coverage: the smaller of the two per-sequence coverages. PASTIS
  /// requires this to clear the threshold (0.70 in Table IV) so that neither
  /// sequence is matched by only a small fragment.
  [[nodiscard]] double coverage(std::size_t len_q, std::size_t len_r) const {
    const double cq = coverage_of(beg_q, end_q, len_q);
    const double cr = coverage_of(beg_r, end_r, len_r);
    return cq < cr ? cq : cr;
  }
};

/// Full Smith-Waterman/Gotoh. Sequences are ASCII amino-acid strings.
/// Deterministic tie-breaking (diagonal > up > left > restart) makes results
/// identical across any parallel decomposition. Runs banded_smith_waterman
/// around diagonal 0 at half-width max(|q|, |r|), a band that holds every
/// cell, so `cells` is |q|·|r|. This scalar kernel is the portable path and
/// the oracle the lane kernel below is tested against.
[[nodiscard]] AlignResult smith_waterman(std::string_view query,
                                         std::string_view reference,
                                         const Scoring& scoring);

/// Pairs aligned together by smith_waterman_lanes.
inline constexpr std::size_t kLanePairs = 8;

/// Full Smith-Waterman on up to kLanePairs pairs at once, one pair per
/// 32-bit lane of an AVX2 vector (inter-pair SIMD, Nguyen & Lavenier).
/// out[k] equals smith_waterman(queries[k], references[k], scoring) in every
/// field. A pair runs in the lane kernel when the host supports AVX2 and
/// |q| + |r| < 65536 (path counters are packed two per 32-bit lane);
/// every other pair runs through smith_waterman. Lanes are padded to the
/// largest |q| x |r| of the call, so pairs of similar shape waste least.
/// Requires queries.size() == references.size() == out.size() <= kLanePairs.
void smith_waterman_lanes(std::span<const std::string_view> queries,
                          std::span<const std::string_view> references,
                          const Scoring& scoring, std::span<AlignResult> out);

}  // namespace pastis::align
