// Banded Smith-Waterman: the DP is restricted to a diagonal band around the
// seed diagonal discovered during the sparse overlap phase. This trades
// sensitivity for an O(band·len) kernel and is provided as the cheaper
// alternative alignment mode (PASTIS exposes several alignment modes through
// SeqAn; the full-matrix ADEPT kernel remains the production default).
// Its scalar body is the library's only scalar Smith-Waterman recurrence:
// smith_waterman runs it with a band that holds every cell, and both lane
// kernels are tested against it.
#pragma once

#include <span>
#include <string_view>

#include "align/smith_waterman.hpp"

namespace pastis::align {

/// Aligns within the band |(j - i) - diag_center| <= half_width, where i/j
/// are the 1-based DP row/column of the cell that consumes query[i - 1]
/// and reference[j - 1]. `diag_center` is typically seed_r - seed_q from a
/// shared k-mer. Only cells inside the band are updated and counted in
/// `cells`.
///
/// Rows run from i = 1 and stop at the first row whose band holds no cell.
/// So when diag_center < -half_width, row 1's band lies left of the matrix
/// and the result is score 0 with 0 cells, even where later rows' bands
/// enter it (the swapped orientation finds the alignment). This is a known
/// defect, kept because the benchmark's recorded digests depend on it; its
/// fix is on ROADMAP item 1(b).
[[nodiscard]] AlignResult banded_smith_waterman(std::string_view query,
                                                std::string_view reference,
                                                const Scoring& scoring,
                                                int diag_center,
                                                int half_width);

/// banded_smith_waterman on up to kLanePairs pairs at once, one pair per
/// 32-bit lane of a 256-bit vector, all with one `half_width`, in the lane
/// build smith_waterman_lanes runs. out[k] equals
/// banded_smith_waterman(queries[k], references[k], scoring,
/// diag_centers[k], half_width) in every field, `cells` included. A pair
/// runs in the lane kernel when the host has AVX2, |q| + |r| < 65536
/// and diag_center >= -half_width; every other pair (the row-1 stop above
/// among them) runs through banded_smith_waterman. Lanes are padded to the
/// group's most rows and widest band, so pairs with similar |q| waste
/// least. Requires every span to have the same size, at most kLanePairs.
void banded_smith_waterman_lanes(std::span<const std::string_view> queries,
                                 std::span<const std::string_view> references,
                                 const Scoring& scoring,
                                 std::span<const int> diag_centers,
                                 int half_width, std::span<AlignResult> out);

}  // namespace pastis::align
