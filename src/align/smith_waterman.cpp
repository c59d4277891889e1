#include "align/smith_waterman.hpp"

#include <algorithm>
#include <climits>

#include "align/banded.hpp"
#include "align/lane_dp.hpp"

namespace pastis::align {

AlignResult smith_waterman(std::string_view query, std::string_view reference,
                           const Scoring& scoring) {
  // Every cell has |j - i| < max(|q|, |r|), so this band holds them all.
  const std::size_t half_width = std::max(query.size(), reference.size());
  return banded_smith_waterman(
      query, reference, scoring, 0,
      static_cast<int>(std::min<std::size_t>(half_width, INT_MAX)));
}

void smith_waterman_lanes(std::span<const std::string_view> queries,
                          std::span<const std::string_view> references,
                          const Scoring& scoring, std::span<AlignResult> out) {
  lane_dp::full_group(lane_dp::host_isa(), queries, references, scoring, out);
}

}  // namespace pastis::align
