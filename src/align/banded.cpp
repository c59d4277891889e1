#include "align/banded.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "align/lane_dp.hpp"

namespace pastis::align {

AlignResult banded_smith_waterman(std::string_view query,
                                  std::string_view reference,
                                  const Scoring& scoring, int diag_center,
                                  int half_width) {
  AlignResult res;
  const auto m = static_cast<std::int64_t>(query.size());
  const auto n = static_cast<std::int64_t>(reference.size());
  if (m == 0 || n == 0 || half_width < 0) return res;

  std::vector<std::uint8_t> q(query.size()), r(reference.size());
  for (std::size_t i = 0; i < query.size(); ++i)
    q[i] = Scoring::encode(query[i]);
  for (std::size_t j = 0; j < reference.size(); ++j)
    r[j] = Scoring::encode(reference[j]);

  const int go = scoring.gap_open() + scoring.gap_extend();
  const int ge = scoring.gap_extend();
  constexpr int kNegInf = -(1 << 28);

  struct PathStat {
    std::uint32_t beg_q = 0, beg_r = 0, matches = 0, len = 0;
  };

  std::vector<int> h_prev(n + 1, 0), h_cur(n + 1, 0);
  std::vector<int> f_prev(n + 1, kNegInf), f_cur(n + 1, kNegInf);
  std::vector<PathStat> sh_prev(n + 1), sh_cur(n + 1);
  std::vector<PathStat> sf_prev(n + 1), sf_cur(n + 1);

  int best = 0;
  std::uint32_t best_i = 0, best_j = 0;
  PathStat best_stat;
  std::uint64_t cells = 0;

  for (std::int64_t i = 1; i <= m; ++i) {
    // Band for this row in 1-based j: j - i in [diag - w, diag + w].
    const std::int64_t lo =
        std::max<std::int64_t>(1, i + diag_center - half_width);
    const std::int64_t hi =
        std::min<std::int64_t>(n, i + diag_center + half_width);
    if (lo > hi) break;

    // Cells just outside the band behave as score 0 / -inf boundaries.
    if (lo >= 1) {
      h_cur[lo - 1] = 0;
      sh_cur[lo - 1] = PathStat{};
    }
    int e_score = kNegInf;
    PathStat e_stat;
    const std::uint8_t qi = q[i - 1];

    for (std::int64_t j = lo; j <= hi; ++j) {
      ++cells;
      const int e_open = h_cur[j - 1] - go;
      const int e_ext = e_score - ge;
      if (e_open >= e_ext) {
        e_score = e_open;
        e_stat = sh_cur[j - 1];
      } else {
        e_score = e_ext;
      }
      ++e_stat.len;

      const int f_open = h_prev[j] - go;
      const int f_ext = f_prev[j] - ge;
      PathStat f_stat;
      int f_score;
      if (f_open >= f_ext) {
        f_score = f_open;
        f_stat = sh_prev[j];
      } else {
        f_score = f_ext;
        f_stat = sf_prev[j];
      }
      ++f_stat.len;
      f_cur[j] = f_score;
      sf_cur[j] = f_stat;

      const bool is_match = qi == r[j - 1];
      const int diag = h_prev[j - 1] + scoring.score(qi, r[j - 1]);
      PathStat d_stat;
      if (h_prev[j - 1] > 0) {
        d_stat = sh_prev[j - 1];
      } else {
        d_stat.beg_q = static_cast<std::uint32_t>(i - 1);
        d_stat.beg_r = static_cast<std::uint32_t>(j - 1);
      }
      d_stat.matches += is_match ? 1u : 0u;
      ++d_stat.len;

      int h = diag;
      PathStat s = d_stat;
      if (f_score > h) {
        h = f_score;
        s = f_stat;
      }
      if (e_score > h) {
        h = e_score;
        s = e_stat;
      }
      if (h <= 0) {
        h = 0;
        s = PathStat{};
      }
      h_cur[j] = h;
      sh_cur[j] = s;
      if (h > best) {
        best = h;
        best_i = static_cast<std::uint32_t>(i);
        best_j = static_cast<std::uint32_t>(j);
        best_stat = s;
      }
    }
    // Clear the cell to the right of the band so the next row's diagonal
    // transition from it behaves as a boundary.
    if (hi + 1 <= n) {
      h_cur[hi + 1] = 0;
      f_cur[hi + 1] = kNegInf;
      sh_cur[hi + 1] = PathStat{};
    }
    std::swap(h_prev, h_cur);
    std::swap(f_prev, f_cur);
    std::swap(sh_prev, sh_cur);
    std::swap(sf_prev, sf_cur);
  }

  res.cells = cells;
  res.score = best;
  if (best > 0) {
    res.beg_q = best_stat.beg_q;
    res.beg_r = best_stat.beg_r;
    res.end_q = best_i;
    res.end_r = best_j;
    res.matches = best_stat.matches;
    res.align_len = best_stat.len;
  }
  return res;
}

void banded_smith_waterman_lanes(std::span<const std::string_view> queries,
                                 std::span<const std::string_view> references,
                                 const Scoring& scoring,
                                 std::span<const int> diag_centers,
                                 int half_width, std::span<AlignResult> out) {
  lane_dp::banded_group(lane_dp::host_isa(), queries, references, scoring,
                        diag_centers, half_width, out);
}

}  // namespace pastis::align
