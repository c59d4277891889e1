#include "align/banded.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
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

namespace {

#if defined(__x86_64__)

using lane_dp::v8i;
using lane_dp::v8u;

/// banded_smith_waterman's recurrence for kLanePairs pairs at once, in band
/// coordinates. Lane k's cell (i, t) is (i, j = i + low_k + t), where
/// low_k = max(d_k - w, 1 - |q_k|) is the lowest diagonal j - i of its band
/// that can hold a cell; every lane's left, up and up-left neighbours are
/// then (i, t - 1), (i - 1, t + 1) and (i - 1, t), so one row of W columns
/// (the widest band of the group) plus a boundary column serves all lanes.
/// Lane k's reference codes are stored shifted by low_k, so every lane
/// reads code i + t. Cells outside 1 <= j <= |r_k|, above the band or past
/// the lane's last row are boundary cells (lane_dp::gotoh_cell), which act
/// on every cell inside the band as the scalar kernel's boundary clears
/// (H = 0, F = -inf, empty path) do. A lane's rows stop where the scalar
/// kernel's first empty row would `break`, and the best-cell update stays
/// strict and row-major, so every field, `cells` included, equals the
/// scalar result. Requires d_k >= -w (the scalar kernel stops on row 1
/// otherwise) and w >= 0.
__attribute__((target("avx2"))) void banded_avx2(
    const std::string_view* queries, const std::string_view* references,
    const int* diags, std::size_t count, const Scoring& scoring,
    int half_width, AlignResult* out) {
  constexpr std::size_t kStride = lane_dp::kColumn;
  const std::int64_t w = half_width;

  alignas(32) std::int32_t low[kLanePairs] = {};
  alignas(32) std::int32_t top[kLanePairs] = {};   // highest t of the band
  alignas(32) std::int32_t rows[kLanePairs] = {};
  alignas(32) std::int32_t len_r[kLanePairs] = {};
  std::size_t max_rows = 0, width = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const auto m = static_cast<std::int64_t>(queries[k].size());
    const auto n = static_cast<std::int64_t>(references[k].size());
    const std::int64_t d = diags[k];
    out[k] = AlignResult{};
    // Every row up to min(m, n - d + w) holds a cell; the next is empty.
    const std::int64_t r =
        m == 0 || n == 0 || d - w >= n ? 0 : std::min(m, n - d + w);
    if (r == 0) continue;
    const std::int64_t lo_diag = std::max(d - w, 1 - m);
    const std::int64_t hi_diag = std::min(d + w, n - 1);
    for (std::int64_t i = 1; i <= r; ++i) {
      out[k].cells += static_cast<std::uint64_t>(
          std::min(n, i + d + w) - std::max<std::int64_t>(1, i + d - w) + 1);
    }
    low[k] = static_cast<std::int32_t>(lo_diag);
    top[k] = static_cast<std::int32_t>(hi_diag - lo_diag);
    rows[k] = static_cast<std::int32_t>(r);
    len_r[k] = static_cast<std::int32_t>(n);
    max_rows = std::max(max_rows, static_cast<std::size_t>(r));
    width = std::max(width, static_cast<std::size_t>(hi_diag - lo_diag + 1));
  }
  if (max_rows == 0) return;

  alignas(32) std::int32_t table[kScoreAlphabet * kScoreAlphabet];
  lane_dp::fill_score_table(scoring, table);

  // Code x of lane k is reference residue x + low_k - 1 (0-based), for x
  // in [0, max_rows + width); code 0 pads outside the reference.
  const std::size_t codes = max_rows + width;
  std::vector<std::uint8_t> ref_codes(kLanePairs * codes, 0);
  std::vector<std::uint8_t> qry_codes(kLanePairs * max_rows, 0);
  for (std::size_t k = 0; k < count; ++k) {
    if (rows[k] == 0) continue;
    const std::string_view r = references[k];
    for (std::size_t j = 0; j < r.size(); ++j) {
      const std::int64_t x = static_cast<std::int64_t>(j) + 1 - low[k];
      if (x >= 0 && x < static_cast<std::int64_t>(codes)) {
        ref_codes[kLanePairs * static_cast<std::size_t>(x) + k] =
            Scoring::encode(r[j]);
      }
    }
    const std::size_t m = std::min(queries[k].size(), max_rows);
    for (std::size_t i = 0; i < m; ++i) {
      qry_codes[kLanePairs * i + k] = Scoring::encode(queries[k][i]);
    }
  }
  // Columns 0..width - 1 hold the band; column `width` stays a boundary.
  std::vector<std::int32_t> row_buf;
  std::int32_t* const row = lane_dp::boundary_row(row_buf, width + 1);

  const v8i zero = {};
  const v8i go = zero + (scoring.gap_open() + scoring.gap_extend());
  const v8i ge = zero + scoring.gap_extend();
  const v8i low_vec = *reinterpret_cast<const v8i*>(low);
  const v8i top_vec = *reinterpret_cast<const v8i*>(top);
  const v8i rows_vec = *reinterpret_cast<const v8i*>(rows);
  const v8i n_vec = *reinterpret_cast<const v8i*>(len_r);
  constexpr std::uint32_t kNextColumn = 1u << 16;  // ++j in a pos word

  v8i best = zero;
  v8u best_end = {}, best_pos = {}, best_cnt = {};

  for (std::size_t i = 1; i <= max_rows; ++i) {
    const auto ii = static_cast<std::int32_t>(i);
    const v8i q_code = (v8i)_mm256_cvtepu8_epi32(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(&qry_codes[kLanePairs * (i - 1)])));
    const v8i q_off = q_code * kScoreAlphabet;
    // Cell t is j = j0 + t; it is inside the lane's matrix and band when
    // 1 - j0 <= t <= min(|r| - j0, top) and i <= rows.
    const v8i j0 = ii + low_vec;
    const v8i t_after_lo = -j0;  // t > this: j >= 1
    v8i t_hi = n_vec - j0;
    t_hi = t_hi < top_vec ? t_hi : top_vec;
    const v8i t_before_hi = (t_hi + 1) & ((zero + ii) <= rows_vec);
    // (i - 1) | (j - 1) << 16 at t = 0; the shift wraps for j < 1, whose
    // cells are boundaries.
    v8u restart = (v8u)(zero + (ii - 1)) + ((v8u)(j0 - 1) << 16);

    lane_dp::RowCarry c{};
    c.e = zero + lane_dp::kNegInf;
    c.diag = reinterpret_cast<const v8i*>(row)[0];
    c.diag_pos = (v8u) reinterpret_cast<const v8i*>(row)[2];
    c.diag_cnt = (v8u) reinterpret_cast<const v8i*>(row)[3];

    const std::uint8_t* r_codes = ref_codes.data() + kLanePairs * i;
    std::int32_t* col = row;
    for (std::size_t t = 0; t < width;
         ++t, col += kStride, r_codes += kLanePairs) {
      v8i* const cv = reinterpret_cast<v8i*>(col);
      const v8i r_code = (v8i)_mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r_codes)));
      const v8i sub = (v8i)_mm256_i32gather_epi32(
          table, (__m256i)(q_off + r_code), 4);
      const v8i t_vec = zero + static_cast<std::int32_t>(t);
      const v8i valid = (t_vec > t_after_lo) & (t_before_hi > t_vec);
      lane_dp::gotoh_cell(cv + 6, cv, c, sub, q_code == r_code, restart,
                          valid, go, ge);

      // Strict row-major best; boundary cells hold H = 0 and never win.
      const v8i better = c.left > best;
      if (!_mm256_testz_si256((__m256i)better, (__m256i)better)) {
        best = better ? c.left : best;
        best_end = better ? restart + (kNextColumn | 1u) : best_end;
        best_pos = better ? c.left_pos : best_pos;
        best_cnt = better ? c.left_cnt : best_cnt;
      }
      restart += kNextColumn;
    }
  }

  lane_dp::decode_best(best, best_end, best_pos, best_cnt, count, out);
}

#endif  // __x86_64__

}  // namespace

void banded_smith_waterman_lanes(std::span<const std::string_view> queries,
                                 std::span<const std::string_view> references,
                                 const Scoring& scoring,
                                 std::span<const int> diag_centers,
                                 int half_width, std::span<AlignResult> out) {
  if (queries.size() != references.size() ||
      diag_centers.size() != queries.size() || out.size() != queries.size() ||
      queries.size() > kLanePairs) {
    throw std::invalid_argument(
        "banded_smith_waterman_lanes: queries, references, diag_centers and "
        "out must have equal sizes of at most kLanePairs");
  }
  std::array<std::string_view, kLanePairs> lane_q, lane_r;
  std::array<int, kLanePairs> lane_d{};
  std::array<std::size_t, kLanePairs> slot{};
  std::size_t lanes = 0;
  const bool vector_ok = lane_dp::available() && half_width >= 0;
  for (std::size_t k = 0; k < queries.size(); ++k) {
    // diag_center < -half_width: the scalar kernel's row-1 stop (see the
    // header) is reproduced by running the pair there.
    if (vector_ok &&
        queries[k].size() + references[k].size() < lane_dp::kLaneLimit &&
        static_cast<std::int64_t>(diag_centers[k]) >= -half_width) {
      lane_q[lanes] = queries[k];
      lane_r[lanes] = references[k];
      lane_d[lanes] = diag_centers[k];
      slot[lanes++] = k;
    } else {
      out[k] = banded_smith_waterman(queries[k], references[k], scoring,
                                     diag_centers[k], half_width);
    }
  }
#if defined(__x86_64__)
  if (lanes == 0) return;
  std::array<AlignResult, kLanePairs> lane_out;
  banded_avx2(lane_q.data(), lane_r.data(), lane_d.data(), lanes, scoring,
              half_width, lane_out.data());
  for (std::size_t l = 0; l < lanes; ++l) out[slot[l]] = lane_out[l];
#endif
}

}  // namespace pastis::align
