#include "align/smith_waterman.hpp"

#include <algorithm>
#include <array>
#include <climits>
#include <cstdint>
#include <stdexcept>
#include <vector>

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

namespace {

#if defined(__x86_64__)

using lane_dp::v8i;
using lane_dp::v8u;

/// The scalar recurrence of smith_waterman, run for kLanePairs pairs at
/// once. Each lane is padded to the largest |q| x |r| of the group (code 0
/// outside its own sequences); a padded cell never feeds a cell inside the
/// lane's own matrix, and the best-cell update is masked to i <= |q_k|,
/// j <= |r_k|, so every lane reproduces the scalar result exactly.
///
/// The DP state lives in one row of columns 0..max |r| updated in place
/// (lane_dp::gotoh_cell); column 0 is the zero boundary. The previous
/// row's H and path words at j - 1 (the diagonal) ride along in registers.
/// Scratch is allocated per group: kept per thread, it would hold every
/// pool thread's largest row at once, which measurably raised peak
/// resident memory.
__attribute__((target("avx2"))) void smith_waterman_avx2(
    const std::string_view* queries, const std::string_view* references,
    std::size_t count, const Scoring& scoring, AlignResult* out) {
  constexpr std::size_t kStride = lane_dp::kColumn;

  alignas(32) std::int32_t len_q[kLanePairs] = {};
  alignas(32) std::int32_t len_r[kLanePairs] = {};
  std::size_t rows_m = 0, cols_n = 0;
  for (std::size_t k = 0; k < count; ++k) {
    len_q[k] = static_cast<std::int32_t>(queries[k].size());
    len_r[k] = static_cast<std::int32_t>(references[k].size());
    rows_m = std::max(rows_m, queries[k].size());
    cols_n = std::max(cols_n, references[k].size());
    out[k] = AlignResult{};
    out[k].cells = static_cast<std::uint64_t>(queries[k].size()) *
                   references[k].size();
  }
  if (rows_m == 0 || cols_n == 0) return;

  alignas(32) std::int32_t table[kScoreAlphabet * kScoreAlphabet];
  lane_dp::fill_score_table(scoring, table);

  std::vector<std::uint8_t> ref_codes(kLanePairs * cols_n, 0);
  std::vector<std::uint8_t> qry_codes(kLanePairs * rows_m, 0);
  for (std::size_t k = 0; k < count; ++k) {
    for (std::size_t j = 0; j < references[k].size(); ++j) {
      ref_codes[kLanePairs * j + k] = Scoring::encode(references[k][j]);
    }
    for (std::size_t i = 0; i < queries[k].size(); ++i) {
      qry_codes[kLanePairs * i + k] = Scoring::encode(queries[k][i]);
    }
  }
  std::vector<std::int32_t> row_buf;
  std::int32_t* const row = lane_dp::boundary_row(row_buf, cols_n + 1);

  const v8i zero = {};
  const v8i all = zero - 1;
  const v8i go = zero + (scoring.gap_open() + scoring.gap_extend());
  const v8i ge = zero + scoring.gap_extend();
  const v8i m_vec = *reinterpret_cast<const v8i*>(len_q);
  const v8i n_vec = *reinterpret_cast<const v8i*>(len_r);

  v8i best = zero;
  v8u best_end = {}, best_pos = {}, best_cnt = {};

  for (std::size_t i = 1; i <= rows_m; ++i) {
    const v8i q_code = (v8i)_mm256_cvtepu8_epi32(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(&qry_codes[kLanePairs * (i - 1)])));
    const v8i q_off = q_code * kScoreAlphabet;
    const v8i row_in = (zero + static_cast<std::int32_t>(i)) <= m_vec;

    lane_dp::RowCarry c{};
    c.e = zero + lane_dp::kNegInf;

    const std::uint8_t* r_codes = ref_codes.data();
    std::int32_t* col = row + kStride;
    for (std::size_t j = 1; j <= cols_n;
         ++j, col += kStride, r_codes += kLanePairs) {
      v8i* const cv = reinterpret_cast<v8i*>(col);
      const v8i r_code = (v8i)_mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r_codes)));
      const v8i sub = (v8i)_mm256_i32gather_epi32(
          table, (__m256i)(q_off + r_code), 4);
      const std::uint32_t restart = static_cast<std::uint32_t>(i - 1) |
                                    static_cast<std::uint32_t>(j - 1) << 16;
      lane_dp::gotoh_cell(cv, cv, c, sub, q_code == r_code,
                          v8u{} + restart, all, go, ge);

      // Strict row-major best, only inside the lane's own matrix.
      const v8i better = (c.left > best) & row_in &
                         ((zero + static_cast<std::int32_t>(j)) <= n_vec);
      if (!_mm256_testz_si256((__m256i)better, (__m256i)better)) {
        best = better ? c.left : best;
        best_end = better ? (v8u{} + (static_cast<std::uint32_t>(i) |
                                      static_cast<std::uint32_t>(j) << 16))
                          : best_end;
        best_pos = better ? c.left_pos : best_pos;
        best_cnt = better ? c.left_cnt : best_cnt;
      }
    }
  }

  lane_dp::decode_best(best, best_end, best_pos, best_cnt, count, out);
}

#endif  // __x86_64__

}  // namespace

void smith_waterman_lanes(std::span<const std::string_view> queries,
                          std::span<const std::string_view> references,
                          const Scoring& scoring, std::span<AlignResult> out) {
  if (queries.size() != references.size() || out.size() != queries.size() ||
      queries.size() > kLanePairs) {
    throw std::invalid_argument(
        "smith_waterman_lanes: queries, references and out must have equal "
        "sizes of at most kLanePairs");
  }
  std::array<std::string_view, kLanePairs> lane_q, lane_r;
  std::array<std::size_t, kLanePairs> slot{};
  std::size_t lanes = 0;
  const bool vector_ok = lane_dp::available();
  for (std::size_t k = 0; k < queries.size(); ++k) {
    if (vector_ok &&
        queries[k].size() + references[k].size() < lane_dp::kLaneLimit) {
      lane_q[lanes] = queries[k];
      lane_r[lanes] = references[k];
      slot[lanes++] = k;
    } else {
      out[k] = smith_waterman(queries[k], references[k], scoring);
    }
  }
#if defined(__x86_64__)
  if (lanes == 0) return;
  std::array<AlignResult, kLanePairs> lane_out;
  smith_waterman_avx2(lane_q.data(), lane_r.data(), lanes, scoring,
                      lane_out.data());
  for (std::size_t l = 0; l < lanes; ++l) out[slot[l]] = lane_out[l];
#endif
}

}  // namespace pastis::align
