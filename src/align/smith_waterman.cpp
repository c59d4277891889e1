#include "align/smith_waterman.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "align/lane_dp.hpp"

namespace pastis::align {

namespace {

/// Path statistics carried alongside each DP state so identity/coverage can
/// be computed without a traceback matrix.
struct PathStat {
  std::uint32_t beg_q = 0;
  std::uint32_t beg_r = 0;
  std::uint32_t matches = 0;
  std::uint32_t len = 0;
};

std::vector<std::uint8_t> encode_seq(std::string_view s) {
  std::vector<std::uint8_t> out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) out[i] = Scoring::encode(s[i]);
  return out;
}

}  // namespace

AlignResult smith_waterman(std::string_view query, std::string_view reference,
                           const Scoring& scoring) {
  AlignResult res;
  const std::size_t m = query.size();
  const std::size_t n = reference.size();
  res.cells = static_cast<std::uint64_t>(m) * n;
  if (m == 0 || n == 0) return res;

  const auto q = encode_seq(query);
  const auto r = encode_seq(reference);
  const int go = scoring.gap_open() + scoring.gap_extend();  // first residue
  const int ge = scoring.gap_extend();                       // each further

  constexpr int kNegInf = -(1 << 28);
  std::vector<int> h_prev(n + 1, 0), h_cur(n + 1, 0);
  std::vector<int> f_prev(n + 1, kNegInf), f_cur(n + 1, kNegInf);
  std::vector<PathStat> sh_prev(n + 1), sh_cur(n + 1);
  std::vector<PathStat> sf_prev(n + 1), sf_cur(n + 1);

  int best = 0;
  std::uint32_t best_i = 0, best_j = 0;
  PathStat best_stat;

  for (std::size_t i = 1; i <= m; ++i) {
    h_cur[0] = 0;
    int e_score = kNegInf;
    PathStat e_stat;
    const std::uint8_t qi = q[i - 1];

    for (std::size_t j = 1; j <= n; ++j) {
      // E: gap consuming the reference (left transitions within this row).
      const int e_open = h_cur[j - 1] - go;
      const int e_ext = e_score - ge;
      if (e_open >= e_ext) {
        e_score = e_open;
        e_stat = sh_cur[j - 1];
      } else {
        e_score = e_ext;
      }
      ++e_stat.len;

      // F: gap consuming the query (up transitions from the previous row).
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

      // Diagonal: substitution (or fresh start if the previous H was 0).
      const bool is_match = qi == r[j - 1];
      const int diag =
          h_prev[j - 1] + scoring.score(qi, r[j - 1]);
      PathStat d_stat;
      if (h_prev[j - 1] > 0) {
        d_stat = sh_prev[j - 1];
      } else {
        d_stat.beg_q = static_cast<std::uint32_t>(i - 1);
        d_stat.beg_r = static_cast<std::uint32_t>(j - 1);
      }
      d_stat.matches += is_match ? 1u : 0u;
      ++d_stat.len;

      // H: deterministic tie-break diag > up (F) > left (E) > restart.
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
    std::swap(h_prev, h_cur);
    std::swap(f_prev, f_cur);
    std::swap(sh_prev, sh_cur);
    std::swap(sf_prev, sf_cur);
  }

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

  for (std::size_t k = 0; k < count; ++k) {
    AlignResult& res = out[k];
    res.score = best[k];
    if (best[k] > 0) {
      res.beg_q = best_pos[k] & 0xFFFFu;
      res.beg_r = best_pos[k] >> 16;
      res.end_q = best_end[k] & 0xFFFFu;
      res.end_r = best_end[k] >> 16;
      res.matches = best_cnt[k] & 0xFFFFu;
      res.align_len = best_cnt[k] >> 16;
    }
  }
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

int smith_waterman_score(std::string_view query, std::string_view reference,
                         const Scoring& scoring) {
  const std::size_t m = query.size();
  const std::size_t n = reference.size();
  if (m == 0 || n == 0) return 0;

  const auto q = encode_seq(query);
  const auto r = encode_seq(reference);
  const int go = scoring.gap_open() + scoring.gap_extend();
  const int ge = scoring.gap_extend();

  constexpr int kNegInf = -(1 << 28);
  std::vector<int> h_prev(n + 1, 0), h_cur(n + 1, 0);
  std::vector<int> f_row(n + 1, kNegInf);

  int best = 0;
  for (std::size_t i = 1; i <= m; ++i) {
    int e_score = kNegInf;
    h_cur[0] = 0;
    const std::uint8_t qi = q[i - 1];
    for (std::size_t j = 1; j <= n; ++j) {
      e_score = std::max(h_cur[j - 1] - go, e_score - ge);
      f_row[j] = std::max(h_prev[j] - go, f_row[j] - ge);
      const int diag = h_prev[j - 1] + scoring.score(qi, r[j - 1]);
      int h = std::max({0, diag, f_row[j], e_score});
      h_cur[j] = h;
      best = std::max(best, h);
    }
    std::swap(h_prev, h_cur);
  }
  return best;
}

}  // namespace pastis::align
