#include "align/smith_waterman.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

// Lane kernel packing: two 16-bit path counters share one 32-bit lane, so
// a pair takes the lane kernel only while every counter fits 16 bits. Along
// any path ending in cell (i, j), beg_q < i <= |q|, beg_r < j <= |r| and
// matches <= len <= i + j, so |q| + |r| < 65536 is exact.
constexpr std::size_t kLaneLimit = 1u << 16;

bool lane_kernel_available() {
#if defined(__x86_64__)
  static const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  return avx2;
#else
  return false;
#endif
}

#if defined(__x86_64__)

// Vector types stay inside the AVX2 function below: code compiled for the
// baseline ISA passes them differently, so scratch is plain int32 storage
// aligned by hand rather than containers of vectors.
typedef std::int32_t v8i __attribute__((vector_size(32), __may_alias__));
typedef std::uint32_t v8u __attribute__((vector_size(32), __may_alias__));

/// Lane-kernel scratch for one group. It is freed when the group is done:
/// kept per thread, it would hold every pool thread's largest row at once,
/// which measurably raised peak resident memory.
struct LaneRows {
  std::vector<std::int32_t> rows;       // 6 x 8 int32 per column, + slack
  std::vector<std::uint8_t> ref_codes;  // 8 codes per reference column
  std::vector<std::uint8_t> qry_codes;  // 8 codes per query row
};

/// The scalar recurrence of smith_waterman, run for kLanePairs pairs at
/// once. Each lane is padded to the largest |q| x |r| of the group (code 0
/// outside its own sequences); a padded cell never feeds a cell inside the
/// lane's own matrix, and the best-cell update is masked to i <= |q_k|,
/// j <= |r_k|, so every lane reproduces the scalar result exactly.
///
/// The DP state lives in one row updated in place. Per column j it holds
/// six vectors: H, F, and the packed path words of each, pos = beg_q |
/// beg_r << 16 and cnt = matches | len << 16. The previous row's H and
/// path words at j - 1 (the diagonal) ride along in registers.
__attribute__((target("avx2"))) void smith_waterman_avx2(
    const std::string_view* queries, const std::string_view* references,
    std::size_t count, const Scoring& scoring, AlignResult* out) {
  constexpr std::size_t kStride = 6 * kLanePairs;  // int32s per column
  constexpr std::int32_t kNegInf = -(1 << 28);
  constexpr std::uint32_t kLen1 = 1u << 16;  // ++len in a cnt word

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
  for (int a = 0; a < kScoreAlphabet; ++a) {
    for (int b = 0; b < kScoreAlphabet; ++b) {
      table[a * kScoreAlphabet + b] = scoring.score(
          static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b));
    }
  }

  LaneRows scratch;
  scratch.ref_codes.assign(kLanePairs * cols_n, 0);
  scratch.qry_codes.assign(kLanePairs * rows_m, 0);
  for (std::size_t k = 0; k < count; ++k) {
    for (std::size_t j = 0; j < references[k].size(); ++j) {
      scratch.ref_codes[kLanePairs * j + k] = Scoring::encode(references[k][j]);
    }
    for (std::size_t i = 0; i < queries[k].size(); ++i) {
      scratch.qry_codes[kLanePairs * i + k] = Scoring::encode(queries[k][i]);
    }
  }
  scratch.rows.resize(kStride * (cols_n + 1) + kLanePairs);
  std::int32_t* const row = reinterpret_cast<std::int32_t*>(
      (reinterpret_cast<std::uintptr_t>(scratch.rows.data()) + 31) &
      ~std::uintptr_t{31});
  for (std::size_t j = 0; j <= cols_n; ++j) {
    std::int32_t* c = row + kStride * j;
    std::fill(c, c + kStride, 0);
    std::fill(c + kLanePairs, c + 2 * kLanePairs, kNegInf);  // F
  }

  const v8i zero = {};
  const v8i go = zero + (scoring.gap_open() + scoring.gap_extend());
  const v8i ge = zero + scoring.gap_extend();
  const v8i m_vec = *reinterpret_cast<const v8i*>(len_q);
  const v8i n_vec = *reinterpret_cast<const v8i*>(len_r);

  v8i best = zero;
  v8u best_end = {}, best_pos = {}, best_cnt = {};

  for (std::size_t i = 1; i <= rows_m; ++i) {
    const v8i q_code = (v8i)_mm256_cvtepu8_epi32(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(&scratch.qry_codes[kLanePairs * (i - 1)])));
    const v8i q_off = q_code * kScoreAlphabet;
    const v8i row_in = (zero + static_cast<std::int32_t>(i)) <= m_vec;

    v8i e = zero + kNegInf;
    v8u e_pos = {}, e_cnt = {};
    v8i left = zero;  // H at (i, j - 1): column 0 is the zero boundary
    v8u left_pos = {}, left_cnt = {};
    v8i diag = zero;  // H at (i - 1, j - 1)
    v8u diag_pos = {}, diag_cnt = {};

    const std::uint8_t* r_codes = scratch.ref_codes.data();
    std::int32_t* col = row + kStride;
    for (std::size_t j = 1; j <= cols_n;
         ++j, col += kStride, r_codes += kLanePairs) {
      v8i* const cv = reinterpret_cast<v8i*>(col);
      const v8i up = cv[0];
      const v8i up_f = cv[1];
      const v8u up_pos = (v8u)cv[2], up_cnt = (v8u)cv[3];
      const v8u upf_pos = (v8u)cv[4], upf_cnt = (v8u)cv[5];

      // E: gap consuming the reference (left transitions within this row).
      const v8i e_open = left - go;
      const v8i e_ext = e - ge;
      const v8i e_take_open = e_open >= e_ext;
      e = e_take_open ? e_open : e_ext;
      e_pos = e_take_open ? left_pos : e_pos;
      e_cnt = (e_take_open ? left_cnt : e_cnt) + kLen1;

      // F: gap consuming the query (up transitions from the previous row).
      const v8i f_open = up - go;
      const v8i f_ext = up_f - ge;
      const v8i f_take_open = f_open >= f_ext;
      const v8i f = f_take_open ? f_open : f_ext;
      const v8u f_pos = f_take_open ? up_pos : upf_pos;
      const v8u f_cnt = (f_take_open ? up_cnt : upf_cnt) + kLen1;
      cv[1] = f;
      cv[4] = (v8i)f_pos;
      cv[5] = (v8i)f_cnt;

      // Diagonal: substitution, or a fresh start if the previous H was 0.
      const v8i r_code = (v8i)_mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r_codes)));
      const v8i sub = (v8i)_mm256_i32gather_epi32(
          table, (__m256i)(q_off + r_code), 4);
      const v8i is_match = q_code == r_code;  // -1 where the residues agree
      const v8i extend = diag > 0;
      const std::uint32_t restart = static_cast<std::uint32_t>(i - 1) |
                                    static_cast<std::uint32_t>(j - 1) << 16;
      v8i h = diag + sub;
      v8u h_pos = extend ? diag_pos : (v8u{} + restart);
      v8u h_cnt = (extend ? diag_cnt : v8u{}) + kLen1 - (v8u)is_match;

      // H: deterministic tie-break diag > up (F) > left (E) > restart.
      const v8i take_f = f > h;
      h = take_f ? f : h;
      h_pos = take_f ? f_pos : h_pos;
      h_cnt = take_f ? f_cnt : h_cnt;
      const v8i take_e = e > h;
      h = take_e ? e : h;
      h_pos = take_e ? e_pos : h_pos;
      h_cnt = take_e ? e_cnt : h_cnt;
      const v8i keep = h > 0;
      h &= keep;
      h_pos &= (v8u)keep;
      h_cnt &= (v8u)keep;

      // Strict row-major best, only inside the lane's own matrix.
      const v8i better =
          (h > best) & row_in & ((zero + static_cast<std::int32_t>(j)) <= n_vec);
      if (!_mm256_testz_si256((__m256i)better, (__m256i)better)) {
        best = better ? h : best;
        best_end = better ? (v8u{} + (static_cast<std::uint32_t>(i) |
                                      static_cast<std::uint32_t>(j) << 16))
                          : best_end;
        best_pos = better ? h_pos : best_pos;
        best_cnt = better ? h_cnt : best_cnt;
      }

      diag = up;
      diag_pos = up_pos;
      diag_cnt = up_cnt;
      cv[0] = h;
      cv[2] = (v8i)h_pos;
      cv[3] = (v8i)h_cnt;
      left = h;
      left_pos = h_pos;
      left_cnt = h_cnt;
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
  const bool vector_ok = lane_kernel_available();
  for (std::size_t k = 0; k < queries.size(); ++k) {
    if (vector_ok && queries[k].size() + references[k].size() < kLaneLimit) {
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
