// Machinery shared by the inter-pair lane kernels (smith_waterman_lanes,
// banded_smith_waterman_lanes): the dispatch rule, the AVX2 vector types,
// the score table, the per-cell Gotoh update and the decoder of the packed
// best-cell words, so both kernels run one recurrence with one tie-break
// and unpack their results one way. Internal to align/; callers use the
// *_lanes functions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "align/scoring.hpp"
#include "align/smith_waterman.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pastis::align::lane_dp {

// Two 16-bit path counters share one 32-bit lane, so a pair takes a lane
// kernel only while every counter fits 16 bits. Along any path ending in
// cell (i, j), beg_q < i <= |q|, beg_r < j <= |r| and matches <= len <=
// i + j, so |q| + |r| < 65536 is exact.
inline constexpr std::size_t kLaneLimit = 1u << 16;

/// True when the host can run the AVX2 lane kernels.
inline bool available() {
#if defined(__x86_64__)
  static const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  return avx2;
#else
  return false;
#endif
}

#if defined(__x86_64__)

// Vector types stay inside AVX2 functions: code compiled for the baseline
// ISA passes them differently, so scratch is plain int32 storage aligned
// by hand rather than containers of vectors.
typedef std::int32_t v8i __attribute__((vector_size(32), __may_alias__));
typedef std::uint32_t v8u __attribute__((vector_size(32), __may_alias__));

inline constexpr std::int32_t kNegInf = -(1 << 28);
inline constexpr std::uint32_t kLen1 = 1u << 16;  // ++len in a cnt word

/// A DP row keeps, per column, kColumn int32 vectors: H, F, and the packed
/// path words of each, pos = beg_q | beg_r << 16 and cnt = matches |
/// len << 16.
inline constexpr std::size_t kColumn = 6 * kLanePairs;

/// Writes lane k's best cell to out[k] for every k < count: the score
/// `best`, and while it is positive the windows, matches and columns
/// unpacked from its end word (i | j << 16) and its pos and cnt words. A
/// lane whose best stayed 0 keeps out[k]'s other fields.
__attribute__((target("avx2"), always_inline)) inline void decode_best(
    v8i best, v8u end, v8u pos, v8u cnt, std::size_t count,
    AlignResult* out) {
  for (std::size_t k = 0; k < count; ++k) {
    AlignResult& res = out[k];
    res.score = best[k];
    if (best[k] > 0) {
      res.beg_q = pos[k] & 0xFFFFu;
      res.beg_r = pos[k] >> 16;
      res.end_q = end[k] & 0xFFFFu;
      res.end_r = end[k] >> 16;
      res.matches = cnt[k] & 0xFFFFu;
      res.align_len = cnt[k] >> 16;
    }
  }
}

/// `columns` DP columns of 32-byte aligned storage in `buf`, every one a
/// boundary cell (H = 0, F = -inf, empty paths).
inline std::int32_t* boundary_row(std::vector<std::int32_t>& buf,
                                  std::size_t columns) {
  buf.assign(kColumn * columns + kLanePairs, 0);
  std::int32_t* const row = reinterpret_cast<std::int32_t*>(
      (reinterpret_cast<std::uintptr_t>(buf.data()) + 31) &
      ~std::uintptr_t{31});
  for (std::size_t c = 0; c < columns; ++c) {
    std::int32_t* f = row + kColumn * c + kLanePairs;
    for (std::size_t k = 0; k < kLanePairs; ++k) f[k] = kNegInf;
  }
  return row;
}

/// scoring.score(a, b) at table[a * kScoreAlphabet + b], for the gather.
inline void fill_score_table(const Scoring& scoring, std::int32_t* table) {
  for (int a = 0; a < kScoreAlphabet; ++a) {
    for (int b = 0; b < kScoreAlphabet; ++b) {
      table[a * kScoreAlphabet + b] = scoring.score(
          static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b));
    }
  }
}

/// What the next cell of a row reads besides the previous row: E and H of
/// the cell to the left and H of the cell up-left, each H with its path
/// words. A row starts with E = -inf and an H = 0 left boundary.
struct RowCarry {
  v8i e, left, diag;
  v8u e_pos, e_cnt, left_pos, left_cnt, diag_pos, diag_cnt;
};

/// One cell of the scalar kernels' recurrence in every lane, with their
/// tie-break (diag > up > left > restart). Reads the cell above from `up`
/// (one column of the previous row) and the left and up-left cells from
/// `c`, writes the cell to `out` (which may be `up`) and advances `c`, so
/// c.left holds the new H. `restart` is the path word a fresh start at
/// this cell gets, (i - 1) | (j - 1) << 16. Lanes where `valid` is clear
/// become boundary cells, H = 0 with an empty path. Their F stays as
/// computed: a valid cell reads F only from boundary cells above a band,
/// whose H are all 0, so that F is at most -go and loses to opening from
/// H = 0, just as the scalar kernels' F = -inf boundary does.
__attribute__((target("avx2"), always_inline)) inline void gotoh_cell(
    const v8i* up, v8i* out, RowCarry& c, v8i sub, v8i is_match, v8u restart,
    v8i valid, v8i go, v8i ge) {
  const v8i up_h = up[0], up_f = up[1];
  const v8u up_pos = (v8u)up[2], up_cnt = (v8u)up[3];
  const v8u upf_pos = (v8u)up[4], upf_cnt = (v8u)up[5];

  // E: gap consuming the reference (left transitions within this row).
  const v8i e_open = c.left - go;
  const v8i e_ext = c.e - ge;
  const v8i e_take_open = e_open >= e_ext;
  c.e = e_take_open ? e_open : e_ext;
  c.e_pos = e_take_open ? c.left_pos : c.e_pos;
  c.e_cnt = (e_take_open ? c.left_cnt : c.e_cnt) + kLen1;

  // F: gap consuming the query (up transitions from the previous row).
  const v8i f_open = up_h - go;
  const v8i f_ext = up_f - ge;
  const v8i f_take_open = f_open >= f_ext;
  const v8i f = f_take_open ? f_open : f_ext;
  const v8u f_pos = f_take_open ? up_pos : upf_pos;
  const v8u f_cnt = (f_take_open ? up_cnt : upf_cnt) + kLen1;

  // Diagonal: substitution, or a fresh start if the previous H was 0.
  const v8i extend = c.diag > 0;
  v8i h = c.diag + sub;
  v8u h_pos = extend ? c.diag_pos : restart;
  v8u h_cnt = (extend ? c.diag_cnt : v8u{}) + kLen1 - (v8u)is_match;

  // H: deterministic tie-break diag > up (F) > left (E) > restart.
  const v8i take_f = f > h;
  h = take_f ? f : h;
  h_pos = take_f ? f_pos : h_pos;
  h_cnt = take_f ? f_cnt : h_cnt;
  const v8i take_e = c.e > h;
  h = take_e ? c.e : h;
  h_pos = take_e ? c.e_pos : h_pos;
  h_cnt = take_e ? c.e_cnt : h_cnt;
  const v8i keep = (h > 0) & valid;
  h &= keep;
  h_pos &= (v8u)keep;
  h_cnt &= (v8u)keep;

  out[0] = h;
  out[1] = f;
  out[2] = (v8i)h_pos;
  out[3] = (v8i)h_cnt;
  out[4] = (v8i)f_pos;
  out[5] = (v8i)f_cnt;
  c.diag = up_h;
  c.diag_pos = up_pos;
  c.diag_cnt = up_cnt;
  c.left = h;
  c.left_pos = h_pos;
  c.left_cnt = h_cnt;
}

#endif  // __x86_64__

}  // namespace pastis::align::lane_dp
