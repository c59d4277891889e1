// The lane kernels' one source: the per-cell Gotoh update, the best-cell
// decoder and both group kernels, on kLanePairs 32-bit lanes of a 256-bit
// vector. lane_dp.cpp includes this file twice, into namespaces avx2 and
// avx512, each between #pragma GCC push_options / target(...) /
// pop_options, after every other header. So it has no include guard, and
// it uses the scalar helpers (kNegInf, kLen1, kColumn, boundary_row,
// fill_score_table) that lane_dp.cpp defines before including it.
//
// Each build must parse these bodies under its own target: GCC types a
// vector compare from the enclosing function's target at parse time, so
// only a body parsed for AVX-512VL/BW compares into k-masks and blends with
// masked moves (and keeps its state in 32 registers, not 16).

// Vector types stay inside these functions: code compiled for the baseline
// ISA passes them differently, so scratch is plain int32 storage aligned
// by hand rather than containers of vectors.
typedef std::int32_t v8i __attribute__((vector_size(32), __may_alias__));
typedef std::uint32_t v8u __attribute__((vector_size(32), __may_alias__));

/// Writes lane k's best cell to out[k] for every k < count: the score
/// `best`, and while it is positive the windows, matches and columns
/// unpacked from its end word (i | j << 16) and its pos and cnt words. A
/// lane whose best stayed 0 keeps out[k]'s other fields.
__attribute__((always_inline)) inline void decode_best(v8i best, v8u end,
                                                        v8u pos, v8u cnt,
                                                        std::size_t count,
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
__attribute__((always_inline)) inline void gotoh_cell(
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

/// The scalar recurrence of smith_waterman, run for `count` <= kLanePairs
/// pairs at once. Each lane is padded to the largest |q| x |r| of the
/// group (code 0 outside its own sequences); a padded cell never feeds a
/// cell inside the lane's own matrix, and the best-cell update is masked to
/// i <= |q_k|, j <= |r_k|, so every lane reproduces the scalar result
/// exactly. Requires |q_k| + |r_k| < kLaneLimit.
///
/// The DP state lives in one row of columns 0..max |r| updated in place
/// (gotoh_cell); column 0 is the zero boundary. The previous row's H and
/// path words at j - 1 (the diagonal) ride along in registers. Scratch is
/// allocated per group: kept per thread, it would hold every pool thread's
/// largest row at once, which measurably raised peak resident memory.
void full_kernel(const std::string_view* queries,
                 const std::string_view* references, std::size_t count,
                 const Scoring& scoring, AlignResult* out) {
  constexpr std::size_t kStride = kColumn;

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
  fill_score_table(scoring, table);

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
  std::int32_t* const row = boundary_row(row_buf, cols_n + 1);

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

    RowCarry c{};
    c.e = zero + kNegInf;

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
      gotoh_cell(cv, cv, c, sub, q_code == r_code, v8u{} + restart, all, go,
                 ge);

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

  decode_best(best, best_end, best_pos, best_cnt, count, out);
}

/// banded_smith_waterman's recurrence for `count` <= kLanePairs pairs at
/// once, in band coordinates. Lane k's cell (i, t) is (i, j = i + low_k +
/// t), where low_k = max(d_k - w, 1 - |q_k|) is the lowest diagonal j - i
/// of its band that can hold a cell; every lane's left, up and up-left
/// neighbours are then (i, t - 1), (i - 1, t + 1) and (i - 1, t), so one
/// row of W columns (the widest band of the group) plus a boundary column
/// serves all lanes. Lane k's reference codes are stored shifted by low_k,
/// so every lane reads code i + t. Cells outside 1 <= j <= |r_k|, above the
/// band or past the lane's last row are boundary cells (gotoh_cell), which
/// act on every cell inside the band as the scalar kernel's boundary clears
/// (H = 0, F = -inf, empty path) do. A lane's rows stop where the scalar
/// kernel's first empty row would `break`, and the best-cell update stays
/// strict and row-major, so every field, `cells` included, equals the
/// scalar result. Requires d_k >= -w (the scalar kernel stops on row 1
/// otherwise), w >= 0 and |q_k| + |r_k| < kLaneLimit.
void banded_kernel(const std::string_view* queries,
                   const std::string_view* references, const int* diags,
                   std::size_t count, const Scoring& scoring, int half_width,
                   AlignResult* out) {
  constexpr std::size_t kStride = kColumn;
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
  fill_score_table(scoring, table);

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
  std::int32_t* const row = boundary_row(row_buf, width + 1);

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

    RowCarry c{};
    c.e = zero + kNegInf;
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
      gotoh_cell(cv + 6, cv, c, sub, q_code == r_code, restart, valid, go,
                 ge);

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

  decode_best(best, best_end, best_pos, best_cnt, count, out);
}
