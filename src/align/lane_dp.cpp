#include "align/lane_dp.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/banded.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pastis::align::lane_dp {

Isa host_isa() {
#if defined(__x86_64__)
  static const Isa isa = [] {
    if (__builtin_cpu_supports("avx2") == 0) return Isa::kScalar;
    const bool avx512 = __builtin_cpu_supports("avx512f") != 0 &&
                        __builtin_cpu_supports("avx512vl") != 0 &&
                        __builtin_cpu_supports("avx512bw") != 0;
    return avx512 ? Isa::kAvx512 : Isa::kAvx2;
  }();
  return isa;
#else
  return Isa::kScalar;
#endif
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

#if defined(__x86_64__)

namespace {

constexpr std::int32_t kNegInf = -(1 << 28);
constexpr std::uint32_t kLen1 = 1u << 16;  // ++len in a cnt word

/// A DP row keeps, per column, six vectors of kLanePairs int32 lanes: H,
/// F, and the packed path words of each, pos = beg_q | beg_r << 16 and
/// cnt = matches | len << 16.
constexpr std::size_t kColumn = 6 * kLanePairs;

/// `columns` DP columns of 32-byte aligned storage in `buf`, every one a
/// boundary cell (H = 0, F = -inf, empty paths).
std::int32_t* boundary_row(std::vector<std::int32_t>& buf,
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
void fill_score_table(const Scoring& scoring, std::int32_t* table) {
  for (int a = 0; a < kScoreAlphabet; ++a) {
    for (int b = 0; b < kScoreAlphabet; ++b) {
      table[a * kScoreAlphabet + b] = scoring.score(
          static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b));
    }
  }
}

}  // namespace

// The one kernel source, parsed once per target (see lane_kernels.hpp).
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
#include "align/lane_kernels.hpp"
}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2,avx512f,avx512vl,avx512bw")
namespace avx512 {
#include "align/lane_kernels.hpp"
}  // namespace avx512
#pragma GCC pop_options

#endif  // __x86_64__

namespace {

void require_host(Isa isa) {
  if (isa > host_isa()) {
    throw std::invalid_argument(std::string("lane_dp: this host cannot run "
                                            "the ") +
                                isa_name(isa) + " build");
  }
}

}  // namespace

void full_group(Isa isa, std::span<const std::string_view> queries,
                std::span<const std::string_view> references,
                const Scoring& scoring, std::span<AlignResult> out) {
  if (queries.size() != references.size() || out.size() != queries.size() ||
      queries.size() > kLanePairs) {
    throw std::invalid_argument(
        "smith_waterman_lanes: queries, references and out must have equal "
        "sizes of at most kLanePairs");
  }
  require_host(isa);
  std::array<std::string_view, kLanePairs> lane_q, lane_r;
  std::array<std::size_t, kLanePairs> slot{};
  std::size_t lanes = 0;
  for (std::size_t k = 0; k < queries.size(); ++k) {
    if (isa != Isa::kScalar &&
        queries[k].size() + references[k].size() < kLaneLimit) {
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
  (isa == Isa::kAvx512 ? avx512::full_kernel : avx2::full_kernel)(
      lane_q.data(), lane_r.data(), lanes, scoring, lane_out.data());
  for (std::size_t l = 0; l < lanes; ++l) out[slot[l]] = lane_out[l];
#endif
}

void banded_group(Isa isa, std::span<const std::string_view> queries,
                  std::span<const std::string_view> references,
                  const Scoring& scoring, std::span<const int> diag_centers,
                  int half_width, std::span<AlignResult> out) {
  if (queries.size() != references.size() ||
      diag_centers.size() != queries.size() || out.size() != queries.size() ||
      queries.size() > kLanePairs) {
    throw std::invalid_argument(
        "banded_smith_waterman_lanes: queries, references, diag_centers and "
        "out must have equal sizes of at most kLanePairs");
  }
  require_host(isa);
  std::array<std::string_view, kLanePairs> lane_q, lane_r;
  std::array<int, kLanePairs> lane_d{};
  std::array<std::size_t, kLanePairs> slot{};
  std::size_t lanes = 0;
  for (std::size_t k = 0; k < queries.size(); ++k) {
    // diag_center < -half_width: the scalar kernel's row-1 stop (see
    // banded.hpp) is reproduced by running the pair there.
    if (isa != Isa::kScalar && half_width >= 0 &&
        queries[k].size() + references[k].size() < kLaneLimit &&
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
  (isa == Isa::kAvx512 ? avx512::banded_kernel : avx2::banded_kernel)(
      lane_q.data(), lane_r.data(), lane_d.data(), lanes, scoring, half_width,
      lane_out.data());
  for (std::size_t l = 0; l < lanes; ++l) out[slot[l]] = lane_out[l];
#endif
}

}  // namespace pastis::align::lane_dp
