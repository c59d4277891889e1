// The builds of the inter-pair lane kernels (smith_waterman_lanes,
// banded_smith_waterman_lanes) and the rule that picks one. One kernel
// source, align/lane_kernels.hpp, is compiled twice by lane_dp.cpp: for
// AVX2, and for AVX-512VL/BW on the same 256-bit vectors of kLanePairs
// 32-bit lanes. The *_lanes functions run host_isa()'s build; tests and
// benches name a build through full_group and banded_group. Internal to
// align/ and the tests, benches and trace spans that report the build.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

#include "align/scoring.hpp"
#include "align/smith_waterman.hpp"

namespace pastis::align::lane_dp {

// Two 16-bit path counters share one 32-bit lane, so a pair takes a lane
// kernel only while every counter fits 16 bits. Along any path ending in
// cell (i, j), beg_q < i <= |q|, beg_r < j <= |r| and matches <= len <=
// i + j, so |q| + |r| < 65536 is exact.
inline constexpr std::size_t kLaneLimit = 1u << 16;

/// A build of the lane kernels. kScalar runs every pair through the scalar
/// kernels. A host that runs a build runs every build before it.
enum class Isa { kScalar, kAvx2, kAvx512 };

/// The widest build this host runs, read from CPUID once per process:
/// kAvx512 when it has AVX-512F, VL and BW (and AVX2), else kAvx2 when it
/// has AVX2, else kScalar. No option overrides it.
[[nodiscard]] Isa host_isa();

/// "scalar", "avx2" or "avx512".
[[nodiscard]] const char* isa_name(Isa isa);

/// smith_waterman_lanes run by `isa`'s build, with its contract: out[k]
/// equals smith_waterman(queries[k], references[k], scoring), and a pair
/// with |q| + |r| >= kLaneLimit runs smith_waterman. Throws
/// std::invalid_argument when the sizes differ or exceed kLanePairs, or
/// when this host cannot run `isa`.
void full_group(Isa isa, std::span<const std::string_view> queries,
                std::span<const std::string_view> references,
                const Scoring& scoring, std::span<AlignResult> out);

/// banded_smith_waterman_lanes run by `isa`'s build, with its contract and
/// full_group's throws.
void banded_group(Isa isa, std::span<const std::string_view> queries,
                  std::span<const std::string_view> references,
                  const Scoring& scoring, std::span<const int> diag_centers,
                  int half_width, std::span<AlignResult> out);

}  // namespace pastis::align::lane_dp
