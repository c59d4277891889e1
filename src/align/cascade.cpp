#include "align/cascade.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "util/rng.hpp"

namespace pastis::align {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return util::splitmix64(h ^ (v + 0x9e3779b97f4a7c15ULL));
}

}  // namespace

std::uint64_t CascadeOptions::fingerprint() const {
  if (!any()) return 0;
  std::uint64_t h = 0x70617374u;  // arbitrary non-zero base
  h = mix(h, tier0_enabled ? 1 : 0);
  h = mix(h, tier0_min_count);
  h = mix(h, static_cast<std::uint64_t>(
                 static_cast<std::int64_t>(tier0_min_ungapped_score)));
  h = mix(h, static_cast<std::uint64_t>(tier0_min_sketch_overlap));
  h = mix(h, tier1_enabled ? 1 : 0);
  h = mix(h, static_cast<std::uint64_t>(tier1_kind));
  h = mix(h, static_cast<std::uint64_t>(
                 static_cast<std::int64_t>(tier1_min_score)));
  // The coverage cutoff participates bit-exactly: any retune, however
  // small, must miss old ResultCache entries.
  std::uint64_t cov_bits = 0;
  static_assert(sizeof(cov_bits) == sizeof(tier1_min_cov));
  std::memcpy(&cov_bits, &tier1_min_cov, sizeof(cov_bits));
  h = mix(h, cov_bits);
  return h == 0 ? 1 : h;  // never collide with "cascade off"
}

CascadeOptions CascadeOptions::exact() {
  CascadeOptions o;
  o.tier0_enabled = true;
  o.tier0_min_count = 0;
  o.tier0_min_ungapped_score = kCascadeNoCutoff;
  o.tier0_min_sketch_overlap = 0;
  o.tier1_enabled = true;
  o.tier1_kind = AlignKind::kXDrop;
  o.tier1_min_score = kCascadeNoCutoff;
  return o;
}

CascadeOptions CascadeOptions::fast() {
  // Tuned on bench_sensitivity_cascade's background-heavy metagenome blend
  // (family fraction 0.35, low-complexity 0.5, ckt 1): ~3.6x alignment-cell
  // reduction at ~0.97 edge recall. The probe-coverage cutoff does the
  // heavy lifting — high-scoring low-complexity repeat pairs fail it while
  // near-full-length homologs pass — sitting safely below the final edge
  // filter's 0.70 so borderline true edges are not pre-empted.
  CascadeOptions o;
  o.tier0_enabled = true;
  o.tier0_min_count = 0;       // the global common_kmer_threshold still gates
  o.tier0_min_ungapped_score = 27;
  o.tier0_min_sketch_overlap = 0;
  o.tier1_enabled = true;
  o.tier1_kind = AlignKind::kBanded;
  o.tier1_min_score = 45;
  o.tier1_min_cov = 0.5;
  return o;
}

UngappedExtension ungapped_diag_extend(std::string_view q, std::string_view r,
                                       std::span<const Seed> seeds,
                                       std::uint32_t seed_len,
                                       const Scoring& scoring, int xdrop,
                                       int bucket_half_width) {
  UngappedExtension out;
  const auto nq = static_cast<std::int64_t>(q.size());
  const auto nr = static_cast<std::int64_t>(r.size());
  if (nq == 0 || nr == 0 || seeds.empty()) return out;

  // Diagonals already extended; a new seed within 2*half_width of one of
  // them would only rediscover the same band. |Δdiag| is invariant under
  // swapping the sequences (both diagonals negate), which is what keeps
  // the screen orientation-symmetric.
  const std::int64_t merge_width =
      2 * static_cast<std::int64_t>(std::max(0, bucket_half_width));
  std::int64_t done_diags[8];
  int n_done = 0;

  for (const Seed& s : seeds) {
    const std::int64_t d =
        static_cast<std::int64_t>(s.r) - static_cast<std::int64_t>(s.q);
    bool dup = false;
    for (int i = 0; i < n_done; ++i) {
      if (std::llabs(done_diags[i] - d) <= merge_width) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    if (n_done < 8) done_diags[n_done++] = d;

    // Valid q-range of diagonal d: q in [max(0, -d), min(nq, nr - d)).
    const std::int64_t q_lo = std::max<std::int64_t>(0, -d);
    const std::int64_t q_hi = std::min<std::int64_t>(nq, nr - d);
    if (q_lo >= q_hi) continue;  // diagonal misses the sequences entirely
    ++out.seeds_extended;
    const std::int64_t sq =
        std::clamp(static_cast<std::int64_t>(s.q), q_lo, q_hi - 1);

    // Score the (clamped) seed window, then extend right and left with the
    // same x-drop rule as align/xdrop.cpp — but ungapped only, so the whole
    // screen is O(extension length) with no DP rows.
    int run = 0;
    std::int64_t iq = sq;
    const std::int64_t seed_end =
        std::min(sq + static_cast<std::int64_t>(seed_len), q_hi);
    for (; iq < seed_end; ++iq) {
      run += scoring.score_chars(q[static_cast<std::size_t>(iq)],
                                 r[static_cast<std::size_t>(iq + d)]);
      ++out.cells;
    }
    int best = run;
    for (; iq < q_hi; ++iq) {
      run += scoring.score_chars(q[static_cast<std::size_t>(iq)],
                                 r[static_cast<std::size_t>(iq + d)]);
      ++out.cells;
      if (run > best) best = run;
      if (run < best - xdrop) break;
    }
    run = best;
    int best_total = best;
    for (std::int64_t jq = sq - 1; jq >= q_lo; --jq) {
      run += scoring.score_chars(q[static_cast<std::size_t>(jq)],
                                 r[static_cast<std::size_t>(jq + d)]);
      ++out.cells;
      if (run > best_total) best_total = run;
      if (run < best_total - xdrop) break;
    }
    out.score = std::max(out.score, best_total);
  }
  return out;
}

bool tier0_keep(std::string_view q, std::string_view r,
                std::span<const Seed> seeds, std::uint32_t shared_kmers,
                int sketch_overlap, const BatchAligner& aligner,
                const CascadeOptions& opt, TierStats& ts) {
  ++ts.pairs_in;
  bool keep = shared_kmers >= opt.tier0_min_count;
  if (keep && opt.tier0_min_sketch_overlap > 0 && sketch_overlap >= 0) {
    keep = sketch_overlap >= opt.tier0_min_sketch_overlap;
  }
  if (keep && opt.tier0_min_ungapped_score > kCascadeNoCutoff) {
    const auto& c = aligner.config();
    const UngappedExtension ext =
        ungapped_diag_extend(q, r, seeds, c.seed_len, aligner.scoring(),
                             c.xdrop, c.band_half_width);
    ts.cells += ext.cells;
    keep = ext.score >= opt.tier0_min_ungapped_score;
  }
  if (keep) {
    ++ts.pairs_out;
  } else {
    ++ts.rejects;
  }
  return keep;
}

bool tier1_accept(const AlignResult& probe, std::size_t len_q,
                  std::size_t len_r, const CascadeOptions& opt,
                  TierStats& ts) {
  ++ts.pairs_in;
  ts.cells += probe.cells;
  bool keep = probe.score >= opt.tier1_min_score;
  if (keep && opt.tier1_min_cov > 0.0) {
    keep = probe.coverage(len_q, len_r) >= opt.tier1_min_cov;
  }
  if (keep) {
    ++ts.pairs_out;
  } else {
    ++ts.rejects;
  }
  return keep;
}

bool tier1_keep(std::string_view q, std::string_view r, const AlignTask& task,
                const BatchAligner& aligner, const CascadeOptions& opt,
                TierStats& ts) {
  return tier1_accept(aligner.align_pair(q, r, task, opt.tier1_kind),
                      q.size(), r.size(), opt, ts);
}

}  // namespace pastis::align
