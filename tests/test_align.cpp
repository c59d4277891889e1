// Alignment kernel tests: Smith-Waterman against an independent reference
// DP, banded/x-drop variants, the AVX2 lane kernels (full and banded)
// field by field against the scalar kernels, and the ADEPT-style batch
// driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "align/banded.hpp"
#include "align/batch.hpp"
#include "align/smith_waterman.hpp"
#include "align/xdrop.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pa = pastis::align;

namespace {

const pa::Scoring& scoring() {
  static const pa::Scoring s = pa::Scoring::pastis_default();
  return s;
}

/// Independent reference: full-matrix Gotoh with explicit 2D tables.
int reference_sw_score(const std::string& q, const std::string& r,
                       const pa::Scoring& sc) {
  const int m = static_cast<int>(q.size());
  const int n = static_cast<int>(r.size());
  if (m == 0 || n == 0) return 0;
  const int go = sc.gap_open() + sc.gap_extend();
  const int ge = sc.gap_extend();
  constexpr int kNegInf = -(1 << 28);
  std::vector<std::vector<int>> H(m + 1, std::vector<int>(n + 1, 0));
  std::vector<std::vector<int>> E(m + 1, std::vector<int>(n + 1, kNegInf));
  std::vector<std::vector<int>> F(m + 1, std::vector<int>(n + 1, kNegInf));
  int best = 0;
  for (int i = 1; i <= m; ++i) {
    for (int j = 1; j <= n; ++j) {
      E[i][j] = std::max(H[i][j - 1] - go, E[i][j - 1] - ge);
      F[i][j] = std::max(H[i - 1][j] - go, F[i - 1][j] - ge);
      const int diag = H[i - 1][j - 1] + sc.score_chars(q[i - 1], r[j - 1]);
      H[i][j] = std::max({0, diag, E[i][j], F[i][j]});
      best = std::max(best, H[i][j]);
    }
  }
  return best;
}

std::string random_protein(pastis::util::Xoshiro256& rng, std::size_t len) {
  static const std::string aas = "ARNDCQEGHILKMFPSTWYV";
  std::string s(len, 'A');
  for (auto& c : s) c = aas[rng.below(aas.size())];
  return s;
}

/// A homolog of `s`: ~15% substitutions plus short insertions and
/// deletions, so alignments exercise every DP state's path statistics.
std::string mutated(pastis::util::Xoshiro256& rng, const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (rng.chance(0.03)) continue;                        // deletion
    if (rng.chance(0.03)) out += random_protein(rng, 1 + rng.below(4));
    out += rng.chance(0.15) ? random_protein(rng, 1)[0] : c;
  }
  return out;
}

void expect_same_result(const pa::AlignResult& got, const pa::AlignResult& want,
                        std::size_t pair) {
  EXPECT_EQ(got.score, want.score) << "pair " << pair;
  EXPECT_EQ(got.beg_q, want.beg_q) << "pair " << pair;
  EXPECT_EQ(got.end_q, want.end_q) << "pair " << pair;
  EXPECT_EQ(got.beg_r, want.beg_r) << "pair " << pair;
  EXPECT_EQ(got.end_r, want.end_r) << "pair " << pair;
  EXPECT_EQ(got.matches, want.matches) << "pair " << pair;
  EXPECT_EQ(got.align_len, want.align_len) << "pair " << pair;
  EXPECT_EQ(got.cells, want.cells) << "pair " << pair;
}

/// Aligns seqs[2k] against seqs[2k + 1] for every k through
/// BatchAligner::align_tasks (full SW, so the lane kernel) and checks every
/// field against the scalar smith_waterman, inline and on a pool.
void expect_lanes_match_scalar(const std::vector<std::string>& seqs) {
  std::vector<pa::AlignTask> tasks;
  for (std::uint32_t i = 0; i + 1 < seqs.size(); i += 2) {
    tasks.push_back({i, i + 1, 0, 0});
  }
  auto seq_of = [&](std::uint32_t id) { return std::string_view(seqs[id]); };
  const pa::BatchAligner aligner(scoring(), {});
  pastis::util::ThreadPool pool(3);
  const std::array<pastis::util::ThreadPool*, 2> pools = {nullptr, &pool};
  for (pastis::util::ThreadPool* p : pools) {
    std::vector<pa::AlignResult> results(tasks.size());
    aligner.align_tasks(seq_of, tasks, pa::AlignKind::kFullSW, results, p);
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      expect_same_result(results[t],
                         pa::smith_waterman(seqs[tasks[t].q_id],
                                            seqs[tasks[t].r_id], scoring()),
                         t);
    }
  }
}

/// One banded pair: query, reference and the band's diag_center.
struct BandPair {
  std::string q, r;
  int diag = 0;
};

/// Runs `pairs` through banded_smith_waterman_lanes in consecutive groups
/// of kLanePairs (the last one partial) and checks every field against the
/// scalar banded_smith_waterman.
void expect_banded_lanes_match_scalar(const std::vector<BandPair>& pairs,
                                      int half_width) {
  for (std::size_t first = 0; first < pairs.size(); first += pa::kLanePairs) {
    const std::size_t count = std::min(pa::kLanePairs, pairs.size() - first);
    std::vector<std::string_view> qs, rs;
    std::vector<int> diags;
    for (std::size_t k = first; k < first + count; ++k) {
      qs.push_back(pairs[k].q);
      rs.push_back(pairs[k].r);
      diags.push_back(pairs[k].diag);
    }
    std::vector<pa::AlignResult> out(count);
    pa::banded_smith_waterman_lanes(qs, rs, scoring(), diags, half_width, out);
    for (std::size_t k = 0; k < count; ++k) {
      const BandPair& p = pairs[first + k];
      SCOPED_TRACE("w=" + std::to_string(half_width) + " d=" +
                   std::to_string(p.diag) + " |q|=" +
                   std::to_string(p.q.size()) + " |r|=" +
                   std::to_string(p.r.size()));
      expect_same_result(out[k],
                         pa::banded_smith_waterman(p.q, p.r, scoring(), p.diag,
                                                   half_width),
                         first + k);
    }
  }
}

/// A diag_center anywhere from left of the band's reach (d < -w - |q|) to
/// right of it (d > |r| + w), so bands miss, graze and cover the matrix.
int any_diag(pastis::util::Xoshiro256& rng, const BandPair& p, int w) {
  const int lo = -static_cast<int>(p.q.size()) - w - 2;
  const int hi = static_cast<int>(p.r.size()) + w + 2;
  return lo + static_cast<int>(rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
}

}  // namespace

TEST(Scoring, Blosum62KnownValues) {
  const auto& sc = scoring();
  EXPECT_EQ(sc.score_chars('A', 'A'), 4);
  EXPECT_EQ(sc.score_chars('W', 'W'), 11);
  EXPECT_EQ(sc.score_chars('A', 'W'), -3);
  EXPECT_EQ(sc.score_chars('E', 'D'), 2);
  EXPECT_EQ(sc.score_chars('a', 'a'), 4);  // case-insensitive
}

TEST(Scoring, SymmetricMatrix) {
  const auto& sc = scoring();
  const auto residues = pa::scoring_residues();
  for (char a : residues) {
    for (char b : residues) {
      EXPECT_EQ(sc.score_chars(a, b), sc.score_chars(b, a));
    }
  }
}

TEST(Scoring, UnknownFoldsToX) {
  const auto& sc = scoring();
  EXPECT_EQ(sc.score_chars('?', 'A'), sc.score_chars('X', 'A'));
  EXPECT_EQ(sc.score_chars('U', 'U'), sc.score_chars('C', 'C'));
}

TEST(Scoring, RejectsNegativeGaps) {
  EXPECT_THROW(pa::Scoring(pa::Scoring::Matrix::kBlosum62, -1, 2),
               std::invalid_argument);
}

TEST(Scoring, AlternativeMatricesDiffer) {
  const pa::Scoring b45(pa::Scoring::Matrix::kBlosum45, 11, 2);
  const pa::Scoring p250(pa::Scoring::Matrix::kPam250, 11, 2);
  EXPECT_EQ(b45.score_chars('A', 'A'), 5);
  EXPECT_EQ(p250.score_chars('W', 'W'), 17);
}

TEST(SmithWaterman, IdenticalSequences) {
  const std::string s = "MKVLAETGWT";
  const auto res = pa::smith_waterman(s, s, scoring());
  int self = 0;
  for (char c : s) self += scoring().score_chars(c, c);
  EXPECT_EQ(res.score, self);
  EXPECT_DOUBLE_EQ(res.identity(), 1.0);
  EXPECT_DOUBLE_EQ(res.coverage(s.size(), s.size()), 1.0);
  EXPECT_EQ(res.beg_q, 0u);
  EXPECT_EQ(res.end_q, s.size());
  EXPECT_EQ(res.cells, s.size() * s.size());
}

TEST(SmithWaterman, EmptyInputs) {
  const auto res = pa::smith_waterman("", "AAA", scoring());
  EXPECT_EQ(res.score, 0);
  EXPECT_EQ(res.align_len, 0u);
  EXPECT_DOUBLE_EQ(res.identity(), 0.0);
}

TEST(SmithWaterman, LocalAlignmentFindsEmbeddedMatch) {
  // The shared core "WWWWW" sits inside unrelated flanks.
  const std::string q = "AAAAAAWWWWWAAAAAA";
  const std::string r = "GGGGGGGGWWWWWGG";
  const auto res = pa::smith_waterman(q, r, scoring());
  EXPECT_EQ(res.beg_q, 6u);
  EXPECT_EQ(res.end_q, 11u);
  EXPECT_EQ(res.beg_r, 8u);
  EXPECT_EQ(res.end_r, 13u);
  EXPECT_EQ(res.matches, 5u);
  EXPECT_EQ(res.align_len, 5u);
  EXPECT_EQ(res.score, 5 * 11);
}

TEST(SmithWaterman, GapCostsAffine) {
  // One gap of length 2 should cost open + 2*extend once, not twice.
  const std::string q = "WWWWWWWW";
  const std::string r = "WWWWCCWWWW";  // needs a 2-gap in q
  const auto res = pa::smith_waterman(q, r, scoring());
  const int go = scoring().gap_open() + scoring().gap_extend();
  const int ge = scoring().gap_extend();
  EXPECT_EQ(res.score, 8 * 11 - (go + ge));
}

class SwRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SwRandomSweep, MatchesReferenceDp) {
  pastis::util::Xoshiro256 rng(GetParam());
  const auto q = random_protein(rng, 5 + rng.below(120));
  const auto r = random_protein(rng, 5 + rng.below(120));
  const auto res = pa::smith_waterman(q, r, scoring());
  EXPECT_EQ(res.score, reference_sw_score(q, r, scoring()));
  EXPECT_EQ(res.score, pa::smith_waterman(r, q, scoring()).score);  // symmetry
  // Path statistics invariants.
  EXPECT_LE(res.matches, res.align_len);
  EXPECT_LE(res.beg_q, res.end_q);
  EXPECT_LE(res.beg_r, res.end_r);
  EXPECT_LE(res.end_q, q.size());
  EXPECT_LE(res.end_r, r.size());
  EXPECT_GE(res.align_len, std::max(res.end_q - res.beg_q, res.end_r - res.beg_r));
  const double cov = res.coverage(q.size(), r.size());
  EXPECT_GE(cov, 0.0);
  EXPECT_LE(cov, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwRandomSweep,
                         ::testing::Range<std::uint64_t>(100, 140));

TEST(SmithWaterman, MutatedCopyScoresHighIdentity) {
  pastis::util::Xoshiro256 rng(77);
  const auto base = random_protein(rng, 300);
  std::string mut = base;
  for (auto& c : mut) {
    if (rng.chance(0.05)) c = random_protein(rng, 1)[0];
  }
  const auto res = pa::smith_waterman(base, mut, scoring());
  EXPECT_GT(res.identity(), 0.85);
  EXPECT_GT(res.coverage(base.size(), mut.size()), 0.95);
}

TEST(Banded, FullWidthEqualsUnbanded) {
  // Half-width max(|q|, |r|), the band smith_waterman runs around diagonal
  // 0, holds every cell; |q| + |r| is wider still. Both equal
  // smith_waterman in every field, `cells` = |q|·|r| included.
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"", ""}, {"", "MKV"}, {"MKV", ""}, {"W", "W"},
      {"W", "P"}, {"A", "MKVLAETGWT"}, {"MKVLAETGWT", "W"}};
  pastis::util::Xoshiro256 rng(31);
  for (int t = 0; t < 10; ++t) {
    auto q = random_protein(rng, 20 + rng.below(60));
    auto r = random_protein(rng, 20 + rng.below(60));
    pairs.emplace_back(std::move(q), std::move(r));
  }
  for (int t = 0; t < 6; ++t) {
    auto q = random_protein(rng, 20 + rng.below(120));
    auto r = mutated(rng, q);
    pairs.emplace_back(std::move(q), std::move(r));
  }
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const auto& [q, r] = pairs[p];
    const auto full = pa::smith_waterman(q, r, scoring());
    EXPECT_EQ(full.cells, q.size() * r.size()) << "pair " << p;
    for (const std::size_t w :
         {std::max(q.size(), r.size()), q.size() + r.size()}) {
      SCOPED_TRACE("w=" + std::to_string(w));
      expect_same_result(pa::banded_smith_waterman(q, r, scoring(), 0,
                                                   static_cast<int>(w)),
                         full, p);
    }
  }
}

TEST(Banded, NarrowBandNeverBeatsFull) {
  pastis::util::Xoshiro256 rng(37);
  for (int t = 0; t < 10; ++t) {
    const auto q = random_protein(rng, 50);
    const auto r = random_protein(rng, 50);
    const auto full = pa::smith_waterman(q, r, scoring());
    const auto band = pa::banded_smith_waterman(q, r, scoring(), 0, 5);
    EXPECT_LE(band.score, full.score);
    EXPECT_LT(band.cells, full.cells);
  }
}

TEST(Banded, FindsOnDiagonalMatch) {
  const std::string q = "AAAWWWWWAAA";
  const std::string r = "CCCWWWWWCCC";
  const auto res = pa::banded_smith_waterman(q, r, scoring(), 0, 3);
  EXPECT_EQ(res.score, 5 * 11);
}

TEST(XDrop, ExactSeedExtendsFully) {
  const std::string s = "MKVLAETGWTMKVLAETGWT";
  const auto res = pa::xdrop_extend(s, s, 5, 5, 6, scoring(), 20);
  EXPECT_EQ(res.beg_q, 0u);
  EXPECT_EQ(res.end_q, s.size());
  EXPECT_DOUBLE_EQ(res.identity(), 1.0);
}

TEST(XDrop, StopsAtScoreDrop) {
  // Seed match surrounded by strong mismatches; extension must stop early.
  const std::string q = "PPPPPWWWWWWPPPPP";
  const std::string r = "GGGGGWWWWWWGGGGG";
  const auto res = pa::xdrop_extend(q, r, 5, 5, 6, scoring(), 10);
  EXPECT_GE(res.beg_q, 3u);
  EXPECT_LE(res.end_q, 13u);
  EXPECT_EQ(res.matches, 6u);
}

TEST(XDrop, MalformedSeedReturnsEmpty) {
  const auto res = pa::xdrop_extend("AAA", "AAA", 2, 0, 6, scoring(), 10);
  EXPECT_EQ(res.score, 0);
}

TEST(Batch, AlignPairRunsEachKernelWithConfigKnobs) {
  // Knobs off their defaults, so a dispatch that dropped one would differ.
  pa::BatchAligner::Config cfg;
  cfg.band_half_width = 7;
  cfg.xdrop = 13;
  cfg.seed_len = 5;
  const pa::BatchAligner aligner(scoring(), cfg);
  pastis::util::Xoshiro256 rng(103);
  for (std::size_t t = 0; t < 24; ++t) {
    // A core shared exactly at random offsets, so seeds are real k-mer
    // matches and seed diagonals fall on either side of the band's reach.
    // Every other seed ends the core, so an x-drop run with another
    // seed_len differs.
    const auto core = random_protein(rng, 10 + rng.below(60));
    const auto left_q = random_protein(rng, rng.below(80));
    const auto left_r = random_protein(rng, rng.below(80));
    const auto q = left_q + core + random_protein(rng, rng.below(40));
    const auto r = left_r + core + mutated(rng, random_protein(rng, 30));
    const auto offset = static_cast<std::uint32_t>(
        t % 2 == 0 ? rng.below(5) : core.size() - cfg.seed_len);
    const pa::AlignTask task{
        0, 1, static_cast<std::uint32_t>(left_q.size()) + offset,
        static_cast<std::uint32_t>(left_r.size()) + offset};
    expect_same_result(aligner.align_pair(q, r, task, pa::AlignKind::kFullSW),
                       pa::smith_waterman(q, r, scoring()), t);
    expect_same_result(
        aligner.align_pair(q, r, task, pa::AlignKind::kBanded),
        pa::banded_smith_waterman(
            q, r, scoring(),
            static_cast<int>(task.seed_r) - static_cast<int>(task.seed_q),
            cfg.band_half_width),
        t);
    expect_same_result(aligner.align_pair(q, r, task, pa::AlignKind::kXDrop),
                       pa::xdrop_extend(q, r, task.seed_q, task.seed_r,
                                        cfg.seed_len, scoring(), cfg.xdrop),
                       t);
  }
}

TEST(Batch, ResultsMatchIndividualCalls) {
  pastis::util::Xoshiro256 rng(53);
  std::vector<std::string> seqs;
  for (int i = 0; i < 12; ++i) seqs.push_back(random_protein(rng, 40 + rng.below(60)));

  std::vector<pa::AlignTask> tasks;
  for (std::uint32_t i = 0; i < 12; ++i) {
    for (std::uint32_t j = i + 1; j < 12; j += 3) tasks.push_back({i, j, 0, 0});
  }
  pa::BatchAligner::Config cfg;
  cfg.devices = 3;
  const pa::BatchAligner aligner(scoring(), cfg);
  auto seq_of = [&](std::uint32_t id) { return std::string_view(seqs[id]); };

  std::vector<pa::AlignResult> results(tasks.size());
  aligner.align_tasks(seq_of, tasks, cfg.kind, results, nullptr);
  pa::LaneScratch scratch;
  const pa::BatchStats stats =
      aligner.stats_for(seq_of, tasks, results, scratch);
  std::uint64_t cells = 0;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const auto ref =
        pa::smith_waterman(seqs[tasks[t].q_id], seqs[tasks[t].r_id], scoring());
    expect_same_result(results[t], ref, t);
    cells += ref.cells;
  }
  EXPECT_EQ(stats.cells, cells);
  EXPECT_EQ(stats.pairs, tasks.size());
}

TEST(Batch, DeviceCountDoesNotChangeResults) {
  pastis::util::Xoshiro256 rng(59);
  std::vector<std::string> seqs;
  for (int i = 0; i < 8; ++i) seqs.push_back(random_protein(rng, 50));
  std::vector<pa::AlignTask> tasks;
  for (std::uint32_t i = 0; i + 1 < 8; ++i) tasks.push_back({i, i + 1, 0, 0});
  auto seq_of = [&](std::uint32_t id) { return std::string_view(seqs[id]); };

  pa::BatchAligner::Config c1, c6;
  c1.devices = 1;
  c6.devices = 6;
  const pa::BatchAligner a1(scoring(), c1), a6(scoring(), c6);
  std::vector<pa::AlignResult> r1(tasks.size()), r6(tasks.size());
  a1.align_tasks(seq_of, tasks, pa::AlignKind::kFullSW, r1, nullptr);
  a6.align_tasks(seq_of, tasks, pa::AlignKind::kFullSW, r6, nullptr);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    expect_same_result(r1[t], r6[t], t);
  }
  // Devices split the accounting, never the totals.
  pa::LaneScratch s1, s6;
  const auto st1 = a1.stats_for(seq_of, tasks, r1, s1);
  const auto st6 = a6.stats_for(seq_of, tasks, r6, s6);
  EXPECT_EQ(st1.pairs, st6.pairs);
  EXPECT_EQ(st1.cells, st6.cells);
}

TEST(Batch, PoolExecutionMatchesInline) {
  pastis::util::Xoshiro256 rng(61);
  std::vector<std::string> seqs;
  for (int i = 0; i < 10; ++i) seqs.push_back(random_protein(rng, 60));
  std::vector<pa::AlignTask> tasks;
  for (std::uint32_t i = 0; i < 10; ++i) {
    for (std::uint32_t j = i + 1; j < 10; ++j) tasks.push_back({i, j, 0, 0});
  }
  auto seq_of = [&](std::uint32_t id) { return std::string_view(seqs[id]); };
  const pa::BatchAligner aligner(scoring(), {});
  pastis::util::ThreadPool pool(4);
  std::vector<pa::AlignResult> inline_res(tasks.size()),
      pooled_res(tasks.size());
  aligner.align_tasks(seq_of, tasks, pa::AlignKind::kFullSW, inline_res,
                      nullptr);
  aligner.align_tasks(seq_of, tasks, pa::AlignKind::kFullSW, pooled_res,
                      &pool);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    expect_same_result(pooled_res[t], inline_res[t], t);
  }
}

TEST(LaneKernel, EmptySequences) {
  pastis::util::Xoshiro256 rng(67);
  const auto a = random_protein(rng, 30);
  // Empty query, empty reference, both empty, beside ordinary pairs.
  expect_lanes_match_scalar({"", a, a, "", "", "", a, mutated(rng, a)});
  expect_lanes_match_scalar({"", ""});
}

TEST(LaneKernel, PartialGroupsAndMixedLengths) {
  pastis::util::Xoshiro256 rng(71);
  // Every partial group size 1-7, then groups mixing lengths 5-400.
  for (std::size_t pairs = 1; pairs < pa::kLanePairs; ++pairs) {
    std::vector<std::string> seqs;
    for (std::size_t k = 0; k < pairs; ++k) {
      const auto q = random_protein(rng, 5 + rng.below(120));
      seqs.push_back(q);
      seqs.push_back(rng.chance(0.5) ? mutated(rng, q)
                                     : random_protein(rng, 5 + rng.below(120)));
    }
    expect_lanes_match_scalar(seqs);
  }
  std::vector<std::string> seqs;
  for (int k = 0; k < 45; ++k) {
    const auto q = random_protein(rng, 5 + rng.below(396));
    seqs.push_back(q);
    seqs.push_back(k % 3 == 0 ? random_protein(rng, 5 + rng.below(396))
                              : mutated(rng, q));
  }
  expect_lanes_match_scalar(seqs);
}

TEST(LaneKernel, TieHeavyLowComplexity) {
  // Homopolymers and periodic repeats score many cells equally, so the
  // diag > up > left > restart order and the strict row-major best decide
  // every path statistic.
  const std::string poly(120, 'A');
  std::string periodic, shifted;
  for (int k = 0; k < 40; ++k) periodic += "ACG";
  for (int k = 0; k < 33; ++k) shifted += "CGA";
  expect_lanes_match_scalar({
      poly, poly,
      poly, std::string(50, 'A') + "WW" + std::string(70, 'A'),
      std::string(60, 'A') + std::string(60, 'A'), std::string(90, 'A'),
      periodic, shifted,
      periodic, periodic.substr(0, 40) + "GGG" + periodic.substr(40),
      "ACACACACACACACACACAC", "CACACACACACA",
      std::string(7, 'W'), std::string(7, 'W'),
      "AAAAAAAAAAWWWAAAAAAAAAA", "AAAAAAAAAAAAAAAAAAAAA",
      poly.substr(0, 5), poly,
  });
}

TEST(LaneKernel, ZeroScorePairs) {
  // BLOSUM62 scores P/W and D/W negative: no cell is ever positive.
  expect_lanes_match_scalar({"PPPPPPPP", "WWWWWWWWWWWW", "DDDD", "WWW",
                             "W", "P", "PDPDPD", "WWWWW"});
  const auto res = pa::smith_waterman("PPPPPPPP", "WWWWWWWWWWWW", scoring());
  EXPECT_EQ(res.score, 0);
  EXPECT_EQ(res.align_len, 0u);
}

TEST(LaneKernel, LongPairTakesScalarPath) {
  // |q| + |r| >= 65536 overflows the lane kernel's 16-bit path counters:
  // here the optimum ends at query position 65540. The pair beside it sits
  // exactly at the limit (|q| + |r| = 65535) and stays in the lane group.
  pastis::util::Xoshiro256 rng(73);
  const auto long_q = random_protein(rng, 65540);
  const auto edge_q = random_protein(rng, 65529);
  expect_lanes_match_scalar({long_q, long_q.substr(65540 - 6),
                             edge_q, edge_q.substr(65529 - 6),
                             "MKVLAETGWT", "MKVLAETGWT"});
  // The lanes never run this pair, so no lane test compares it: every
  // field of the scalar result is pinned.
  const auto res = pa::smith_waterman(long_q, long_q.substr(65540 - 6),
                                      scoring());
  EXPECT_EQ(res.score, 34);
  EXPECT_EQ(res.beg_q, 65534u);
  EXPECT_EQ(res.end_q, 65540u);
  EXPECT_EQ(res.beg_r, 0u);
  EXPECT_EQ(res.end_r, 6u);
  EXPECT_EQ(res.matches, 6u);
  EXPECT_EQ(res.align_len, 6u);
  EXPECT_EQ(res.cells, 65540u * 6u);
}

TEST(Batch, BandedModeUsesSeeds) {
  const std::string a = "AAAAAAWWWWWWAAAAAA";
  const std::string b = "CCCCCCWWWWWWCCCCCC";
  pa::BatchAligner::Config cfg;
  cfg.kind = pa::AlignKind::kBanded;
  cfg.band_half_width = 4;
  const pa::BatchAligner aligner(scoring(), cfg);
  std::vector<pa::AlignTask> tasks = {{0, 1, 6, 6}};
  std::vector<std::string> seqs = {a, b};
  std::vector<pa::AlignResult> res(tasks.size());
  aligner.align_tasks(
      [&](std::uint32_t id) { return std::string_view(seqs[id]); }, tasks,
      cfg.kind, res, nullptr);
  EXPECT_EQ(res[0].score, 6 * 11);
}

TEST(BandedLanes, PartialGroupsAndMixedLengths) {
  pastis::util::Xoshiro256 rng(79);
  // Every group size 1-8 at several widths, diagonals anywhere.
  for (const int w : {1, 3, 16, 32}) {
    for (std::size_t pairs = 1; pairs <= pa::kLanePairs; ++pairs) {
      std::vector<BandPair> group;
      for (std::size_t k = 0; k < pairs; ++k) {
        BandPair p;
        p.q = random_protein(rng, 5 + rng.below(150));
        p.r = rng.chance(0.6) ? mutated(rng, p.q)
                              : random_protein(rng, 5 + rng.below(150));
        p.diag = rng.chance(0.5) ? static_cast<int>(rng.below(7)) - 3
                                 : any_diag(rng, p, w);
        group.push_back(p);
      }
      expect_banded_lanes_match_scalar(group, w);
    }
  }
  // Homolog pairs of lengths 5-400 near their seed diagonal, the shape the
  // cascade probes.
  std::vector<BandPair> pairs;
  for (int k = 0; k < 45; ++k) {
    BandPair p;
    p.q = random_protein(rng, 5 + rng.below(396));
    p.r = k % 4 == 0 ? random_protein(rng, 5 + rng.below(396))
                     : mutated(rng, p.q);
    p.diag = static_cast<int>(rng.below(41)) - 20;
    pairs.push_back(p);
  }
  expect_banded_lanes_match_scalar(pairs, 32);
}

TEST(BandedLanes, BandsOffAndClampedAtBothEnds) {
  pastis::util::Xoshiro256 rng(83);
  const auto q = random_protein(rng, 60);
  const auto r = mutated(rng, random_protein(rng, 20) + q);
  const int n = static_cast<int>(r.size());
  const int w = 8;
  // d < -w stops on row 1 (routed to the scalar kernel); d = -w grazes the
  // corner; d > |r| starts the band past the last column, so only d < |r|
  // + w has a first row with cells.
  std::vector<BandPair> pairs;
  for (const int d : {-w - 40, -w - 1, -w, -w + 1, 0, 20, n - 1, n, n + 1,
                      n + w - 1, n + w, n + w + 3}) {
    pairs.push_back({q, r, d});
  }
  expect_banded_lanes_match_scalar(pairs, w);
  // Bands wider than the matrix, clamped at both j = 1 and j = |r|, and a
  // tall query whose band leaves the matrix long before its last row.
  const auto tall = random_protein(rng, 240);
  expect_banded_lanes_match_scalar(
      {{q.substr(0, 30), r.substr(0, 18), 0},
       {q.substr(0, 30), r.substr(0, 18), 5},
       {q.substr(0, 30), r.substr(0, 18), -5},
       {q.substr(0, 12), r, 3},
       {tall, tall.substr(100, 50), -100},
       {tall, tall.substr(0, 50), 0}},
      40);
  // Groups mixing every case above with ordinary pairs, in shuffled lanes.
  std::vector<BandPair> mixed = pairs;
  for (int k = 0; k < 20; ++k) {
    BandPair p;
    p.q = random_protein(rng, 5 + rng.below(120));
    p.r = mutated(rng, p.q);
    p.diag = any_diag(rng, p, w);
    mixed.push_back(p);
  }
  for (std::size_t i = mixed.size(); i > 1; --i) {
    std::swap(mixed[i - 1], mixed[rng.below(i)]);
  }
  expect_banded_lanes_match_scalar(mixed, w);
}

TEST(BandedLanes, ZeroAndFullWidth) {
  pastis::util::Xoshiro256 rng(89);
  std::vector<BandPair> pairs;
  int widest = 0;
  for (int k = 0; k < 11; ++k) {
    BandPair p;
    p.q = random_protein(rng, 10 + rng.below(90));
    p.r = rng.chance(0.5) ? mutated(rng, p.q)
                          : random_protein(rng, 10 + rng.below(90));
    p.diag = static_cast<int>(rng.below(11)) - 5;
    widest = std::max(widest, static_cast<int>(p.q.size() + p.r.size()));
    pairs.push_back(p);
  }
  // w = 0: a single diagonal.
  expect_banded_lanes_match_scalar(pairs, 0);
  // w >= |q| + |r| covers every cell: equal to smith_waterman too.
  for (const int w : {widest, 1 << 30}) {
    expect_banded_lanes_match_scalar(pairs, w);
    std::vector<std::string_view> qs, rs;
    std::vector<int> diags;
    for (std::size_t k = 0; k < pa::kLanePairs; ++k) {
      qs.push_back(pairs[k].q);
      rs.push_back(pairs[k].r);
      diags.push_back(pairs[k].diag);
    }
    std::vector<pa::AlignResult> out(pa::kLanePairs);
    pa::banded_smith_waterman_lanes(qs, rs, scoring(), diags, w, out);
    for (std::size_t k = 0; k < pa::kLanePairs; ++k) {
      expect_same_result(out[k],
                         pa::smith_waterman(pairs[k].q, pairs[k].r, scoring()),
                         k);
    }
  }
}

TEST(BandedLanes, TieHeavyRepeatsAndZeroScores) {
  // Homopolymers and periodic repeats tie many cells, so the diag > up >
  // left > restart order and the strict row-major best decide every path
  // statistic; P/W and D/W pairs never score a positive cell.
  const std::string poly(120, 'A');
  std::string periodic, shifted;
  for (int k = 0; k < 40; ++k) periodic += "ACG";
  for (int k = 0; k < 33; ++k) shifted += "CGA";
  for (const int w : {0, 2, 5, 32}) {
    expect_banded_lanes_match_scalar(
        {{poly, poly, 0},
         {poly, std::string(50, 'A') + "WW" + std::string(70, 'A'), 2},
         {std::string(90, 'A'), poly, -3},
         {periodic, shifted, 1},
         {periodic, periodic.substr(0, 40) + "GGG" + periodic.substr(40), 0},
         {"ACACACACACACACACACAC", "CACACACACACA", -1},
         {"AAAAAAAAAAWWWAAAAAAAAAA", "AAAAAAAAAAAAAAAAAAAAA", 0},
         {poly.substr(0, 5), poly, 4},
         {"PPPPPPPP", "WWWWWWWWWWWW", 0},
         {"DDDD", "WWW", 1},
         {"W", "P", 0},
         {"PDPDPD", "WWWWW", -1}},
        w);
  }
  const auto res = pa::banded_smith_waterman("PPPPPPPP", "WWWWWWWWWWWW",
                                             scoring(), 0, 4);
  EXPECT_EQ(res.score, 0);
  EXPECT_EQ(res.align_len, 0u);
  EXPECT_GT(res.cells, 0u);
}

TEST(BandedLanes, LongPairTakesScalarPath) {
  // |q| + |r| >= 65536 overflows the 16-bit path counters: here the
  // optimum ends at reference position 65540. The pair beside it sits
  // exactly at the limit (|q| + |r| = 65535) and stays in the lane group.
  pastis::util::Xoshiro256 rng(97);
  const auto long_r = random_protein(rng, 65540);
  const auto edge_r = random_protein(rng, 65529);
  expect_banded_lanes_match_scalar(
      {{long_r.substr(65540 - 6), long_r, 65540 - 6},
       {edge_r.substr(65529 - 6), edge_r, 65529 - 6},
       {"MKVLAETGWT", "MKVLAETGWT", 0}},
      16);
  const auto res = pa::banded_smith_waterman(long_r.substr(65540 - 6), long_r,
                                             scoring(), 65540 - 6, 16);
  EXPECT_EQ(res.end_r, 65540u);
}

TEST(Batch, BandedTasksMatchAlignOneTaskAcrossPools) {
  pastis::util::Xoshiro256 rng(101);
  std::vector<std::string> seqs;
  for (int i = 0; i < 24; ++i) {
    seqs.push_back(i % 3 == 0 || seqs.empty()
                       ? random_protein(rng, 20 + rng.below(300))
                       : mutated(rng, seqs.back()));
  }
  // Seeds anywhere in either sequence, so some bands start left of the
  // matrix (the scalar row-1 stop) or past its last column.
  std::vector<pa::AlignTask> tasks;
  for (std::uint32_t i = 0; i < seqs.size(); ++i) {
    for (std::uint32_t j = 0; j < seqs.size(); j += 1 + (i + j) % 3) {
      tasks.push_back(
          {i, j,
           static_cast<std::uint32_t>(rng.below(seqs[i].size())),
           static_cast<std::uint32_t>(rng.below(seqs[j].size()))});
    }
  }
  for (std::size_t i = tasks.size(); i > 1; --i) {
    std::swap(tasks[i - 1], tasks[rng.below(i)]);
  }
  pa::BatchAligner::Config cfg;
  cfg.kind = pa::AlignKind::kBanded;
  cfg.band_half_width = 16;
  const pa::BatchAligner aligner(scoring(), cfg);
  auto seq_of = [&](std::uint32_t id) { return std::string_view(seqs[id]); };
  pastis::util::ThreadPool p1(1), p2(2), p8(8);
  for (pastis::util::ThreadPool* pool :
       std::array<pastis::util::ThreadPool*, 4>{nullptr, &p1, &p2, &p8}) {
    std::vector<pa::AlignResult> results(tasks.size());
    aligner.align_tasks(seq_of, tasks, pa::AlignKind::kBanded, results, pool);
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      expect_same_result(results[t], aligner.align_one_task(seq_of, tasks[t]),
                         t);
    }
  }
}
