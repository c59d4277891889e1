// Sensitivity-cascade tests: the tier-0 ungapped diagonal extension unit
// behaviour (empty seed lists, clamping at sequence edges, orientation
// parity), align_pair's kernel switch, the data-plane stages against
// a per-pair oracle (flattened tier-1 probes, probes reused as tier-2
// results), bit-identity of the disabled, exact-preset and fast+banded
// cascades across pool sizes, pipeline depths and serving grid sides, the
// fast preset's subset property, and the ResultCache's
// cascade-signature keying (warm-cache-then-retune must recompute, never
// replay).
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "align/cascade.hpp"
#include "core/pipeline.hpp"
#include "core/stages.hpp"
#include "gen/protein_gen.hpp"
#include "index/index_io.hpp"
#include "index/kmer_index.hpp"
#include "index/query_engine.hpp"
#include "serve/result_cache.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pa = pastis::align;
namespace pc = pastis::core;
namespace pg = pastis::gen;
namespace pidx = pastis::index;
namespace pio = pastis::io;
namespace ps = pastis::serve;

namespace {

pg::Dataset test_dataset(std::uint32_t n = 160, std::uint64_t seed = 77) {
  pg::GenConfig g;
  g.n_sequences = n;
  g.seed = seed;
  g.mean_length = 110.0;
  g.max_length = 400;
  return pg::generate_proteins(g);
}

std::vector<std::string> make_queries(const std::vector<std::string>& refs,
                                      std::uint32_t n = 30,
                                      std::uint64_t seed = 5) {
  static const std::string aas = "ARNDCQEGHILKMFPSTWYV";
  pastis::util::Xoshiro256 rng(seed);
  std::vector<std::string> queries;
  for (std::uint32_t q = 0; q < n; ++q) {
    if (rng.chance(0.7)) {
      std::string s = refs[rng.below(refs.size())];
      for (auto& c : s) {
        if (rng.chance(0.06)) c = aas[rng.below(aas.size())];
      }
      queries.push_back(std::move(s));
    } else {
      std::string s(80 + rng.below(120), 'A');
      for (auto& c : s) c = aas[rng.below(aas.size())];
      queries.push_back(std::move(s));
    }
  }
  return queries;
}

std::vector<std::vector<std::string>> split_batches(
    const std::vector<std::string>& queries, std::size_t nb) {
  std::vector<std::vector<std::string>> batches(nb);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    batches[i * nb / queries.size()].push_back(queries[i]);
  }
  return batches;
}

/// A query stream with many exact repeats, so the cache has hits to serve.
std::vector<std::string> repeat_stream(const std::vector<std::string>& base,
                                       std::size_t n, std::uint64_t seed) {
  pastis::util::Xoshiro256 rng(seed);
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(base[rng.below(base.size())]);
  }
  return out;
}

std::set<std::pair<std::uint32_t, std::uint32_t>> edge_set(
    const std::vector<pio::SimilarityEdge>& edges) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> s;
  for (const auto& e : edges) s.insert({e.seq_a, e.seq_b});
  return s;
}

/// Staged candidates over `seqs` for `p` ranks, the way the consumers stage
/// them: every pair sharing a 5-mer, seeded at the first shared one (and
/// at the last, when they differ), in the canonical orientation. Rank 0
/// owns every pair whose smaller id is divisible by 3, so the ranks are
/// skewed.
std::vector<std::vector<pc::ScreenCandidate>> stage_candidates(
    const std::vector<std::string>& seqs, int p) {
  constexpr std::size_t kK = 5;
  std::vector<std::vector<pc::ScreenCandidate>> cands(
      static_cast<std::size_t>(p));
  for (std::uint32_t a = 0; a < seqs.size(); ++a) {
    for (std::uint32_t b = a + 1; b < seqs.size(); ++b) {
      pc::ScreenCandidate c;
      c.task.q_id = a;
      c.task.r_id = b;
      const std::string& q = seqs[a];
      const std::string& r = seqs[b];
      for (std::size_t i = 0; i + kK <= q.size(); ++i) {
        const auto j = r.find(q.substr(i, kK));
        if (j == std::string::npos) continue;
        const pa::Seed seed{static_cast<std::uint32_t>(i),
                            static_cast<std::uint32_t>(j)};
        if (c.count++ == 0) {
          c.task.seed_q = seed.q;
          c.task.seed_r = seed.r;
          c.seeds[0] = seed;
          c.n_seeds = 1;
        } else {
          c.seeds[1] = seed;
          c.n_seeds = 2;
        }
      }
      if (c.count == 0) continue;
      const int rank = a % 3 == 0 ? 0 : static_cast<int>((a + b) % p);
      cands[static_cast<std::size_t>(rank)].push_back(c);
    }
  }
  return cands;
}

void expect_same_tier(const pa::TierStats& got, const pa::TierStats& want) {
  EXPECT_EQ(got.pairs_in, want.pairs_in);
  EXPECT_EQ(got.pairs_out, want.pairs_out);
  EXPECT_EQ(got.rejects, want.rejects);
  EXPECT_EQ(got.cells, want.cells);
}

}  // namespace

// ---- tier-0 ungapped diagonal extension units -------------------------------

TEST(UngappedExtend, EmptySeedListScoresNothing) {
  const pa::Scoring sc(pa::Scoring::Matrix::kBlosum62, 11, 2);
  const auto out =
      pa::ungapped_diag_extend("ARNDARND", "ARNDARND", {}, 6, sc, 25, 32);
  EXPECT_EQ(out.score, 0);
  EXPECT_EQ(out.cells, 0u);
  EXPECT_EQ(out.seeds_extended, 0);
}

TEST(UngappedExtend, SingleSeedScoresTheSharedDiagonal) {
  // Identical sequences, seed on the main diagonal: the extension sweeps
  // the whole diagonal and the score is the sum of the self-substitution
  // scores.
  const pa::Scoring sc(pa::Scoring::Matrix::kBlosum62, 11, 2);
  const std::string s = "ARNDCQEG";
  int expect = 0;
  for (const char c : s) expect += sc.score_chars(c, c);
  const pa::Seed seed{2, 2};
  const auto out = pa::ungapped_diag_extend(s, s, {&seed, 1}, 3, sc, 1000, 32);
  EXPECT_EQ(out.score, expect);
  EXPECT_EQ(out.seeds_extended, 1);
  EXPECT_GT(out.cells, 0u);
}

TEST(UngappedExtend, SeedsPastTheSequenceEdgesAreClampedOrSkipped) {
  const pa::Scoring sc(pa::Scoring::Matrix::kBlosum62, 11, 2);
  const std::string q = "ARNDCQ";
  const std::string r = "NDCQ";
  // Diagonal d = 2: valid query range is [2, 6). A seed before the range
  // start is pulled onto it instead of reading out of bounds.
  const pa::Seed clamped{0, 0};  // would be q=0 on diagonal... (q=0,r=0) d=0
  const auto ok =
      pa::ungapped_diag_extend(q, r, {&clamped, 1}, 6, sc, 1000, 32);
  EXPECT_GT(ok.cells, 0u);  // scored the overlap, no crash
  // A seed whose diagonal misses both sequences entirely is skipped.
  const pa::Seed off{0, 40};
  const auto skipped =
      pa::ungapped_diag_extend(q, r, {&off, 1}, 6, sc, 1000, 32);
  EXPECT_EQ(skipped.seeds_extended, 0);
  EXPECT_EQ(skipped.score, 0);
}

TEST(UngappedExtend, ReverseOrientationParity) {
  // Swapping the two sequences together with every seed's coordinates must
  // give the same score and the same scanned cells — the property that
  // makes the tier-0 screen invariant to which triangle a pair is aligned
  // from.
  static const std::string aas = "ARNDCQEGHILKMFPSTWYV";
  pastis::util::Xoshiro256 rng(17);
  const pa::Scoring sc(pa::Scoring::Matrix::kBlosum62, 11, 2);
  for (int trial = 0; trial < 50; ++trial) {
    std::string q(40 + rng.below(80), 'A');
    std::string r(40 + rng.below(80), 'A');
    for (auto& c : q) c = aas[rng.below(aas.size())];
    for (auto& c : r) c = aas[rng.below(aas.size())];
    pa::Seed fwd[2], rev[2];
    const int n = 1 + static_cast<int>(rng.below(2));
    for (int i = 0; i < n; ++i) {
      fwd[i] = {static_cast<std::uint32_t>(rng.below(q.size())),
                static_cast<std::uint32_t>(rng.below(r.size()))};
      rev[i] = {fwd[i].r, fwd[i].q};
    }
    const auto a = pa::ungapped_diag_extend(
        q, r, {fwd, static_cast<std::size_t>(n)}, 6, sc, 25, 32);
    const auto b = pa::ungapped_diag_extend(
        r, q, {rev, static_cast<std::size_t>(n)}, 6, sc, 25, 32);
    EXPECT_EQ(a.score, b.score) << "trial " << trial;
    EXPECT_EQ(a.cells, b.cells) << "trial " << trial;
    EXPECT_EQ(a.seeds_extended, b.seeds_extended) << "trial " << trial;
  }
}

TEST(Cascade, DisabledCascadeIsASingleBranch) {
  const pa::CascadeOptions off;
  EXPECT_FALSE(off.any());
  EXPECT_EQ(off.fingerprint(), 0u);
}

TEST(Cascade, FingerprintSeparatesPresets) {
  const auto exact = pa::CascadeOptions::exact();
  const auto fast = pa::CascadeOptions::fast();
  EXPECT_NE(exact.fingerprint(), 0u);
  EXPECT_NE(fast.fingerprint(), 0u);
  EXPECT_NE(exact.fingerprint(), fast.fingerprint());
  auto tweaked = fast;
  tweaked.tier1_min_score += 1;
  EXPECT_NE(tweaked.fingerprint(), fast.fingerprint());
}

// ---- align_pair's kernel switch ---------------------------------------------

TEST(Cascade, AlignPairKindOverrideMatchesConfiguredKind) {
  const auto data = test_dataset(24, 3);
  pastis::sim::MachineModel model;
  for (const auto kind : {pa::AlignKind::kFullSW, pa::AlignKind::kBanded,
                          pa::AlignKind::kXDrop}) {
    pc::PastisConfig cfg;
    cfg.align_kind = kind;
    const auto configured = pc::make_batch_aligner(cfg, model);
    pc::PastisConfig other;  // differently configured default kind
    const auto overriding = pc::make_batch_aligner(other, model);
    pa::AlignTask task;
    task.q_id = 0;
    task.r_id = 1;
    task.seed_q = 4;
    task.seed_r = 4;
    auto seq_of = [&](std::uint32_t id) -> std::string_view {
      return data.seqs[id];
    };
    for (std::uint32_t r = 1; r < 12; ++r) {
      task.r_id = r;
      const auto want = configured.align_one_task(seq_of, task);
      const auto got = overriding.align_pair(data.seqs[0], data.seqs[r],
                                             task, kind);
      EXPECT_EQ(want.score, got.score);
      EXPECT_EQ(want.cells, got.cells);
      EXPECT_EQ(want.matches, got.matches);
    }
  }
}

// ---- stage-level oracle ----------------------------------------------------

// screen_candidates + align_and_filter against a per-pair oracle: the tier
// keep rules, align_one_task and edge_if_similar one candidate at a time.
// The three configs cover tier-1 probes reused as tier-2 results (banded
// and x-drop) and lane-kernel probes followed by a full-SW tier 2.
TEST(CascadeStages, MatchPerPairOracleAcrossPools) {
  const auto seqs = test_dataset(90, 41).seqs;
  constexpr int kRanks = 4;
  const auto staged = stage_candidates(seqs, kRanks);
  auto seq_of = [&](std::uint32_t id) -> std::string_view { return seqs[id]; };
  const pastis::sim::MachineModel model;

  struct Config {
    const char* name;
    pa::CascadeOptions cascade;
    pa::AlignKind kind;
  };
  for (const Config& config :
       {Config{"fast+banded", pa::CascadeOptions::fast(),
               pa::AlignKind::kBanded},
        Config{"fast+fullsw", pa::CascadeOptions::fast(),
               pa::AlignKind::kFullSW},
        Config{"exact+xdrop", pa::CascadeOptions::exact(),
               pa::AlignKind::kXDrop}}) {
    SCOPED_TRACE(config.name);
    pc::PastisConfig cfg;
    cfg.align_kind = config.kind;
    cfg.cascade = config.cascade;
    const auto aligner = pc::make_batch_aligner(cfg, model);

    // The oracle, one candidate at a time in rank and candidate order.
    std::vector<pa::CascadeStats> want_cascade(kRanks);
    std::vector<std::vector<pio::SimilarityEdge>> want_edges(kRanks);
    std::vector<pa::BatchStats> want_align(kRanks);
    std::vector<pa::AlignResult> want_results;
    for (std::size_t ri = 0; ri < kRanks; ++ri) {
      for (const auto& c : staged[ri]) {
        const std::string_view q = seq_of(c.task.q_id);
        const std::string_view r = seq_of(c.task.r_id);
        if (!pa::tier0_keep(q, r,
                            std::span<const pa::Seed>(
                                c.seeds, static_cast<std::size_t>(c.n_seeds)),
                            c.count, c.sketch_overlap, aligner, cfg.cascade,
                            want_cascade[ri].tier0) ||
            !pa::tier1_keep(q, r, c.task, aligner, cfg.cascade,
                            want_cascade[ri].tier1)) {
          continue;
        }
        const auto res = aligner.align_one_task(seq_of, c.task);
        want_results.push_back(res);
        ++want_align[ri].pairs;
        want_align[ri].cells += res.cells;
        if (auto e = pc::edge_if_similar(c.task, res, q.size(), r.size(), cfg)) {
          want_edges[ri].push_back(*e);
        }
      }
    }
    ASSERT_GT(want_cascade[0].tier1.pairs_out, 0u);
    if (config.kind != pa::AlignKind::kXDrop) {
      ASSERT_GT(want_cascade[0].tier1.rejects + want_cascade[1].tier1.rejects,
                0u);
    }

    pastis::util::ThreadPool p1(1), p2(2), p8(8);
    for (pastis::util::ThreadPool* pool :
         std::array<pastis::util::ThreadPool*, 4>{nullptr, &p1, &p2, &p8}) {
      SCOPED_TRACE(pool == nullptr ? 0 : pool->size());
      pc::RankWork work;
      work.reset(kRanks);
      work.cands = staged;
      pc::screen_candidates(work, seq_of, aligner, cfg, pool);
      pc::align_and_filter(work, seq_of, aligner, cfg, pool);
      ASSERT_EQ(work.results.size(), want_results.size());
      for (std::size_t t = 0; t < want_results.size(); ++t) {
        const auto& got = work.results[t];
        const auto& want = want_results[t];
        EXPECT_EQ(std::tie(got.score, got.beg_q, got.end_q, got.beg_r,
                           got.end_r, got.matches, got.align_len, got.cells),
                  std::tie(want.score, want.beg_q, want.end_q, want.beg_r,
                           want.end_r, want.matches, want.align_len,
                           want.cells))
            << "task " << t;
      }
      for (std::size_t ri = 0; ri < kRanks; ++ri) {
        EXPECT_EQ(work.edges[ri], want_edges[ri]) << "rank " << ri;
        expect_same_tier(work.cascade[ri].tier0, want_cascade[ri].tier0);
        expect_same_tier(work.cascade[ri].tier1, want_cascade[ri].tier1);
        EXPECT_EQ(work.align[ri].pairs, want_align[ri].pairs);
        EXPECT_EQ(work.align[ri].cells, want_align[ri].cells);
      }
    }
  }
}

// ---- pipeline bit-identity sweeps ------------------------------------------

TEST(Cascade, ExactPresetIsBitIdenticalAcrossPoolsAndDepths) {
  const auto data = test_dataset();
  pc::PastisConfig base;
  pc::SimilaritySearch baseline(base, pastis::sim::MachineModel{}, 4);
  const auto want = baseline.run(data.seqs);
  ASSERT_GT(want.edges.size(), 10u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    pastis::util::ThreadPool pool(threads);
    for (const int depth : {1, 2, 3}) {
      pc::PastisConfig cfg;
      cfg.cascade = pa::CascadeOptions::exact();
      cfg.pipeline_depth = depth;
      pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 4, &pool);
      const auto got = search.run(data.seqs);
      EXPECT_EQ(got.edges, want.edges)
          << "threads=" << threads << " depth=" << depth;
      // The exact preset runs both screens but rejects nothing.
      EXPECT_GT(got.stats.cascade.tier0.pairs_in, 0u);
      EXPECT_EQ(got.stats.cascade.tier0.rejects, 0u);
      EXPECT_EQ(got.stats.cascade.tier0.pairs_in,
                got.stats.cascade.tier0.pairs_out);
      EXPECT_EQ(got.stats.cascade.tier1.rejects, 0u);
      EXPECT_GT(got.stats.cascade.screen_cells(), 0u);
    }
  }
}

TEST(Cascade, FastPresetEdgesAreASubsetWithLessAlignmentWork) {
  const auto data = test_dataset();
  pc::PastisConfig base;
  pc::SimilaritySearch baseline(base, pastis::sim::MachineModel{}, 4);
  const auto want = baseline.run(data.seqs);

  pc::PastisConfig cfg;
  cfg.cascade = pa::CascadeOptions::fast();
  pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 4);
  const auto got = search.run(data.seqs);

  // The cascade only removes candidate pairs before alignment; survivors
  // align identically, so fast edges are a subset of the exact edges.
  const auto want_set = edge_set(want.edges);
  for (const auto& e : got.edges) {
    EXPECT_TRUE(want_set.count({e.seq_a, e.seq_b}) > 0)
        << "fast produced an edge the exact path lacks: " << e.seq_a << ","
        << e.seq_b;
  }
  EXPECT_LE(got.stats.aligned_pairs, want.stats.aligned_pairs);
  EXPECT_LT(got.stats.align_cells, want.stats.align_cells);
  EXPECT_GT(got.stats.cascade.tier0.rejects +
                got.stats.cascade.tier1.rejects,
            0u);
}

// ---- serving bit-identity sweeps -------------------------------------------

TEST(Cascade, ServingExactPresetBitIdenticalAcrossGridSides) {
  const auto refs = test_dataset(100, 21).seqs;
  pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 4);
  const auto queries = make_queries(refs);
  const auto batches = split_batches(queries, 4);

  pidx::QueryEngine oracle(idx, cfg, pastis::sim::MachineModel{}, {});
  const auto want = oracle.serve(batches);
  ASSERT_GT(want.hits.size(), 0u);

  for (const int side : {1, 2, 3}) {
    pc::PastisConfig ccfg;
    ccfg.cascade = pa::CascadeOptions::exact();
    pidx::QueryEngine::Options opt;
    opt.grid_side = side;
    pidx::QueryEngine engine(idx, ccfg, pastis::sim::MachineModel{}, opt);
    const auto got = engine.serve(batches);
    EXPECT_EQ(got.hits, want.hits) << "grid_side=" << side;
    EXPECT_GT(got.stats.cascade.tier0.pairs_in, 0u);
    EXPECT_EQ(got.stats.cascade.tier0.rejects, 0u);
    EXPECT_GT(got.stats.batches.at(0).t_screen, 0.0);
  }
}

TEST(Cascade, ServingFastBandedIsBitIdenticalAcrossPoolsDepthsAndGrids) {
  // The serve_cascade config: banded tier 2 behind fast(), so every
  // survivor's tier-1 probe is its alignment.
  const auto refs = test_dataset(100, 21).seqs;
  pc::PastisConfig cfg;
  cfg.align_kind = pa::AlignKind::kBanded;
  cfg.cascade = pa::CascadeOptions::fast();
  const auto idx = pidx::KmerIndex::build(refs, cfg, 4);
  const auto batches = split_batches(make_queries(refs), 4);

  pidx::QueryEngine::Options serial;
  serial.pipeline_depth = 1;
  pidx::QueryEngine oracle(idx, cfg, pastis::sim::MachineModel{}, serial,
                           nullptr);
  const auto want = oracle.serve(batches);
  ASSERT_GT(want.hits.size(), 0u);
  ASSERT_GT(want.stats.cascade.tier1.rejects, 0u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    pastis::util::ThreadPool pool(threads);
    for (const int depth : {1, 2, 3}) {
      for (const int side : {1, 2, 3}) {
        pidx::QueryEngine::Options opt;
        opt.pipeline_depth = depth;
        opt.grid_side = side;
        pidx::QueryEngine engine(idx, cfg, pastis::sim::MachineModel{}, opt,
                                 &pool);
        const auto got = engine.serve(batches);
        SCOPED_TRACE("threads=" + std::to_string(threads) + " depth=" +
                     std::to_string(depth) + " side=" + std::to_string(side));
        EXPECT_EQ(got.hits, want.hits);
        expect_same_tier(got.stats.cascade.tier0, want.stats.cascade.tier0);
        expect_same_tier(got.stats.cascade.tier1, want.stats.cascade.tier1);
        EXPECT_EQ(got.stats.aligned_pairs, want.stats.aligned_pairs);
      }
    }
  }
}

TEST(Cascade, ServingSketchScreenKeepsNearIdenticalQueries) {
  const auto refs = test_dataset(80, 33).seqs;
  pc::PastisConfig cfg;
  auto idx = pidx::KmerIndex::build(refs, cfg, 4);
  idx.build_sketches(16);

  // Exact-copy queries share every k-mer with their source reference, so
  // they survive any sketch-agreement threshold up to the sketch length.
  pc::PastisConfig ccfg;
  ccfg.cascade = pa::CascadeOptions::exact();
  ccfg.cascade.tier0_min_sketch_overlap = 8;
  pidx::QueryEngine engine(idx, ccfg, pastis::sim::MachineModel{}, {});
  const std::vector<std::string> queries = {refs[3], refs[11]};
  const auto hits = engine.serve({queries}).hits;
  std::set<std::uint32_t> matched;
  for (const auto& e : hits) matched.insert(e.seq_a);
  EXPECT_TRUE(matched.count(3) > 0);
  EXPECT_TRUE(matched.count(11) > 0);
}

// ---- index v4 sketch persistence -------------------------------------------

TEST(Cascade, SketchTableRoundTripsThroughIndexV4) {
  const auto refs = test_dataset(40, 9).seqs;
  pc::PastisConfig cfg;
  auto idx = pidx::KmerIndex::build(refs, cfg, 3);
  idx.build_sketches(8);
  ASSERT_EQ(idx.sketch_len(), 8);
  ASSERT_EQ(idx.sketches().size(), refs.size() * 8u);

  const auto path = std::string("/tmp/pastis_cascade_v4.pidx");
  pidx::save_index(path, idx);
  const auto loaded = pidx::load_index(path);
  EXPECT_TRUE(loaded == idx);
  EXPECT_EQ(loaded.sketch_len(), 8);
  EXPECT_EQ(loaded.sketches(), idx.sketches());
  std::remove(path.c_str());

  // Sketch determinism + overlap symmetry.
  const pastis::kmer::Alphabet alphabet(cfg.alphabet);
  const pastis::kmer::KmerCodec codec(alphabet.size(), cfg.k);
  const auto a = pidx::KmerIndex::sketch_of(refs[0], alphabet, codec, 8);
  const auto b = pidx::KmerIndex::sketch_of(refs[0], alphabet, codec, 8);
  EXPECT_EQ(a, b);
  EXPECT_EQ(pidx::KmerIndex::sketch_overlap(a.data(), b.data(), 8), 8);
}

// ---- result-cache cascade signature (satellite fix) ------------------------

TEST(Cascade, CacheSignatureSeparatesPresets) {
  ps::ResultCache cache({});
  const std::string q = "ARNDCQEGHILKMFPSTWYV";
  std::vector<pio::SimilarityEdge> hits(1);
  hits[0] = {1, 2, 0.9f, 0.9f, 50};
  const auto sig_a = pa::CascadeOptions::exact().fingerprint();
  const auto sig_b = pa::CascadeOptions::fast().fingerprint();

  cache.insert(q, /*epoch=*/1, /*parity=*/0, /*ordinal=*/0, hits, sig_a);
  std::vector<pio::SimilarityEdge> out;
  EXPECT_TRUE(cache.lookup(q, 1, 0, 5, 1, out, sig_a));
  EXPECT_EQ(out, hits);
  EXPECT_FALSE(cache.lookup(q, 1, 0, 5, 1, out, sig_b));
  EXPECT_FALSE(cache.lookup(q, 1, 0, 5, 1, out, 0));  // cascade-off key
}

TEST(Cascade, WarmCacheThenRetuneRecomputesInsteadOfReplaying) {
  const auto refs = test_dataset(80, 41).seqs;
  pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 4);
  // A repeat-heavy stream: the cache's visibility window only ever admits
  // intra-stream repeats, so every hit below is served from entries the
  // same engine configuration inserted.
  const auto base_queries = make_queries(refs, 12, 7);
  const auto stream = repeat_stream(base_queries, 48, 11);
  const auto batches = split_batches(stream, 6);

  ps::ResultCache cache({});
  pidx::QueryEngine::Options opt;
  opt.result_cache = &cache;

  // Warm the cache under the cascade-off configuration (signature 0).
  pidx::QueryEngine warm(idx, cfg, pastis::sim::MachineModel{}, opt);
  const auto warmed = warm.serve(batches);
  ASSERT_GT(warmed.stats.cache_hits, 0u);  // the cache IS active and hot

  // Retune: the SAME cache now serves a fast-cascade engine. Entries from
  // the cascade-off run carry signature 0 and must never replay into the
  // retuned stream — its output must be bit-identical to a cacheless
  // engine under the same preset. (The retuned engine still hits its OWN
  // insertions on repeats; those carry the fast fingerprint and are
  // correct by construction.)
  pc::PastisConfig fast_cfg;
  fast_cfg.cascade = pa::CascadeOptions::fast();
  pidx::QueryEngine cold(idx, fast_cfg, pastis::sim::MachineModel{}, {});
  const auto want = cold.serve(batches);

  pidx::QueryEngine retuned(idx, fast_cfg, pastis::sim::MachineModel{}, opt);
  const auto got = retuned.serve(batches);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_GT(got.stats.cache_hits, 0u);
}
