// Index subsystem tests: persistence round-trips bit-identically, the
// serving engine reproduces the concatenated many-against-many search
// exactly (cross edges), and results are invariant to shard and process
// counts — the acceptance bar of the serving layer.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>

#include "core/pipeline.hpp"
#include "exec/timeline.hpp"
#include "gen/protein_gen.hpp"
#include "index/index_io.hpp"
#include "index/kmer_index.hpp"
#include "index/placement.hpp"
#include "index/query_engine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pc = pastis::core;
namespace pg = pastis::gen;
namespace pidx = pastis::index;
namespace pio = pastis::io;

namespace {

std::vector<std::string> make_refs(std::uint32_t n = 150,
                                   std::uint64_t seed = 91) {
  pg::GenConfig g;
  g.n_sequences = n;
  g.seed = seed;
  g.mean_length = 120.0;
  g.max_length = 500;
  return pg::generate_proteins(g).seqs;
}

/// Queries related to the references (diverged copies) plus decoys, so the
/// cross edge set is non-trivial.
std::vector<std::string> make_queries(const std::vector<std::string>& refs,
                                      std::uint32_t n = 60,
                                      std::uint64_t seed = 123) {
  static const std::string aas = "ARNDCQEGHILKMFPSTWYV";
  pastis::util::Xoshiro256 rng(seed);
  std::vector<std::string> queries;
  for (std::uint32_t q = 0; q < n; ++q) {
    if (rng.chance(0.75)) {
      std::string s = refs[rng.below(refs.size())];
      for (auto& c : s) {
        if (rng.chance(0.08)) c = aas[rng.below(aas.size())];
      }
      queries.push_back(std::move(s));
    } else {
      std::string s(100 + rng.below(150), 'A');
      for (auto& c : s) c = aas[rng.below(aas.size())];
      queries.push_back(std::move(s));
    }
  }
  return queries;
}

/// The reference<->query edges of a concatenated [refs || queries] run.
std::vector<pio::SimilarityEdge> cross_edges(
    const std::vector<pio::SimilarityEdge>& edges, std::uint32_t n_ref) {
  std::vector<pio::SimilarityEdge> out;
  for (const auto& e : edges) {
    if (e.seq_a < n_ref && e.seq_b >= n_ref) out.push_back(e);
  }
  return out;
}

std::vector<pio::SimilarityEdge> concatenated_cross(
    const std::vector<std::string>& refs,
    const std::vector<std::string>& queries, const pc::PastisConfig& cfg,
    int nprocs) {
  std::vector<std::string> seqs = refs;
  seqs.insert(seqs.end(), queries.begin(), queries.end());
  pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, nprocs);
  return cross_edges(search.run(seqs).edges,
                     static_cast<std::uint32_t>(refs.size()));
}

/// Splits queries into `nb` consecutive batches.
std::vector<std::vector<std::string>> split_batches(
    const std::vector<std::string>& queries, std::size_t nb) {
  std::vector<std::vector<std::string>> batches(nb);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    batches[i * nb / queries.size()].push_back(queries[i]);
  }
  return batches;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace

TEST(KmerIndex, ShardsTileTheKmerSpaceAndKeepAllPostings) {
  const auto refs = make_refs();
  pc::PastisConfig cfg;
  for (int shards : {1, 3, 8}) {
    const auto idx = pidx::KmerIndex::build(refs, cfg, shards);
    EXPECT_EQ(idx.n_shards(), shards);
    EXPECT_EQ(idx.shard_begin(0), 0u);
    EXPECT_EQ(idx.shard_begin(shards), idx.kmer_space());
    std::uint64_t nnz = 0;
    for (int s = 0; s < shards; ++s) {
      EXPECT_EQ(idx.shard(s).nrows(),
                idx.shard_begin(s + 1) - idx.shard_begin(s));
      EXPECT_EQ(idx.shard(s).ncols(), idx.n_refs());
      nnz += idx.shard(s).nnz();
    }
    EXPECT_EQ(nnz, idx.nnz());
    EXPECT_GT(nnz, 0u);
    // The posting count is shard-invariant (same matrix, different cuts).
    EXPECT_EQ(nnz, pidx::KmerIndex::build(refs, cfg, 1).nnz());
  }
}

TEST(IndexIo, SaveLoadRoundTripIsBitIdentical) {
  const auto refs = make_refs(100, 5);
  pc::PastisConfig cfg;
  cfg.subs_kmers = 1;  // exercise the substitute-k-mer postings too
  const auto idx = pidx::KmerIndex::build(refs, cfg, 4);

  const auto path = temp_path("pastis_index_roundtrip.pidx");
  pidx::save_index(path, idx);
  const auto loaded = pidx::load_index(path);
  EXPECT_TRUE(loaded == idx);

  // Re-saving the loaded index reproduces the file byte-for-byte.
  const auto path2 = temp_path("pastis_index_roundtrip2.pidx");
  pidx::save_index(path2, loaded);
  std::ifstream f1(path, std::ios::binary), f2(path2, std::ios::binary);
  const std::string b1((std::istreambuf_iterator<char>(f1)),
                       std::istreambuf_iterator<char>());
  const std::string b2((std::istreambuf_iterator<char>(f2)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(b1, b2);
  EXPECT_FALSE(b1.empty());

  std::filesystem::remove(path);
  std::filesystem::remove(path2);
}

TEST(IndexIo, MemoryBudgetIsEnforcedFromTheHeader) {
  const auto refs = make_refs(80, 7);
  const auto idx = pidx::KmerIndex::build(refs, pc::PastisConfig{}, 2);
  const auto path = temp_path("pastis_index_budget.pidx");
  pidx::save_index(path, idx);

  const auto need = pidx::peek_index_bytes(path);
  EXPECT_GT(need, 0u);
  EXPECT_THROW((void)pidx::load_index(path, need / 2), std::runtime_error);
  EXPECT_NO_THROW((void)pidx::load_index(path, need));
  EXPECT_NO_THROW((void)pidx::load_index(path, 0));  // 0 = unbudgeted

  std::filesystem::remove(path);
}

TEST(IndexIo, RejectsCorruptAndTruncatedFiles) {
  const auto refs = make_refs(40, 9);
  const auto idx = pidx::KmerIndex::build(refs, pc::PastisConfig{}, 2);
  const auto path = temp_path("pastis_index_corrupt.pidx");
  pidx::save_index(path, idx);

  // Truncation (footer missing).
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 16);
  EXPECT_THROW((void)pidx::load_index(path), std::runtime_error);

  // Bit-flipped header count: must throw std::runtime_error, not attempt
  // an absurd allocation (n_refs is the u64 after magic+version+params =
  // byte offset 40).
  pidx::save_index(path, idx);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);
    const std::uint64_t absurd = 1ull << 60;
    f.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  }
  EXPECT_THROW((void)pidx::load_index(path), std::runtime_error);

  // Bit-flipped param field (alphabet i32 at offset magic+version+k = 16):
  // still the documented std::runtime_error, not a leaked invalid_argument.
  pidx::save_index(path, idx);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(16);
    const std::int32_t bogus = 99;
    f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  }
  EXPECT_THROW((void)pidx::load_index(path), std::runtime_error);

  // Bad magic.
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "not an index";
  }
  EXPECT_THROW((void)pidx::load_index(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(IndexIo, RejectsCorruptPostings) {
  // Postings are (row u32, col u32, pos u32) records after each shard's
  // nnz u64. Corrupt shard 0's first records in place: every case must
  // throw std::runtime_error naming the shard, and a reordering (which
  // changes no posting) must still load an equal index.
  const auto refs = make_refs(60, 17);
  const pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 2);
  ASSERT_GE(idx.shard(0).nnz(), 2u);
  const auto path = temp_path("pastis_index_postings.pidx");
  pidx::save_index(path, idx);
  std::string clean;
  {
    std::ifstream f(path, std::ios::binary);
    clean.assign((std::istreambuf_iterator<char>(f)),
                 std::istreambuf_iterator<char>());
  }
  // Header to the manifest (see V3LoaderKeepsReadingV2Files), n_segments
  // and sketch_len u32s, ref lengths, residues, then shard 0's nnz.
  std::size_t at = 76 + 8 * static_cast<std::size_t>(idx.n_shards()) + 8 +
                   4 * refs.size();
  for (const auto& r : refs) at += r.size();
  std::uint64_t nnz0 = 0;
  std::memcpy(&nnz0, clean.data() + at, sizeof(nnz0));
  ASSERT_EQ(nnz0, idx.shard(0).nnz());
  const std::size_t postings = at + sizeof(nnz0);

  // Edits shard 0's first two postings, then loads the file.
  using Posting = std::array<std::uint32_t, 3>;
  using Edit = std::function<void(Posting&, Posting&)>;
  const auto load_with = [&](const Edit& f) {
    std::string bytes = clean;
    Posting p0, p1;
    std::memcpy(p0.data(), bytes.data() + postings, sizeof(p0));
    std::memcpy(p1.data(), bytes.data() + postings + sizeof(p0), sizeof(p1));
    f(p0, p1);
    std::memcpy(bytes.data() + postings, p0.data(), sizeof(p0));
    std::memcpy(bytes.data() + postings + sizeof(p0), p1.data(), sizeof(p1));
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    return pidx::load_index(path);
  };
  const auto expect_rejected = [&](const char* what, const Edit& f) {
    try {
      (void)load_with(f);
      ADD_FAILURE() << what << ": loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("shard 0"), std::string::npos)
          << what << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": not a std::runtime_error: " << e.what();
    }
  };

  const auto shard0_rows = idx.shard_begin(1) - idx.shard_begin(0);
  expect_rejected("row outside the shard",
                  [&](Posting& p, Posting&) { p[0] = shard0_rows; });
  expect_rejected("reference column outside the index",
                  [&](Posting& p, Posting&) {
                    p[1] = static_cast<std::uint32_t>(refs.size());
                  });
  expect_rejected("duplicated posting", [](Posting& p, Posting& q) { q = p; });
  expect_rejected("position past the reference's last k-mer",
                  [&](Posting& p, Posting&) {
                    p[2] = static_cast<std::uint32_t>(refs[p[1]].size() -
                                                      cfg.k + 1);
                  });

  const auto swapped =
      load_with([](Posting& p, Posting& q) { std::swap(p, q); });
  EXPECT_TRUE(swapped == idx);
  std::filesystem::remove(path);
}

TEST(IndexIo, V3LoaderKeepsReadingV2Files) {
  // Version compatibility: a v2 file is a current-version file minus the
  // 4-byte segment manifest count (v3) and the 4-byte sketch_len (v4),
  // with version 2 in the header. Manufacture one by byte surgery on a
  // fresh save (v4 with an empty manifest and no sketches) and check the
  // loader reads it bit-identically, with zero delta segments.
  const auto refs = make_refs(60, 13);
  const auto idx = pidx::KmerIndex::build(refs, pc::PastisConfig{}, 3);
  const auto path = temp_path("pastis_index_v2compat.pidx");
  pidx::save_index(path, idx);

  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(f)),
                 std::istreambuf_iterator<char>());
  }
  // Header: magic 8B, version u32 @8, params i32x7 @12, n_refs u64 @40,
  // ref_residues u64 @48, n_shards u32 @56, kmer_space u64 @60,
  // total_nnz u64 @68, per-shard nnz u64 x n_shards @76 — the v3
  // n_segments u32 sits right after the placement section.
  const std::uint32_t v2 = 2;
  bytes.replace(8, sizeof(v2), reinterpret_cast<const char*>(&v2),
                sizeof(v2));
  const std::size_t manifest_at =
      76 + 8 * static_cast<std::size_t>(idx.n_shards());
  std::uint32_t n_segments = 0;
  std::memcpy(&n_segments, bytes.data() + manifest_at, sizeof(n_segments));
  ASSERT_EQ(n_segments, 0u);  // fresh saves carry an empty manifest
  std::uint32_t sketch_len = ~0u;
  std::memcpy(&sketch_len, bytes.data() + manifest_at + sizeof(std::uint32_t),
              sizeof(sketch_len));
  ASSERT_EQ(sketch_len, 0u);  // no sketch table was built
  bytes.erase(manifest_at, 2 * sizeof(std::uint32_t));
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const auto loaded = pidx::load_index(path);
  EXPECT_TRUE(loaded == idx);
  const auto parts = pidx::load_index_parts(path);
  EXPECT_TRUE(parts.base == idx);
  EXPECT_TRUE(parts.segments.empty());
  std::filesystem::remove(path);
}

TEST(IndexIo, SegmentManifestRoundTripsAndPlainLoadRefusesIt) {
  // v3 proper: base + LSM delta segments persist together and come back
  // exactly; the segment-blind load_index must refuse the file rather
  // than silently drop the deltas (a truncated reference set).
  pc::PastisConfig cfg;
  const auto base = pidx::KmerIndex::build(make_refs(60, 15), cfg, 3);
  std::vector<pidx::KmerIndex> segments;
  segments.push_back(pidx::KmerIndex::build(make_refs(25, 16), cfg, 3));
  segments.push_back(pidx::KmerIndex::build(make_refs(10, 17), cfg, 3));

  const auto path = temp_path("pastis_index_segments.pidx");
  pidx::save_index(path, base, segments);

  const auto parts = pidx::load_index_parts(path);
  EXPECT_TRUE(parts.base == base);
  ASSERT_EQ(parts.segments.size(), segments.size());
  for (std::size_t g = 0; g < segments.size(); ++g) {
    EXPECT_TRUE(parts.segments[g] == segments[g]);
  }
  EXPECT_THROW((void)pidx::load_index(path), std::runtime_error);

  // The per-rank pre-flight folds segment postings into the shard loads.
  const auto folded = pidx::peek_rank_resident_bytes(path, 1);
  pidx::save_index(path, base);
  const auto base_only = pidx::peek_rank_resident_bytes(path, 1);
  ASSERT_EQ(folded.size(), 1u);
  EXPECT_GT(folded[0], base_only[0]);
  std::filesystem::remove(path);
}

TEST(QueryEngine, NullPoolRunsSeriallyWithIdenticalHits) {
  const auto refs = make_refs(80, 85);
  const auto queries = make_queries(refs, 20, 87);
  pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 3);
  pidx::QueryEngine pooled(idx, cfg, {}, {});
  pidx::QueryEngine serial(idx, cfg, {}, {}, nullptr);
  EXPECT_EQ(pooled.serve({queries}).hits, serial.serve({queries}).hits);
}

TEST(QueryEngine, RejectsMismatchedDiscoveryConfig) {
  const auto refs = make_refs(40, 11);
  pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 2);
  pc::PastisConfig other = cfg;
  other.k = 5;
  EXPECT_THROW(pidx::QueryEngine(idx, other, {}, {}), std::invalid_argument);
  EXPECT_NO_THROW(pidx::QueryEngine(idx, cfg, {}, {}));
}

TEST(QueryEngine, RejectsBadServingGeometry) {
  const auto refs = make_refs(40, 11);
  pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 2);
  for (const int side : {0, 2}) {
    pidx::QueryEngine::Options opt;
    opt.grid_side = side;
    EXPECT_NO_THROW(pidx::QueryEngine(idx, cfg, {}, opt));
    pidx::QueryEngine::Options bad = opt;
    bad.nprocs = 0;
    EXPECT_THROW(pidx::QueryEngine(idx, cfg, {}, bad), std::invalid_argument);
    bad = opt;
    bad.replication = 0;
    EXPECT_THROW(pidx::QueryEngine(idx, cfg, {}, bad), std::invalid_argument);
  }
  pidx::QueryEngine::Options negative_grid;
  negative_grid.grid_side = -1;
  EXPECT_THROW(pidx::QueryEngine(idx, cfg, {}, negative_grid),
               std::invalid_argument);
}

TEST(QueryEngine, MatchesConcatenatedSearchAcrossShardAndProcessCounts) {
  // The acceptance bar: engine hits for [references || queries] are
  // bit-identical to SimilaritySearch::run on the concatenation
  // (cross-boundary edges only), for >= 2 shard counts and >= 2 process
  // counts — on both sides.
  const auto refs = make_refs();
  const auto queries = make_queries(refs);
  pc::PastisConfig cfg;

  const auto expected = concatenated_cross(refs, queries, cfg, 1);
  ASSERT_GT(expected.size(), 10u);
  EXPECT_EQ(expected, concatenated_cross(refs, queries, cfg, 4));

  for (int shards : {1, 6}) {
    const auto idx = pidx::KmerIndex::build(refs, cfg, shards);
    for (int nprocs : {1, 5}) {
      pidx::QueryEngine::Options opt;
      opt.nprocs = nprocs;
      pidx::QueryEngine engine(idx, cfg, {}, opt);
      const auto result = engine.serve(split_batches(queries, 3));
      EXPECT_EQ(result.hits, expected)
          << "shards=" << shards << " nprocs=" << nprocs;
      EXPECT_EQ(result.stats.hits, expected.size());
      EXPECT_EQ(result.stats.total_queries, queries.size());
    }
  }
}

TEST(QueryEngine, SeededAlignmentAndSchemesStayBitIdentical) {
  // Banded alignment consumes the seed pair, whose orientation depends on
  // which overlap-matrix triangle the pipeline's scheme aligns from — the
  // subtlest part of the equivalence. Exercise both schemes and substitute
  // k-mers.
  const auto refs = make_refs(120, 33);
  const auto queries = make_queries(refs, 50, 57);

  pc::PastisConfig cfg;
  cfg.align_kind = pastis::align::AlignKind::kBanded;
  cfg.subs_kmers = 1;
  for (auto scheme : {pc::LoadBalanceScheme::kIndexBased,
                      pc::LoadBalanceScheme::kTriangularity}) {
    cfg.load_balance = scheme;
    const auto expected = concatenated_cross(refs, queries, cfg, 4);
    ASSERT_GT(expected.size(), 5u);
    const auto idx = pidx::KmerIndex::build(refs, cfg, 4);
    pidx::QueryEngine engine(idx, cfg, {}, {});
    const auto result = engine.serve(split_batches(queries, 2));
    EXPECT_EQ(result.hits, expected) << pc::to_string(scheme);
  }
}

TEST(QueryEngine, BatchSplitIsInvisible) {
  const auto refs = make_refs(100, 41);
  const auto queries = make_queries(refs, 40, 43);
  pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 3);

  pidx::QueryEngine one(idx, cfg, {}, {});
  const auto as_one = one.serve({queries});
  pidx::QueryEngine many(idx, cfg, {}, {});
  const auto as_many = many.serve(split_batches(queries, 5));
  EXPECT_EQ(as_one.hits, as_many.hits);
}

TEST(QueryEngine, ServedIndexSurvivesPersistence) {
  const auto refs = make_refs(100, 51);
  const auto queries = make_queries(refs, 30, 53);
  pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 5);

  const auto path = temp_path("pastis_index_served.pidx");
  pidx::save_index(path, idx);
  const auto loaded = pidx::load_index(path);
  std::filesystem::remove(path);

  pidx::QueryEngine fresh(idx, cfg, {}, {});
  pidx::QueryEngine revived(loaded, cfg, {}, {});
  EXPECT_EQ(fresh.serve({queries}).hits, revived.serve({queries}).hits);
}

TEST(QueryEngine, TopKKeepsBestHitsPerQuery) {
  const auto refs = make_refs(150, 61);
  const auto queries = make_queries(refs, 40, 63);
  pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 2);

  pidx::QueryEngine all(idx, cfg, {}, {});
  const auto full = all.serve({queries});

  pidx::QueryEngine::Options opt;
  opt.top_k = 1;
  pidx::QueryEngine best(idx, cfg, {}, opt);
  const auto top1 = best.serve({queries});

  // At most one hit per query, each the max-score hit of that query.
  std::map<std::uint32_t, int> best_score;
  std::map<std::uint32_t, std::size_t> count;
  for (const auto& e : full.hits) {
    auto it = best_score.find(e.seq_b);
    if (it == best_score.end() || e.score > it->second) {
      best_score[e.seq_b] = e.score;
    }
  }
  for (const auto& e : top1.hits) {
    EXPECT_EQ(++count[e.seq_b], 1u);
    EXPECT_EQ(e.score, best_score.at(e.seq_b));
  }
  // Every query with any hit keeps exactly one.
  EXPECT_EQ(top1.hits.size(), best_score.size());
}

TEST(QueryEngine, PreblockingOverlapShortensTheServeTimeline) {
  const auto refs = make_refs(150, 71);
  const auto queries = make_queries(refs, 60, 73);
  pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 4);
  const auto batches = split_batches(queries, 4);

  pidx::QueryEngine::Options opt;
  opt.pipeline_depth = 1;
  pidx::QueryEngine plain(idx, cfg, {}, opt);
  const auto without = plain.serve(batches);

  opt.pipeline_depth = 2;
  pidx::QueryEngine overlapped(idx, cfg, {}, opt);
  const auto with = overlapped.serve(batches);

  EXPECT_EQ(with.hits, without.hits);  // schedule changes, data doesn't
  EXPECT_GT(without.stats.t_serve, 0.0);
  // Undilated per-batch components are identical; the overlapped timeline
  // must beat the sum whenever contention dilations don't eat the overlap.
  double undilated_sum = 0.0;
  for (const auto& b : without.stats.batches) {
    undilated_sum += b.t_sparse + b.t_align;
  }
  EXPECT_NEAR(without.stats.t_serve, undilated_sum, 1e-12);
  EXPECT_LT(with.stats.t_serve,
            undilated_sum * pastis::sim::MachineModel{}.preblock_sparse_dilation());
}

TEST(QueryEngine, EmptyBatchesAndNoCandidates) {
  const auto refs = make_refs(50, 81);
  pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 2);
  pidx::QueryEngine engine(idx, cfg, {}, {});

  const auto empty = engine.serve({std::vector<std::string>{}});
  EXPECT_TRUE(empty.hits.empty());
  EXPECT_EQ(empty.stats.batches[0].n_queries, 0u);

  // A query with no shared k-mers produces no hits but valid stats.
  const std::vector<std::string> alien = {std::string(80, 'W')};
  const auto served = engine.serve({alien});
  EXPECT_TRUE(served.hits.empty());
  EXPECT_EQ(served.stats.batches[0].n_queries, 1u);
}

// ---------------------------------------------------------------------------
// Rank-resident distributed serving (shard placement + SimRuntime serve path)
// ---------------------------------------------------------------------------

TEST(ShardPlacement, BalanceIsDeterministicAndConservesBytes) {
  const std::vector<std::uint64_t> bytes = {900, 10, 300, 300, 50, 800, 5};
  const auto a = pidx::ShardPlacement::balance(bytes, 3);
  const auto b = pidx::ShardPlacement::balance(bytes, 3);
  EXPECT_EQ(a.primary, b.primary);

  std::uint64_t placed = 0;
  for (const auto rb : a.rank_resident_bytes) placed += rb;
  EXPECT_EQ(placed, 900u + 10 + 300 + 300 + 50 + 800 + 5);
  // The greedy rebalance must beat the worst rank of the raw round-robin
  // deal (rank 0 would hold 900 + 300 + 5 = 1205).
  EXPECT_LE(a.max_rank_resident_bytes(), 1205u);
  // Every shard owned exactly once, owner in range.
  for (int s = 0; s < a.n_shards(); ++s) {
    EXPECT_GE(a.primary[static_cast<std::size_t>(s)], 0);
    EXPECT_LT(a.primary[static_cast<std::size_t>(s)], 3);
  }
}

TEST(ShardPlacement, ReplicationAddsResidentCopiesOnDistinctRanks) {
  const std::vector<std::uint64_t> bytes = {100, 200, 300, 400};
  const auto pl = pidx::ShardPlacement::balance(bytes, 4, 2);
  std::uint64_t resident = 0;
  for (const auto rb : pl.rank_resident_bytes) resident += rb;
  EXPECT_EQ(resident, 2u * (100 + 200 + 300 + 400));
  for (int s = 0; s < pl.n_shards(); ++s) {
    const auto& holders = pl.replicas[static_cast<std::size_t>(s)];
    ASSERT_EQ(holders.size(), 2u);
    EXPECT_NE(holders[0], holders[1]);
    EXPECT_EQ(holders[0], pl.primary[static_cast<std::size_t>(s)]);
  }
  EXPECT_THROW(pidx::ShardPlacement::balance(bytes, 2, 3),
               std::invalid_argument);
  EXPECT_THROW(pidx::ShardPlacement::balance(bytes, 0),
               std::invalid_argument);
}

TEST(ShardPlacement, ValidateAcceptsBalancedPlacementsIncludingCorners) {
  const std::vector<std::uint64_t> bytes = {100, 200, 300, 400};
  // Replication == n_ranks: every shard everywhere.
  const auto full = pidx::ShardPlacement::balance(bytes, 3, 3);
  EXPECT_NO_THROW(full.validate());
  // Single shard, single rank.
  const std::vector<std::uint64_t> one = {42};
  EXPECT_NO_THROW(pidx::ShardPlacement::balance(one, 1, 1).validate());
  // Single shard, replicated across the whole grid.
  EXPECT_NO_THROW(pidx::ShardPlacement::balance(one, 4, 4).validate());
  // No shards at all is structurally fine.
  EXPECT_NO_THROW(
      pidx::ShardPlacement::balance(std::vector<std::uint64_t>{}, 2, 2)
          .validate());
}

TEST(ShardPlacement, ValidateRejectsDuplicateAndMalformedReplicas) {
  const std::vector<std::uint64_t> bytes = {100, 200};
  auto pl = pidx::ShardPlacement::balance(bytes, 3, 2);
  EXPECT_NO_THROW(pl.validate());

  // A duplicated replica rank silently voids the availability promise —
  // validate must catch it.
  auto dup = pl;
  dup.replicas[0][1] = dup.replicas[0][0];
  EXPECT_THROW(dup.validate(), std::invalid_argument);

  auto out_of_range = pl;
  out_of_range.replicas[1][1] = 7;
  EXPECT_THROW(out_of_range.validate(), std::invalid_argument);

  auto wrong_lead = pl;
  std::swap(wrong_lead.replicas[0][0], wrong_lead.replicas[0][1]);
  EXPECT_THROW(wrong_lead.validate(), std::invalid_argument);

  auto short_holders = pl;
  short_holders.replicas[0].pop_back();
  EXPECT_THROW(short_holders.validate(), std::invalid_argument);

  auto bad_primary = pl;
  bad_primary.primary[0] = -1;
  EXPECT_THROW(bad_primary.validate(), std::invalid_argument);

  auto bad_repl = pl;
  bad_repl.replication = 5;
  EXPECT_THROW(bad_repl.validate(), std::invalid_argument);
}

TEST(ServeStats, MaxRankResidentBytesIsZeroOnTheSharedMemoryPath) {
  // The shared-memory path leaves rank_peak_resident_bytes empty; the
  // reduction must report 0, not read past an empty vector.
  pidx::ServeStats st;
  EXPECT_TRUE(st.rank_peak_resident_bytes.empty());
  EXPECT_EQ(st.max_rank_resident_bytes(), 0u);
  st.rank_peak_resident_bytes = {7, 42, 13};
  EXPECT_EQ(st.max_rank_resident_bytes(), 42u);
}

TEST(DistributedServe, HitsBitIdenticalAcrossGridShardAndPoolSweep) {
  // The acceptance bar of the distributed memory model: rank-resident
  // serving reproduces the shared-memory hits bitwise for every grid side
  // x shard count x pool size combination.
  const auto refs = make_refs(90, 201);
  const auto queries = make_queries(refs, 30, 203);
  pc::PastisConfig cfg;

  std::vector<pio::SimilarityEdge> expected;
  {
    const auto idx = pidx::KmerIndex::build(refs, cfg, 3);
    pidx::QueryEngine shared_mem(idx, cfg, {}, {});
    expected = shared_mem.serve(split_batches(queries, 3)).hits;
    ASSERT_GT(expected.size(), 5u);
  }

  for (int shards : {1, 4, 7}) {
    const auto idx = pidx::KmerIndex::build(refs, cfg, shards);
    for (int side : {1, 2, 3}) {
      for (std::size_t threads : {1u, 2u, 8u}) {
        pastis::util::ThreadPool pool(threads);
        pidx::QueryEngine::Options opt;
        opt.grid_side = side;
        pidx::QueryEngine engine(idx, cfg, {}, opt, &pool);
        const auto result = engine.serve(split_batches(queries, 3));
        EXPECT_EQ(result.hits, expected)
            << "shards=" << shards << " side=" << side
            << " threads=" << threads;
        EXPECT_EQ(result.stats.grid_side, side);
        EXPECT_EQ(result.stats.nprocs, side * side);
      }
    }
  }
}

TEST(DistributedServe, LedgerRespectsBudgetAndShrinksWithTheGrid) {
  const auto refs = make_refs(120, 211);
  const auto queries = make_queries(refs, 40, 213);
  pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 8);
  const auto batches = split_batches(queries, 4);
  // Ample budget: the ledger must be ENFORCED (asserted below) yet never
  // trip on a sane placement.
  cfg.rank_memory_budget_bytes = 64ull << 20;

  std::uint64_t side1_peak = 0;
  for (int side : {1, 3}) {
    pidx::QueryEngine::Options opt;
    opt.grid_side = side;
    pidx::QueryEngine engine(idx, cfg, {}, opt);
    const auto result = engine.serve(batches);
    const auto& peaks = result.stats.rank_peak_resident_bytes;
    ASSERT_EQ(peaks.size(), static_cast<std::size_t>(side * side));
    for (const auto b : peaks) {
      EXPECT_GT(b, 0u);
      EXPECT_LE(b, cfg.rank_memory_budget_bytes);
    }
    if (side == 1) {
      side1_peak = result.stats.max_rank_resident_bytes();
    } else {
      // Distributing the memory model is the point: the busiest rank of a
      // 3x3 grid must hold less than half of the single rank's bytes.
      EXPECT_LT(result.stats.max_rank_resident_bytes(), side1_peak / 2);
    }
  }
}

TEST(DistributedServe, PlacementGateRejectsTinyRankBudget) {
  const auto refs = make_refs(100, 221);
  pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 4);
  pidx::QueryEngine::Options opt;
  opt.grid_side = 2;
  // Nothing fits 64 bytes, whether the rank budget is set directly or
  // inherited from the budget chain's root (the host admission gate).
  pc::PastisConfig rank_budget = cfg;
  rank_budget.rank_memory_budget_bytes = 64;
  pc::PastisConfig root_budget = cfg;
  root_budget.exec_memory_budget_bytes = 64;
  for (const auto& tiny : {rank_budget, root_budget}) {
    EXPECT_THROW(pidx::QueryEngine(idx, tiny, {}, opt), std::runtime_error);
  }
}

TEST(DistributedServe, ReplicationKeepsHitsAndRaisesResidency) {
  const auto refs = make_refs(100, 231);
  const auto queries = make_queries(refs, 30, 233);
  pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 6);
  const auto batches = split_batches(queries, 2);

  pidx::QueryEngine::Options opt;
  opt.grid_side = 2;
  pidx::QueryEngine plain(idx, cfg, {}, opt);
  const auto base = plain.serve(batches);

  opt.replication = 2;
  pidx::QueryEngine replicated(idx, cfg, {}, opt);
  const auto repl = replicated.serve(batches);

  EXPECT_EQ(repl.hits, base.hits);  // replicas never compute
  EXPECT_GT(repl.stats.placement_resident_bytes,
            base.stats.placement_resident_bytes);
  // Smaller broadcast team -> the discovery side can only get cheaper.
  EXPECT_LE(repl.stats.batches[0].t_sparse, base.stats.batches[0].t_sparse);
}

TEST(DistributedServe, TimelineReducesToTheOverlapRecurrence) {
  // The distributed serve must charge exactly the per-rank pipeline
  // makespan recurrence (exec::OverlapTimeline) — recompute it from the
  // reported per-rank batch seconds and compare.
  const auto refs = make_refs(100, 241);
  const auto queries = make_queries(refs, 40, 243);
  pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 5);

  for (int depth : {1, 2, 3}) {
    pidx::QueryEngine::Options opt;
    opt.grid_side = 2;
    opt.pipeline_depth = depth;
    pidx::QueryEngine engine(idx, cfg, {}, opt);
    const auto result = engine.serve(split_batches(queries, 4));
    const auto& st = result.stats;

    const pastis::sim::MachineModel model;
    const double dsd = depth >= 2 ? model.preblock_sparse_dilation() : 1.0;
    const double dad = depth >= 2 ? model.preblock_align_dilation : 1.0;
    const int p = st.nprocs;
    pastis::exec::OverlapTimeline timeline(p, depth);
    std::vector<double> sparse_s(static_cast<std::size_t>(p));
    std::vector<double> align_s(static_cast<std::size_t>(p));
    for (const auto& b : st.batches) {
      for (int r = 0; r < p; ++r) {
        sparse_s[static_cast<std::size_t>(r)] =
            b.rank_sparse_s[static_cast<std::size_t>(r)] * dsd;
        align_s[static_cast<std::size_t>(r)] =
            b.rank_align_s[static_cast<std::size_t>(r)] * dad;
      }
      timeline.add(sparse_s, align_s);
    }
    EXPECT_DOUBLE_EQ(st.t_serve, timeline.max_makespan()) << "depth=" << depth;
    EXPECT_GT(st.t_serve, 0.0);
  }
}

TEST(IndexIo, PerRankGateFromThePlacementSection) {
  const auto refs = make_refs(80, 251);
  pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 4);
  const auto path = temp_path("pastis_index_rank_gate.pidx");
  pidx::save_index(path, idx);

  // Header-only per-rank pre-flight agrees with a 4-rank placement and
  // shrinks against the whole-index bytes.
  const auto per_rank = pidx::peek_rank_resident_bytes(path, 4);
  ASSERT_EQ(per_rank.size(), 4u);
  std::uint64_t worst = 0;
  for (const auto b : per_rank) worst = std::max(worst, b);
  EXPECT_GT(worst, 0u);
  EXPECT_LT(worst, pidx::peek_index_bytes(path));

  // The gate: fits on 4 ranks at `worst`, not at worst/2; 1-rank gate is
  // the legacy whole-index budget.
  pidx::RankBudgetGate gate;
  gate.n_ranks = 4;
  gate.rank_memory_budget_bytes = worst;
  EXPECT_NO_THROW((void)pidx::load_index(path, gate));
  gate.rank_memory_budget_bytes = worst / 2;
  EXPECT_THROW((void)pidx::load_index(path, gate), std::runtime_error);

  std::filesystem::remove(path);
}
