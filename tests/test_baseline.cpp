// Baseline comparators: brute force, MMseqs2-style replicated index,
// DIAMOND-style work packages. The last two run PASTIS's candidate rule and
// filter, so their graphs are identical to PASTIS's for full Smith-Waterman
// with the cascade off, substitute k-mers included — what differs is
// memory and IO.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "baseline/bruteforce.hpp"
#include "baseline/replicated_index.hpp"
#include "baseline/workpackage.hpp"
#include "core/pipeline.hpp"
#include "gen/protein_gen.hpp"

namespace pb = pastis::baseline;
namespace pc = pastis::core;

namespace {

const std::vector<std::string>& dataset() {
  static const std::vector<std::string> seqs = [] {
    pastis::gen::GenConfig g;
    g.n_sequences = 250;
    g.seed = 555;
    g.mean_length = 100.0;
    g.max_length = 400;
    return pastis::gen::generate_proteins(g).seqs;
  }();
  return seqs;
}

std::map<std::pair<std::uint32_t, std::uint32_t>, int> edge_map(
    const std::vector<pastis::io::SimilarityEdge>& edges) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> m;
  for (const auto& e : edges) m[{e.seq_a, e.seq_b}] = e.score;
  return m;
}

}  // namespace

TEST(BruteForce, TinyKnownCase) {
  const std::vector<std::string> seqs = {
      "MKVLAETGWTMKVLAETGWT",  // 0: identical to 1
      "MKVLAETGWTMKVLAETGWT",  // 1
      "PPPPPPPPPPPPPPPPPPPP",  // 2: unrelated
  };
  pb::BruteForceStats stats;
  const auto edges =
      pb::brute_force_search(seqs, pastis::align::Scoring::pastis_default(),
                             0.9, 0.9, &stats);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].seq_a, 0u);
  EXPECT_EQ(edges[0].seq_b, 1u);
  EXPECT_EQ(stats.pairs, 3u);
  EXPECT_GT(stats.cells, 0u);
}

TEST(BruteForce, SerialAndPooledAgree) {
  const auto& seqs = dataset();
  std::vector<std::string> sub(seqs.begin(), seqs.begin() + 60);
  const auto sc = pastis::align::Scoring::pastis_default();
  const auto pooled = pb::brute_force_search(sub, sc, 0.3, 0.7);
  const auto serial = pb::brute_force_search(sub, sc, 0.3, 0.7, nullptr, nullptr);
  EXPECT_EQ(edge_map(pooled), edge_map(serial));
}

TEST(ReplicatedIndex, BothModesMatchPastis) {
  for (const int subs : {0, 2}) {
    SCOPED_TRACE("subs_kmers = " + std::to_string(subs));
    pc::PastisConfig cfg;
    cfg.subs_kmers = subs;
    pc::SimilaritySearch pastis_search(cfg, pastis::sim::MachineModel{}, 4);
    const auto pastis_result = pastis_search.run(dataset());
    const auto pastis_edges = edge_map(pastis_result.edges);

    pb::ReplicatedIndexStats s1, s2;
    const auto m1 = pb::replicated_index_search(
        dataset(), cfg, pastis::sim::MachineModel{}, 4,
        pb::ReplicationMode::kReferenceChunked, &s1);
    const auto m2 = pb::replicated_index_search(
        dataset(), cfg, pastis::sim::MachineModel{}, 4,
        pb::ReplicationMode::kQueryChunked, &s2);

    EXPECT_EQ(edge_map(m1), pastis_edges);
    EXPECT_EQ(edge_map(m2), pastis_edges);
    EXPECT_EQ(s1.similar_pairs, pastis_edges.size());
    EXPECT_EQ(s1.aligned_pairs, pastis_result.stats.aligned_pairs);
    EXPECT_EQ(s2.aligned_pairs, pastis_result.stats.aligned_pairs);
    EXPECT_GT(s1.io_bytes, 0u);
    EXPECT_GT(s1.modeled_seconds, 0.0);
  }
}

TEST(ReplicatedIndex, RankCountInvariance) {
  const pc::PastisConfig cfg;
  pb::ReplicatedIndexStats s;
  const auto e1 = pb::replicated_index_search(
      dataset(), cfg, pastis::sim::MachineModel{}, 1,
      pb::ReplicationMode::kQueryChunked, &s);
  const auto e8 = pb::replicated_index_search(
      dataset(), cfg, pastis::sim::MachineModel{}, 8,
      pb::ReplicationMode::kQueryChunked, &s);
  EXPECT_EQ(edge_map(e1), edge_map(e8));
}

TEST(ReplicatedIndex, ReplicationMemoryWall) {
  // §IV: replicating the index (query-chunked mode) costs far more memory
  // per rank than chunking it, and the gap grows with rank count because
  // the replicated copy does not shrink.
  const pc::PastisConfig cfg;
  pb::ReplicatedIndexStats chunked4, replicated4, replicated16;
  (void)pb::replicated_index_search(dataset(), cfg, pastis::sim::MachineModel{},
                                    4, pb::ReplicationMode::kReferenceChunked,
                                    &chunked4);
  (void)pb::replicated_index_search(dataset(), cfg, pastis::sim::MachineModel{},
                                    4, pb::ReplicationMode::kQueryChunked,
                                    &replicated4);
  (void)pb::replicated_index_search(dataset(), cfg, pastis::sim::MachineModel{},
                                    16, pb::ReplicationMode::kQueryChunked,
                                    &replicated16);
  EXPECT_GT(replicated4.peak_rank_bytes, chunked4.peak_rank_bytes / 2);
  // The replicated index does not shrink as ranks grow.
  EXPECT_GT(replicated16.peak_rank_bytes,
            replicated4.peak_rank_bytes * 8 / 10);
}

TEST(ReplicatedIndex, PastisUsesLessMemoryPerRank) {
  // The paper's motivation: PASTIS 2D-distributes everything, so per-rank
  // memory shrinks with p while replicated-index memory does not.
  pc::PastisConfig cfg;
  cfg.block_rows = cfg.block_cols = 4;
  pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 16);
  const auto result = search.run(dataset());

  pb::ReplicatedIndexStats replicated;
  (void)pb::replicated_index_search(dataset(), cfg, pastis::sim::MachineModel{},
                                    16, pb::ReplicationMode::kQueryChunked,
                                    &replicated);
  EXPECT_LT(result.stats.peak_rank_bytes, replicated.peak_rank_bytes);
}

struct ChunkCase {
  int qc, rc, workers;
  int subs_kmers = 0;
};

class WorkPackageSweep : public ::testing::TestWithParam<ChunkCase> {};

TEST_P(WorkPackageSweep, ChunkingDoesNotChangeTheGraph) {
  const auto c = GetParam();
  pc::PastisConfig cfg;
  cfg.subs_kmers = c.subs_kmers;
  pb::WorkPackageStats stats;
  const auto edges = pb::work_package_search(
      dataset(), cfg, pastis::sim::MachineModel{}, c.qc, c.rc, c.workers,
      &stats);

  pc::SimilaritySearch pastis_search(cfg, pastis::sim::MachineModel{}, 1);
  const auto pastis_result = pastis_search.run(dataset());
  EXPECT_EQ(edge_map(edges), edge_map(pastis_result.edges));
  EXPECT_EQ(stats.aligned_pairs, pastis_result.stats.aligned_pairs);
  EXPECT_EQ(stats.packages, c.qc * c.rc);
  EXPECT_GT(stats.io_bytes, 0u);
  EXPECT_GT(stats.modeled_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Chunkings, WorkPackageSweep,
                         ::testing::Values(ChunkCase{1, 1, 1},
                                           ChunkCase{2, 3, 4},
                                           ChunkCase{4, 4, 8},
                                           ChunkCase{5, 2, 3},
                                           ChunkCase{2, 3, 4, 2}));

TEST(Baselines, ResourceModelsArePinned) {
  // The memory, IO and time models are what the baselines report beyond
  // the shared graph; pin them (default config, no substitute k-mers).
  const pc::PastisConfig cfg;
  const pastis::sim::MachineModel model;
  struct RankCase {
    pb::ReplicationMode mode;
    std::uint64_t peak_rank_bytes;
    double modeled_seconds;
  };
  for (const RankCase c :
       {RankCase{pb::ReplicationMode::kReferenceChunked, 138435,
                 0.0070125033730158732},
        RankCase{pb::ReplicationMode::kQueryChunked, 383538,
                 0.0069716852777777774}}) {
    pb::ReplicatedIndexStats s;
    (void)pb::replicated_index_search(dataset(), cfg, model, 4, c.mode, &s);
    EXPECT_EQ(s.candidates, 1434u);
    EXPECT_EQ(s.aligned_pairs, 1392u);
    EXPECT_EQ(s.similar_pairs, 975u);
    EXPECT_EQ(s.cells, 12480521u);
    EXPECT_EQ(s.peak_rank_bytes, c.peak_rank_bytes);
    EXPECT_EQ(s.io_bytes, 181900u);
    EXPECT_DOUBLE_EQ(s.modeled_seconds, c.modeled_seconds);
  }
  pb::WorkPackageStats w;
  (void)pb::work_package_search(dataset(), cfg, model, 2, 3, 4, &w);
  EXPECT_EQ(w.candidates, 1434u);
  EXPECT_EQ(w.aligned_pairs, 1392u);
  EXPECT_EQ(w.cells, 12480521u);
  EXPECT_EQ(w.io_bytes, 205098u);
  EXPECT_DOUBLE_EQ(w.modeled_seconds, 0.017326390587301586);
}

TEST(WorkPackage, IoGrowsWithChunking) {
  // §IV: DIAMOND's work packages pressure the filesystem; finer chunking
  // stages the same sequences more times.
  const pc::PastisConfig cfg;
  pb::WorkPackageStats coarse, fine;
  (void)pb::work_package_search(dataset(), cfg, pastis::sim::MachineModel{}, 2,
                                2, 4, &coarse);
  (void)pb::work_package_search(dataset(), cfg, pastis::sim::MachineModel{}, 8,
                                8, 4, &fine);
  EXPECT_GT(fine.io_bytes, coarse.io_bytes);
}
