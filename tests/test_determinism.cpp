// The paper's headline reproducibility claim (§IV): "the PASTIS algorithm
// gives identical results irrespective of the amount of parallelism utilized
// and the blocking size chosen." We sweep process counts, blocking factors,
// load-balancing schemes and pre-blocking, and require the similarity graph
// to be bit-identical to a serial reference run.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "gen/protein_gen.hpp"

namespace pc = pastis::core;

namespace {

const std::vector<std::string>& shared_dataset() {
  static const std::vector<std::string> seqs = [] {
    pastis::gen::GenConfig g;
    g.n_sequences = 300;
    g.seed = 2024;
    g.mean_length = 100.0;
    g.max_length = 400;
    return pastis::gen::generate_proteins(g).seqs;
  }();
  return seqs;
}

std::vector<pastis::io::SimilarityEdge> reference_edges() {
  static const std::vector<pastis::io::SimilarityEdge> edges = [] {
    pc::PastisConfig cfg;  // serial, unblocked, index-based
    pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 1);
    return search.run(shared_dataset()).edges;
  }();
  return edges;
}

void expect_identical(const std::vector<pastis::io::SimilarityEdge>& a,
                      const std::vector<pastis::io::SimilarityEdge>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq_a, b[i].seq_a);
    EXPECT_EQ(a[i].seq_b, b[i].seq_b);
    EXPECT_EQ(a[i].score, b[i].score);
    EXPECT_FLOAT_EQ(a[i].ani, b[i].ani);
    EXPECT_FLOAT_EQ(a[i].cov, b[i].cov);
  }
}

}  // namespace

struct DeterminismCase {
  int p;
  int br, bc;
  pc::LoadBalanceScheme scheme;
  int depth;  // pipeline_depth
};

class DeterminismSweep : public ::testing::TestWithParam<DeterminismCase> {};

TEST_P(DeterminismSweep, GraphIdenticalToSerialReference) {
  const auto c = GetParam();
  pc::PastisConfig cfg;
  cfg.block_rows = c.br;
  cfg.block_cols = c.bc;
  cfg.load_balance = c.scheme;
  cfg.pipeline_depth = c.depth;
  pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, c.p);
  const auto result = search.run(shared_dataset());
  expect_identical(result.edges, reference_edges());
}

using LB = pc::LoadBalanceScheme;

INSTANTIATE_TEST_SUITE_P(
    AllDecompositions, DeterminismSweep,
    ::testing::Values(DeterminismCase{1, 1, 1, LB::kTriangularity, 1},
                      DeterminismCase{4, 1, 1, LB::kIndexBased, 1},
                      DeterminismCase{4, 2, 2, LB::kIndexBased, 1},
                      DeterminismCase{4, 2, 2, LB::kTriangularity, 1},
                      DeterminismCase{9, 3, 4, LB::kIndexBased, 1},
                      DeterminismCase{9, 3, 4, LB::kTriangularity, 1},
                      DeterminismCase{16, 8, 8, LB::kIndexBased, 1},
                      DeterminismCase{16, 8, 8, LB::kTriangularity, 1},
                      DeterminismCase{4, 4, 4, LB::kIndexBased, 2},
                      DeterminismCase{4, 4, 4, LB::kTriangularity, 2},
                      DeterminismCase{9, 2, 2, LB::kIndexBased, 1},
                      DeterminismCase{1, 5, 7, LB::kTriangularity, 1},
                      DeterminismCase{25, 1, 1, LB::kIndexBased, 1},
                      DeterminismCase{25, 6, 2, LB::kTriangularity, 2},
                      DeterminismCase{16, 4, 4, LB::kTriangularity, 2}));

TEST(Determinism, RepeatedRunsAreIdentical) {
  pc::PastisConfig cfg;
  cfg.block_rows = cfg.block_cols = 2;
  pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 4);
  const auto a = search.run(shared_dataset());
  const auto b = search.run(shared_dataset());
  expect_identical(a.edges, b.edges);
  EXPECT_EQ(a.stats.candidates, b.stats.candidates);
  EXPECT_EQ(a.stats.aligned_pairs, b.stats.aligned_pairs);
  EXPECT_EQ(a.stats.spgemm.products, b.stats.spgemm.products);
}

TEST(Determinism, SubstituteKmersAreDeterministicToo) {
  pc::PastisConfig cfg;
  cfg.subs_kmers = 2;
  cfg.block_rows = 2;
  pc::SimilaritySearch s1(cfg, pastis::sim::MachineModel{}, 4);
  pc::SimilaritySearch s2(cfg, pastis::sim::MachineModel{}, 9);
  expect_identical(s1.run(shared_dataset()).edges,
                   s2.run(shared_dataset()).edges);
}

TEST(Determinism, SchemesAlignIdenticalPairSets) {
  // Both schemes must align exactly the same pairs (not just produce the
  // same graph): counts agree.
  pc::PastisConfig cfg;
  cfg.block_rows = cfg.block_cols = 4;
  cfg.load_balance = LB::kIndexBased;
  pc::SimilaritySearch si(cfg, pastis::sim::MachineModel{}, 9);
  cfg.load_balance = LB::kTriangularity;
  pc::SimilaritySearch st(cfg, pastis::sim::MachineModel{}, 9);
  const auto ri = si.run(shared_dataset());
  const auto rt = st.run(shared_dataset());
  EXPECT_EQ(ri.stats.aligned_pairs, rt.stats.aligned_pairs);
  EXPECT_EQ(ri.stats.align_cells, rt.stats.align_cells);
  // Triangularity computes fewer overlap nonzeros (avoided blocks).
  EXPECT_LT(rt.stats.candidates, ri.stats.candidates);
}
