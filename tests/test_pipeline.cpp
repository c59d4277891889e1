// End-to-end pipeline tests: correctness of the similarity graph against
// brute force, accounting sanity, memory behaviour of blocking, and the
// pre-blocking timeline.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>

#include "baseline/bruteforce.hpp"
#include "core/pipeline.hpp"
#include "gen/protein_gen.hpp"
#include "io/fasta.hpp"

namespace pc = pastis::core;
namespace pg = pastis::gen;

namespace {

pg::Dataset test_dataset(std::uint32_t n = 400, std::uint64_t seed = 99) {
  pg::GenConfig g;
  g.n_sequences = n;
  g.seed = seed;
  g.mean_length = 120.0;
  g.max_length = 600;
  return pg::generate_proteins(g);
}

pc::PastisConfig base_config() {
  pc::PastisConfig cfg;
  return cfg;
}

std::map<std::pair<std::uint32_t, std::uint32_t>, int> edge_map(
    const std::vector<pastis::io::SimilarityEdge>& edges) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> m;
  for (const auto& e : edges) m[{e.seq_a, e.seq_b}] = e.score;
  return m;
}

}  // namespace

TEST(Pipeline, EndToEndFindsFamilyStructure) {
  const auto data = test_dataset();
  pc::SimilaritySearch search(base_config(), pastis::sim::MachineModel{}, 4);
  const auto result = search.run(data.seqs);

  EXPECT_GT(result.edges.size(), 50u);
  std::uint64_t intra = 0;
  for (const auto& e : result.edges) {
    EXPECT_LT(e.seq_a, e.seq_b);  // canonical order, no self edges
    EXPECT_GE(e.ani, 0.30f - 1e-6f);
    EXPECT_GE(e.cov, 0.70f - 1e-6f);
    if (data.family[e.seq_a] != pg::Dataset::kBackground &&
        data.family[e.seq_a] == data.family[e.seq_b]) {
      ++intra;
    }
  }
  // The overwhelming majority of edges connect family members.
  EXPECT_GT(static_cast<double>(intra) / result.edges.size(), 0.9);
}

TEST(Pipeline, StatsAreConsistent) {
  const auto data = test_dataset();
  auto cfg = base_config();
  cfg.block_rows = cfg.block_cols = 2;
  pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 9);
  const auto result = search.run(data.seqs);
  const auto& st = result.stats;

  EXPECT_EQ(st.n_seqs, data.size());
  EXPECT_EQ(st.total_residues, data.total_residues());
  EXPECT_GT(st.kmer_nnz, 0u);
  EXPECT_EQ(st.kmer_cols, 244140625u);  // 25^6, Table IV
  EXPECT_GT(st.candidates, 0u);
  EXPECT_LE(st.aligned_pairs, st.candidates);
  EXPECT_EQ(st.similar_pairs, result.edges.size());
  EXPECT_LE(st.similar_pairs, st.aligned_pairs);
  EXPECT_GT(st.align_cells, 0u);
  EXPECT_GT(st.spgemm.products, 0u);
  EXPECT_GE(st.spgemm.compression_factor(), 1.0);

  EXPECT_GT(st.t_total, 0.0);
  EXPECT_GT(st.t_blocks, 0.0);
  EXPECT_GE(st.t_setup, 0.0);
  EXPECT_GE(st.t_cwait, 0.0);
  EXPECT_GT(st.t_io_in, 0.0);
  EXPECT_NEAR(st.t_total,
              st.t_io_in + st.t_setup + st.t_cwait + st.t_blocks + st.t_io_out,
              1e-9);
  EXPECT_GT(st.comp_align, 0.0);
  EXPECT_GT(st.comp_spgemm, 0.0);
  EXPECT_EQ(st.ranks.size(), 9u);
  EXPECT_EQ(st.block_sparse_s.size(), 4u);
  EXPECT_GT(st.alignments_per_second(), 0.0);
  EXPECT_GT(st.cups(), 0.0);
  EXPECT_GT(st.peak_rank_bytes, 0u);

  // Per-rank counters add up to the totals.
  std::uint64_t pairs = 0, similar = 0;
  for (const auto& r : st.ranks) {
    pairs += r.pairs_aligned;
    similar += r.similar_pairs;
  }
  EXPECT_EQ(pairs, st.aligned_pairs);
  EXPECT_EQ(similar, st.similar_pairs);
}

TEST(Pipeline, EdgesAreSubsetOfBruteForceWithEqualScores) {
  const auto data = test_dataset(300, 7);
  const auto cfg = base_config();
  pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 4);
  const auto result = search.run(data.seqs);

  const auto bf = pastis::baseline::brute_force_search(
      data.seqs, cfg.make_scoring(), cfg.ani_threshold, cfg.cov_threshold);
  const auto bf_map = edge_map(bf);

  ASSERT_GT(result.edges.size(), 0u);
  for (const auto& e : result.edges) {
    const auto it = bf_map.find({e.seq_a, e.seq_b});
    ASSERT_NE(it, bf_map.end())
        << "edge (" << e.seq_a << "," << e.seq_b << ") not in brute force";
    EXPECT_EQ(it->second, e.score);
  }
}

TEST(Pipeline, RecallAgainstBruteForceIsHigh) {
  const auto data = test_dataset(300, 7);
  const auto cfg = base_config();
  pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 4);
  const auto result = search.run(data.seqs);
  const auto bf = pastis::baseline::brute_force_search(
      data.seqs, cfg.make_scoring(), cfg.ani_threshold, cfg.cov_threshold);

  const auto found = edge_map(result.edges);
  std::uint64_t hit = 0;
  for (const auto& e : bf) {
    hit += found.count({e.seq_a, e.seq_b});
  }
  ASSERT_GT(bf.size(), 0u);
  const double recall = static_cast<double>(hit) / static_cast<double>(bf.size());
  EXPECT_GT(recall, 0.7) << "k-mer discovery recall collapsed";
}

TEST(Pipeline, SubstituteKmersImproveRecall) {
  const auto data = test_dataset(250, 31);
  auto cfg = base_config();
  pc::SimilaritySearch plain(cfg, pastis::sim::MachineModel{}, 4);
  const auto base = plain.run(data.seqs);

  cfg.subs_kmers = 2;
  pc::SimilaritySearch subs(cfg, pastis::sim::MachineModel{}, 4);
  const auto enhanced = subs.run(data.seqs);

  // Substitute k-mers can only widen discovery.
  EXPECT_GE(enhanced.stats.candidates, base.stats.candidates);
  EXPECT_GE(enhanced.edges.size(), base.edges.size());
}

TEST(Pipeline, BlockedSearchBoundsPeakMemory) {
  // The central claim of §VI-A: blocking controls the maximum memory of the
  // search. More blocks => at most the unblocked peak, typically far less
  // of the overlap matrix resident at once.
  const auto data = test_dataset(500, 13);
  auto cfg = base_config();
  pc::SimilaritySearch big(cfg, pastis::sim::MachineModel{}, 4);
  const auto one = big.run(data.seqs);

  cfg.block_rows = cfg.block_cols = 4;
  pc::SimilaritySearch blocked(cfg, pastis::sim::MachineModel{}, 4);
  const auto many = blocked.run(data.seqs);

  EXPECT_LE(many.stats.peak_rank_bytes, one.stats.peak_rank_bytes);
  EXPECT_EQ(edge_map(one.edges), edge_map(many.edges));
}

TEST(Pipeline, PreblockingShortensTimelineAndDilatesComponents) {
  // Pre-blocking pays off when alignment and discovery are comparable
  // (§VI-C: "a ratio of no more than 2:1") — the regime of the paper's
  // validation datasets. Generate in that regime: realistic lengths,
  // shuffled order, metagenome-like candidate density.
  pg::GenConfig g;
  g.n_sequences = 600;
  g.seed = 17;
  g.mean_length = 250.0;
  g.max_length = 2000;
  g.mean_family_size = 12;
  g.low_complexity_prob = 0.3;
  g.low_complexity_motifs = 16;
  g.shuffle_order = true;
  const auto data = pg::generate_proteins(g);
  auto cfg = base_config();
  cfg.block_rows = cfg.block_cols = 3;
  // Paper-regime machine: workload homothety vs the 20M-sequence runs.
  const auto model =
      pastis::sim::MachineModel::summit_scaled(1.1e9, 3.3e4);

  pc::SimilaritySearch plain(cfg, model, 4);
  const auto without = plain.run(data.seqs);

  cfg.pipeline_depth = 2;
  pc::SimilaritySearch overlapped(cfg, model, 4);
  const auto with = overlapped.run(data.seqs);

  // Identical results; shorter block loop; dilated components (Table I).
  EXPECT_EQ(edge_map(without.edges), edge_map(with.edges));
  EXPECT_LT(with.stats.t_blocks, without.stats.t_blocks);
  EXPECT_GE(with.stats.comp_align, without.stats.comp_align);
  EXPECT_GE(with.stats.comp_spgemm, without.stats.comp_spgemm);
}

TEST(Pipeline, IoAndCwaitAreMinorComponents) {
  // §V-B/Table II: IO stays within a few percent, cwait well below 1%.
  const auto data = test_dataset(500, 23);
  auto cfg = base_config();
  cfg.block_rows = cfg.block_cols = 2;
  pc::SimilaritySearch search(
      cfg, pastis::sim::MachineModel::summit_scaled(1.6e9, 4e4), 16);
  const auto result = search.run(data.seqs);
  const auto& st = result.stats;
  EXPECT_LT((st.t_io_in + st.t_io_out) / st.t_total, 0.25);
  EXPECT_LT(st.t_cwait / st.t_total, 0.05);
}

TEST(Pipeline, RunFastaMatchesInMemory) {
  const auto data = test_dataset(200, 41);
  const auto dir = std::filesystem::temp_directory_path();
  const auto fasta = (dir / "pastis_pipeline_test.fa").string();
  const auto graph = (dir / "pastis_pipeline_test.tsv").string();

  std::vector<pastis::io::FastaRecord> recs;
  for (std::size_t i = 0; i < data.size(); ++i) {
    recs.push_back({data.ids[i], "", data.seqs[i]});
  }
  pastis::io::write_fasta(fasta, recs);

  const auto cfg = base_config();
  pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 4);
  const auto from_file = search.run_fasta(fasta, graph);
  const auto in_memory = search.run(data.seqs);
  EXPECT_EQ(edge_map(from_file.edges), edge_map(in_memory.edges));

  // The written graph reads back identically.
  const auto back = pastis::io::read_similarity_graph(graph);
  EXPECT_EQ(back.size(), from_file.edges.size());

  std::filesystem::remove(fasta);
  std::filesystem::remove(graph);
}

TEST(Pipeline, EmptyAndTinyInputs) {
  const auto cfg = base_config();
  pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 4);
  const auto empty = search.run({});
  EXPECT_TRUE(empty.edges.empty());

  const auto tiny = search.run({"MKVLAETGWT", "MKVLAETGWT"});
  // Two identical sequences of length 10: shares all 5 six-mers >= τ=2.
  ASSERT_EQ(tiny.edges.size(), 1u);
  EXPECT_EQ(tiny.edges[0].seq_a, 0u);
  EXPECT_EQ(tiny.edges[0].seq_b, 1u);
  EXPECT_NEAR(tiny.edges[0].ani, 1.0f, 1e-6f);
}

TEST(Pipeline, XdropModeRunsAndFiltersConsistently) {
  const auto data = test_dataset(200, 43);
  auto cfg = base_config();
  cfg.align_kind = pastis::align::AlignKind::kXDrop;
  pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 4);
  const auto result = search.run(data.seqs);
  for (const auto& e : result.edges) {
    EXPECT_GE(e.ani, 0.30f - 1e-6f);
    EXPECT_GE(e.cov, 0.70f - 1e-6f);
  }
  // Gapless extension is strictly less sensitive than full SW.
  pc::PastisConfig full_cfg = base_config();
  pc::SimilaritySearch full(full_cfg, pastis::sim::MachineModel{}, 4);
  EXPECT_LE(result.edges.size(), full.run(data.seqs).edges.size());
}

TEST(Pipeline, GridSizeOneWorks) {
  const auto data = test_dataset(100, 47);
  pc::SimilaritySearch search(base_config(), pastis::sim::MachineModel{}, 1);
  const auto result = search.run(data.seqs);
  EXPECT_GT(result.edges.size(), 0u);
}

TEST(Pipeline, NullPoolRunsInline) {
  // A null pool is the library's serial convention: every stage, the rank
  // super-steps and the chunked FASTA read run in the calling thread, with
  // the edges and modeled stats of a pooled run.
  const auto data = test_dataset(150, 53);
  auto cfg = base_config();
  cfg.block_rows = 2;
  cfg.block_cols = 3;
  cfg.pipeline_depth = 2;
  pastis::util::ThreadPool pool3(3);
  const pc::SimilaritySearch pooled(cfg, pastis::sim::MachineModel{}, 4,
                                    &pool3);
  const pc::SimilaritySearch serial(cfg, pastis::sim::MachineModel{}, 4,
                                    nullptr);
  const auto want = pooled.run(data.seqs);
  ASSERT_GT(want.edges.size(), 0u);
  const auto expect_same = [&](const pc::SearchResult& got) {
    EXPECT_EQ(edge_map(got.edges), edge_map(want.edges));
    const auto& a = got.stats;
    const auto& b = want.stats;
    EXPECT_EQ(a.t_total, b.t_total);
    EXPECT_EQ(a.t_setup, b.t_setup);
    EXPECT_EQ(a.t_blocks, b.t_blocks);
    EXPECT_EQ(a.t_cwait, b.t_cwait);
    EXPECT_EQ(a.comp_sparse_other, b.comp_sparse_other);
    EXPECT_EQ(a.comp_spgemm, b.comp_spgemm);
    EXPECT_EQ(a.comp_align, b.comp_align);
    EXPECT_EQ(a.kmer_nnz, b.kmer_nnz);
    EXPECT_EQ(a.candidates, b.candidates);
    EXPECT_EQ(a.aligned_pairs, b.aligned_pairs);
    EXPECT_EQ(a.align_cells, b.align_cells);
    EXPECT_EQ(a.peak_rank_bytes, b.peak_rank_bytes);
    ASSERT_EQ(a.ranks.size(), b.ranks.size());
    for (std::size_t r = 0; r < a.ranks.size(); ++r) {
      EXPECT_EQ(a.ranks[r].seconds, b.ranks[r].seconds) << "rank " << r;
      EXPECT_EQ(a.ranks[r].bytes_sent, b.ranks[r].bytes_sent);
      EXPECT_EQ(a.ranks[r].bytes_recv, b.ranks[r].bytes_recv);
    }
  };
  expect_same(serial.run(data.seqs));

  const auto fasta = (std::filesystem::temp_directory_path() /
                      "pastis_null_pool_test.fa")
                         .string();
  std::vector<pastis::io::FastaRecord> recs;
  for (std::size_t i = 0; i < data.size(); ++i) {
    recs.push_back({data.ids[i], "", data.seqs[i]});
  }
  pastis::io::write_fasta(fasta, recs);
  expect_same(serial.run_fasta(fasta, ""));
  std::filesystem::remove(fasta);
}

TEST(Pipeline, RejectsBadBlockingBeforeTheSetUp) {
  const auto data = test_dataset(40, 59);
  for (const auto& [br, bc] : {std::pair{0, 1}, std::pair{2, -1}}) {
    auto cfg = base_config();
    cfg.block_rows = br;
    cfg.block_cols = bc;
    const pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 4);
    EXPECT_THROW((void)search.run(data.seqs), std::invalid_argument)
        << br << "x" << bc;
  }
}
