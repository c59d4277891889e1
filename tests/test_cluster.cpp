// Clustering subsystem: graph assembly, connected components, Markov
// clustering, canonical renumbering, the pair-counting scorer, and the
// paper-grade determinism contract — cluster assignments bit-identical for
// ANY thread-pool size, for both algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/pipeline.hpp"
#include "gen/protein_gen.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pc = pastis::cluster;
namespace pio = pastis::io;
using pastis::sparse::Index;

namespace {

pio::SimilarityEdge edge(Index a, Index b, float ani = 0.9f, float cov = 0.9f,
                         std::int32_t score = 100) {
  return {a, b, ani, cov, score};
}

/// Two 4-cliques {0..3} and {4..7} joined by the single bridge (3,4) — the
/// textbook MCL case: the closure merges everything, flow cuts the bridge.
std::vector<pio::SimilarityEdge> two_cliques_with_bridge() {
  std::vector<pio::SimilarityEdge> edges;
  for (Index base : {Index{0}, Index{4}}) {
    for (Index i = 0; i < 4; ++i) {
      for (Index j = i + 1; j < 4; ++j) {
        edges.push_back(edge(base + i, base + j));
      }
    }
  }
  edges.push_back(edge(3, 4));
  return edges;
}

/// Planted-partition similarity graph: dense blocks plus random noise
/// edges. Deterministic in the seed.
std::vector<pio::SimilarityEdge> planted_graph(Index n, Index block,
                                               double p_intra,
                                               std::size_t n_noise,
                                               std::uint64_t seed) {
  pastis::util::Xoshiro256 rng(seed);
  std::vector<pio::SimilarityEdge> edges;
  for (Index b0 = 0; b0 < n; b0 += block) {
    const Index b1 = std::min<Index>(n, b0 + block);
    for (Index i = b0; i < b1; ++i) {
      for (Index j = i + 1; j < b1; ++j) {
        if (rng.chance(p_intra)) {
          edges.push_back(edge(i, j, 0.5f + 0.5f * static_cast<float>(
                                                       rng.uniform())));
        }
      }
    }
  }
  for (std::size_t e = 0; e < n_noise; ++e) {
    const auto i = static_cast<Index>(rng.below(n));
    const auto j = static_cast<Index>(rng.below(n));
    if (i != j) edges.push_back(edge(i, j, 0.35f, 0.75f, 40));
  }
  return edges;
}

}  // namespace

// ---- graph assembly --------------------------------------------------------

TEST(SimilarityGraph, SymmetrizedWeightedAssembly) {
  const std::vector<pio::SimilarityEdge> edges = {
      edge(1, 3, 0.8f), edge(0, 1, 0.5f), edge(1, 3, 0.6f),  // dup: keep max
      {2, 2, 0.9f, 0.9f, 50},                                // self: dropped
  };
  const auto g = pc::SimilarityGraph::from_edges(5, edges);
  EXPECT_EQ(g.n_vertices(), 5u);
  EXPECT_EQ(g.n_edges(), 2u);
  const auto& adj = g.adjacency();
  EXPECT_EQ(adj.nnz(), 4u);  // both directions of both edges
  // Symmetry with the max-combined duplicate weight.
  const auto k1 = adj.find_row(1);
  ASSERT_NE(k1, pastis::sparse::SpMat<float>::npos);
  EXPECT_EQ(adj.col(adj.row_begin(k1)), 0u);
  EXPECT_FLOAT_EQ(adj.val(adj.row_begin(k1)), 0.5f);
  EXPECT_EQ(adj.col(adj.row_begin(k1) + 1), 3u);
  EXPECT_FLOAT_EQ(adj.val(adj.row_begin(k1) + 1), 0.8f);
  const auto k3 = adj.find_row(3);
  ASSERT_NE(k3, pastis::sparse::SpMat<float>::npos);
  EXPECT_EQ(adj.col(adj.row_begin(k3)), 1u);
  EXPECT_FLOAT_EQ(adj.val(adj.row_begin(k3)), 0.8f);
}

TEST(SimilarityGraph, CutoffsAndWeightKinds) {
  const std::vector<pio::SimilarityEdge> edges = {
      {0, 1, 0.9f, 0.9f, 200}, {1, 2, 0.4f, 0.8f, 80}, {2, 3, 0.9f, 0.5f, 60},
  };
  pc::GraphWeighting w;
  w.min_ani = 0.5f;
  w.min_cov = 0.7f;
  const auto g = pc::SimilarityGraph::from_edges(4, edges, w);
  EXPECT_EQ(g.n_edges(), 1u);  // only (0,1) clears both cutoffs

  pc::GraphWeighting ws;
  ws.weight = pc::GraphWeighting::Weight::kScore;
  const auto gs = pc::SimilarityGraph::from_edges(4, edges, ws);
  const auto& adj = gs.adjacency();
  const auto k0 = adj.find_row(0);
  ASSERT_NE(k0, pastis::sparse::SpMat<float>::npos);
  EXPECT_FLOAT_EQ(adj.val(adj.row_begin(k0)), 200.0f);
}

TEST(SimilarityGraph, EdgeBeyondVertexCountThrows) {
  EXPECT_THROW(
      (void)pc::SimilarityGraph::from_edges(3, {edge(0, 7)}),
      std::out_of_range);
}

// ---- canonical renumbering + scorer ---------------------------------------

TEST(Clustering, CanonicalizeSmallestMemberOrder) {
  // Labels are arbitrary roots; canonical ids follow the smallest member.
  const std::vector<Index> labels = {7, 7, 2, 7, 2, 9};
  const auto c = pc::canonicalize(labels);
  EXPECT_EQ(c.n_clusters, 3u);
  EXPECT_EQ(c.assignment, (std::vector<Index>{0, 0, 1, 0, 1, 2}));
  EXPECT_EQ(c.sizes(), (std::vector<Index>{3, 2, 1}));
}

TEST(Clustering, ScorerCountsPairs) {
  // clusters: {0,1,2} {3,4}; truth classes: {0,1} {2,3}, 4 background.
  pc::Clustering c;
  c.assignment = {0, 0, 0, 1, 1};
  c.n_clusters = 2;
  const std::vector<std::uint32_t> classes = {5, 5, 6, 6, 0xFFFFFFFFu};
  const auto s = pc::score_against_classes(c, classes);
  // Scored vertices: 0..3. Predicted pairs: (0,1),(0,2) from cluster 0
  // [vertex 4 is background so cluster 1 contributes none]; truth pairs:
  // (0,1),(2,3); tp = (0,1).
  EXPECT_EQ(s.predicted_pairs, 3u);  // (0,1),(0,2),(1,2)
  EXPECT_EQ(s.true_pairs, 2u);
  EXPECT_EQ(s.tp, 1u);
  EXPECT_DOUBLE_EQ(s.precision(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.recall(), 0.5);
}

// ---- connected components --------------------------------------------------

TEST(ConnectedComponents, MatchesUnionFindOracle) {
  const auto edges = planted_graph(400, 16, 0.3, 80, 99);
  const auto g = pc::SimilarityGraph::from_edges(400, edges);
  const auto c = pc::connected_components(g);

  // Serial union-find oracle.
  std::vector<Index> parent(400);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](Index x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const auto& e : edges) {
    parent[find(e.seq_a)] = find(e.seq_b);
  }
  std::vector<Index> roots(400);
  for (Index v = 0; v < 400; ++v) roots[v] = find(v);
  EXPECT_EQ(c, pc::canonicalize(roots));
}

TEST(ConnectedComponents, PathGraphAndSingletons) {
  // A long path exercises the pointer-jumping (diameter >> 1 round).
  std::vector<pio::SimilarityEdge> edges;
  for (Index v = 0; v + 1 < 64; ++v) edges.push_back(edge(v, v + 1));
  const auto g = pc::SimilarityGraph::from_edges(70, edges);
  const auto c = pc::connected_components(g);
  EXPECT_EQ(c.n_clusters, 7u);  // the path + 6 isolated singletons
  for (Index v = 0; v < 64; ++v) EXPECT_EQ(c.assignment[v], 0u);
  for (Index v = 64; v < 70; ++v) EXPECT_EQ(c.assignment[v], v - 63u);
}

// ---- MCL oracle ------------------------------------------------------------

TEST(Mcl, SplitsTwoCliquesAcrossBridgeWhereClosureMerges) {
  const auto edges = two_cliques_with_bridge();
  const auto g = pc::SimilarityGraph::from_edges(8, edges);

  const auto cc = pc::connected_components(g);
  EXPECT_EQ(cc.n_clusters, 1u);  // the closure rides the bridge

  pc::MclStats stats;
  const auto mcl = pc::markov_cluster(g, {}, &stats);
  EXPECT_TRUE(stats.converged);
  EXPECT_GE(stats.iterations, 2);
  ASSERT_EQ(mcl.n_clusters, 2u);  // flow cuts the bridge
  for (Index v = 0; v < 4; ++v) EXPECT_EQ(mcl.assignment[v], 0u) << v;
  for (Index v = 4; v < 8; ++v) EXPECT_EQ(mcl.assignment[v], 1u) << v;
}

TEST(Mcl, EmptyGraphIsAllSingletons) {
  const auto g = pc::SimilarityGraph::from_edges(5, {});
  pc::MclStats stats;
  const auto c = pc::markov_cluster(g, {}, &stats);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.iterations, 0);
  EXPECT_EQ(c.n_clusters, 5u);
  EXPECT_EQ(pc::connected_components(g).n_clusters, 5u);
}

TEST(Mcl, MemoryBudgetTightensColumnCap) {
  const auto edges = planted_graph(300, 30, 0.6, 0, 5);
  const auto g = pc::SimilarityGraph::from_edges(300, edges);
  pc::MclStats free_stats;
  const auto unbounded = pc::markov_cluster(g, {}, &free_stats);
  ASSERT_GT(free_stats.peak_resident_bytes, 0u);

  pc::MclOptions tight;
  tight.memory_budget_bytes = free_stats.peak_resident_bytes / 2;
  pc::MclStats tight_stats;
  (void)pc::markov_cluster(g, tight, &tight_stats);
  EXPECT_GT(tight_stats.budget_tightenings, 0);
  EXPECT_LT(tight_stats.per_iteration.back().column_cap,
            pc::MclOptions{}.max_column_entries);
  // And the accounting is per-iteration complete.
  EXPECT_EQ(static_cast<int>(tight_stats.per_iteration.size()),
            tight_stats.iterations);
  EXPECT_EQ(unbounded.assignment.size(), 300u);
}

// ---- determinism: bit-identical for any pool size --------------------------

class ClusterThreadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ClusterThreadSweep, AssignmentsBitIdenticalToSerial) {
  const Index n = 600;
  const auto edges = planted_graph(n, 24, 0.4, 150, 42);

  // Serial references (no pool).
  const auto g = pc::SimilarityGraph::from_edges(n, edges);
  const auto cc_ref = pc::connected_components(g, nullptr);
  pc::MclStats mcl_ref_stats;
  const auto mcl_ref = pc::markov_cluster(g, {}, &mcl_ref_stats, nullptr);

  pastis::util::ThreadPool pool(GetParam());
  const auto cc = pc::connected_components(g, &pool);
  EXPECT_EQ(cc, cc_ref);

  pc::MclStats stats;
  const auto mcl = pc::markov_cluster(g, {}, &stats, &pool);
  EXPECT_EQ(mcl, mcl_ref);
  // The whole iteration trace must match, not just the final labels.
  EXPECT_EQ(stats.iterations, mcl_ref_stats.iterations);
  EXPECT_EQ(stats.converged, mcl_ref_stats.converged);
  EXPECT_EQ(stats.spgemm.products, mcl_ref_stats.spgemm.products);
  ASSERT_EQ(stats.per_iteration.size(), mcl_ref_stats.per_iteration.size());
  for (std::size_t i = 0; i < stats.per_iteration.size(); ++i) {
    EXPECT_EQ(stats.per_iteration[i].expansion_nnz,
              mcl_ref_stats.per_iteration[i].expansion_nnz);
    EXPECT_EQ(stats.per_iteration[i].pruned_nnz,
              mcl_ref_stats.per_iteration[i].pruned_nnz);
    EXPECT_DOUBLE_EQ(stats.per_iteration[i].chaos,
                     mcl_ref_stats.per_iteration[i].chaos);
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ClusterThreadSweep,
                         ::testing::Values(1, 2, 8));

// ---- serial reference MCL --------------------------------------------------

namespace {

using FloatMat = pastis::sparse::SpMat<float>;
using Column = std::vector<std::pair<Index, float>>;  // (row, value), sorted

/// One reference run: the clustering plus the series MclStats records.
struct ReferenceMcl {
  pc::Clustering clustering;
  int iterations = 0;
  bool converged = false;
  int budget_tightenings = 0;
  std::uint64_t peak_resident_bytes = 0;
  pastis::sparse::SpGemmStats spgemm;
  std::vector<pc::MclIterationStats> per_iteration;
};

/// The column-stochastic flow matrix, stored transposed (row j holds column
/// j): every vertex with an edge gets a self-loop of self_loop_scale times
/// its largest edge weight, and each column is divided by its sum, taken
/// in row order.
FloatMat reference_flow(const pc::SimilarityGraph& g,
                        const pc::MclOptions& opt) {
  const FloatMat& adj = g.adjacency();
  std::vector<pastis::sparse::Triple<float>> t;
  for (std::size_t k = 0; k < adj.n_nonempty_rows(); ++k) {
    const Index v = adj.row_id(k);
    Column col;
    float wmax = 0.0f;
    for (auto o = adj.row_begin(k); o < adj.row_end(k); ++o) {
      col.push_back({adj.col(o), adj.val(o)});
      wmax = std::max(wmax, adj.val(o));
    }
    col.push_back(
        {v, std::max(1e-6f, static_cast<float>(opt.self_loop_scale) * wmax)});
    std::sort(col.begin(), col.end());
    float sum = 0.0f;
    for (const auto& e : col) sum += e.second;
    for (const auto& [r, w] : col) t.push_back({v, r, w / sum});
  }
  return FloatMat::from_triples(g.n_vertices(), g.n_vertices(), std::move(t));
}

/// Inflates one expanded column, cuts entries below prune_threshold (the
/// largest entry always stays), keeps the `cap` largest (value descending,
/// row ascending; 0 = all) and renormalizes the survivors in place.
/// Returns the column's chaos: its largest entry minus its sum of squares.
double reference_column(const pc::MclOptions& opt, std::uint32_t cap,
                        Column& col) {
  std::vector<double> inflated;
  double sum = 0.0;
  for (const auto& e : col) {
    inflated.push_back(std::pow(static_cast<double>(e.second), opt.inflation));
    sum += inflated.back();
  }
  const auto inv = static_cast<float>(1.0 / sum);
  Column keep;
  std::pair<Index, float> best{0, 0.0f};
  for (std::size_t o = 0; o < col.size(); ++o) {
    const float v = static_cast<float>(inflated[o]) * inv;
    if (v > best.second) best = {col[o].first, v};
    if (v >= opt.prune_threshold) keep.push_back({col[o].first, v});
  }
  if (keep.empty()) keep.push_back(best);
  if (cap != 0 && keep.size() > cap) {
    std::sort(keep.begin(), keep.end(), [](const auto& x, const auto& y) {
      return x.second != y.second ? x.second > y.second : x.first < y.first;
    });
    keep.resize(cap);
    std::sort(keep.begin(), keep.end());
  }
  float kept = 0.0f;
  for (const auto& e : keep) kept += e.second;
  float col_max = 0.0f;
  double sumsq = 0.0;
  for (auto& e : keep) {
    e.second /= kept;
    col_max = std::max(col_max, e.second);
    sumsq += static_cast<double>(e.second) * static_cast<double>(e.second);
  }
  col = std::move(keep);
  return static_cast<double>(col_max) - sumsq;
}

/// Expand-then-prune MCL from public pieces: the serial hash kernel
/// expands (M²)ᵀ = Mᵀ·Mᵀ, then every column is pruned on its own. An
/// iteration whose M plus expansion exceeds memory_budget_bytes halves the
/// column cap (floor 4; an unbounded cap becomes 256) before its prune.
/// Clusters are the components of the final matrix's symmetrized support.
ReferenceMcl reference_mcl(const pc::SimilarityGraph& g,
                           const pc::MclOptions& opt) {
  using PT = pastis::sparse::PlusTimes<float>;
  ReferenceMcl ref;
  const Index n = g.n_vertices();
  FloatMat M = reference_flow(g, opt);
  std::uint32_t cap = opt.max_column_entries;
  for (int it = 0; it < opt.max_iterations; ++it) {
    pc::MclIterationStats is;
    const std::uint64_t products_before = ref.spgemm.products;
    const FloatMat E = pastis::sparse::spgemm_hash<PT>(M, M, &ref.spgemm);
    is.expansion_products = ref.spgemm.products - products_before;
    is.expansion_nnz = E.nnz();
    is.resident_bytes = M.bytes() + E.bytes();
    ref.peak_resident_bytes =
        std::max(ref.peak_resident_bytes, is.resident_bytes);
    if (opt.memory_budget_bytes != 0 &&
        is.resident_bytes > opt.memory_budget_bytes) {
      cap = cap == 0 ? 256 : std::max<std::uint32_t>(4, cap / 2);
      ++ref.budget_tightenings;
    }
    is.column_cap = cap;

    std::vector<pastis::sparse::Triple<float>> next;
    for (std::size_t k = 0; k < E.n_nonempty_rows(); ++k) {
      Column col;
      for (auto o = E.row_begin(k); o < E.row_end(k); ++o) {
        col.push_back({E.col(o), E.val(o)});
      }
      is.chaos = std::max(is.chaos, reference_column(opt, cap, col));
      for (const auto& [r, v] : col) next.push_back({E.row_id(k), r, v});
    }
    M = FloatMat::from_triples(n, n, std::move(next));
    is.pruned_nnz = M.nnz();
    ref.per_iteration.push_back(is);
    ++ref.iterations;
    if (is.chaos < opt.chaos_epsilon) {
      ref.converged = true;
      break;
    }
  }

  std::vector<pastis::sparse::Triple<float>> support;
  M.for_each([&](Index j, Index i, float v) {
    if (i != j && v >= opt.interpret_threshold) {
      support.push_back({i, j, v});
      support.push_back({j, i, v});
    }
  });
  ref.clustering = pc::components_of_adjacency(FloatMat::from_triples(
      n, n, std::move(support),
      [](float& acc, const float& v) { acc = std::max(acc, v); }));
  return ref;
}

void expect_matches_reference(const pc::Clustering& got,
                              const pc::MclStats& st, const ReferenceMcl& ref,
                              const std::string& where) {
  EXPECT_TRUE(got == ref.clustering) << where;
  EXPECT_EQ(st.iterations, ref.iterations) << where;
  EXPECT_EQ(st.converged, ref.converged) << where;
  EXPECT_EQ(st.budget_tightenings, ref.budget_tightenings) << where;
  EXPECT_EQ(st.peak_resident_bytes, ref.peak_resident_bytes) << where;
  // The expansion's stats are pre-prune: pruning never leaks into them.
  EXPECT_EQ(st.spgemm.products, ref.spgemm.products) << where;
  EXPECT_EQ(st.spgemm.out_nnz, ref.spgemm.out_nnz) << where;
  EXPECT_EQ(st.spgemm.calls, ref.spgemm.calls) << where;
  ASSERT_EQ(st.per_iteration.size(), ref.per_iteration.size()) << where;
  for (std::size_t i = 0; i < ref.per_iteration.size(); ++i) {
    const auto& a = st.per_iteration[i];
    const auto& b = ref.per_iteration[i];
    EXPECT_EQ(a.expansion_products, b.expansion_products) << where << i;
    EXPECT_EQ(a.expansion_nnz, b.expansion_nnz) << where << i;
    EXPECT_EQ(a.pruned_nnz, b.pruned_nnz) << where << i;
    EXPECT_EQ(a.resident_bytes, b.resident_bytes) << where << i;
    EXPECT_EQ(a.chaos, b.chaos) << where << i;  // bitwise, not approximate
    EXPECT_EQ(a.column_cap, b.column_cap) << where << i;
  }
}

}  // namespace

TEST(Mcl, MatchesSerialReference) {
  // markov_cluster prunes each column inside the expansion's numeric phase,
  // on a pool; the reference expands serially and prunes afterwards. The
  // clustering and every per-iteration statistic must agree exactly, with
  // and without a memory budget that tightens the column cap.
  struct Case {
    Index n, block;
    double p_intra;
    std::size_t noise;
    std::uint64_t seed;
  };
  for (const Case& c : {Case{400, 16, 0.5, 120, 21}, Case{300, 30, 0.6, 0, 5}}) {
    const auto g = pc::SimilarityGraph::from_edges(
        c.n, planted_graph(c.n, c.block, c.p_intra, c.noise, c.seed));
    pc::MclOptions free_opt;
    const ReferenceMcl free_ref = reference_mcl(g, free_opt);
    ASSERT_GE(free_ref.iterations, 3);
    pc::MclOptions tight_opt;
    tight_opt.memory_budget_bytes = free_ref.peak_resident_bytes / 2;
    const ReferenceMcl tight_ref = reference_mcl(g, tight_opt);
    ASSERT_GT(tight_ref.budget_tightenings, 0);

    for (const bool tight : {false, true}) {
      const pc::MclOptions& opt = tight ? tight_opt : free_opt;
      const ReferenceMcl& ref = tight ? tight_ref : free_ref;
      for (std::size_t threads : {0u, 1u, 2u, 8u}) {  // 0 = no pool
        const std::string where = "seed=" + std::to_string(c.seed) +
                                  " tight=" + std::to_string(tight) +
                                  " threads=" + std::to_string(threads) +
                                  " iteration ";
        pastis::util::ThreadPool pool(std::max<std::size_t>(1, threads));
        pc::MclStats st;
        const auto got = pc::markov_cluster(g, opt, &st,
                                            threads == 0 ? nullptr : &pool);
        expect_matches_reference(got, st, ref, where);
      }
    }
  }
}

// ---- end-to-end: run_and_cluster + driver ----------------------------------

TEST(ClusterPipeline, RunAndClusterMatchesDirectCall) {
  pastis::gen::GenConfig gc;
  gc.n_sequences = 250;
  gc.seed = 77;
  gc.mean_family_size = 6;
  const auto data = pastis::gen::generate_proteins(gc);

  pastis::core::PastisConfig cfg;
  cfg.cluster_method = pc::Method::kMarkov;
  pastis::core::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 4);
  const auto result = search.run_and_cluster(data.seqs);
  EXPECT_EQ(result.clustering.method, pc::Method::kMarkov);
  EXPECT_EQ(result.clustering.clusters.assignment.size(), data.size());
  EXPECT_GT(result.clustering.clusters.n_clusters, 0u);
  EXPECT_GT(result.clustering.mcl.iterations, 0);

  // The post-align stage is exactly the standalone driver on the edges.
  const auto direct = pc::cluster_edges(
      static_cast<Index>(data.size()), result.search.edges,
      pc::Method::kMarkov, cfg.cluster_weighting, cfg.mcl, nullptr,
      &pastis::util::ThreadPool::global());
  EXPECT_EQ(result.clustering.clusters, direct.clusters);

  // Clusters recover families well on this easy dataset.
  const auto truth = pastis::gen::family_labels(data);
  const auto score =
      pc::score_against_classes(result.clustering.clusters, truth);
  EXPECT_GT(score.f1(), 0.8);
}

TEST(ClusterPipeline, DriverMethodNoneIsSingletons) {
  const auto run = pc::cluster_edges(4, {edge(0, 1)}, pc::Method::kNone);
  EXPECT_EQ(run.clusters.n_clusters, 4u);
}

TEST(ClusterPipeline, RunAndClusterMethodNoneSkipsTheStage) {
  pastis::gen::GenConfig gc;
  gc.n_sequences = 60;
  const auto data = pastis::gen::generate_proteins(gc);
  pastis::core::PastisConfig cfg;  // cluster_method defaults to kNone
  pastis::core::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 1);
  const auto result = search.run_and_cluster(data.seqs);
  EXPECT_EQ(result.clustering.method, pc::Method::kNone);
  EXPECT_TRUE(result.clustering.clusters.assignment.empty());
  EXPECT_GT(result.search.edges.size(), 0u);
}

// ---- distributed MCL (SUMMA expansion over the simulated grid) -------------

TEST(DistMcl, AssignmentsBitIdenticalAcrossGridAndPoolSweep) {
  // The acceptance bar of the distributed memory model: SUMMA-expanded MCL
  // reproduces the shared-memory assignments bitwise for every grid side x
  // pool size combination (float expansion included — each rank's one
  // multiply over its gathered strips keeps the accumulation order
  // identical).
  const auto edges = planted_graph(160, 9, 0.7, 120, 77);
  const auto g = pc::SimilarityGraph::from_edges(160, edges);

  pc::MclStats shared_stats;
  const auto expected = pc::markov_cluster(g, {}, &shared_stats);
  ASSERT_GT(expected.n_clusters, 5u);

  for (int side : {1, 2, 3}) {
    for (std::size_t threads : {1u, 2u, 8u}) {
      pastis::util::ThreadPool pool(threads);
      pc::MclOptions opt;
      opt.grid_side = side;
      pc::MclStats stats;
      const auto got = pc::markov_cluster(g, opt, &stats, &pool);
      EXPECT_TRUE(got == expected)
          << "side=" << side << " threads=" << threads;
      EXPECT_EQ(stats.grid_side, side);
      EXPECT_EQ(stats.iterations, shared_stats.iterations);
      // The global resident-bytes story is reproduced exactly — the same
      // numbers the shared-memory budget tightening would see.
      EXPECT_EQ(stats.peak_resident_bytes, shared_stats.peak_resident_bytes);
    }
  }
}

TEST(DistMcl, GlobalBudgetTightensIdenticallyToSharedMemory) {
  // A binding GLOBAL budget must trigger the same cap tightenings on both
  // paths (the distributed loop recomputes the shared path's byte counts
  // bit-for-bit), keeping assignments identical under memory pressure.
  const auto edges = planted_graph(140, 10, 0.8, 80, 78);
  const auto g = pc::SimilarityGraph::from_edges(140, edges);

  pc::MclOptions opt;
  pc::MclStats probe;
  (void)pc::markov_cluster(g, opt, &probe);
  opt.memory_budget_bytes = probe.peak_resident_bytes / 2;

  pc::MclStats shared_stats;
  const auto expected = pc::markov_cluster(g, opt, &shared_stats);
  ASSERT_GT(shared_stats.budget_tightenings, 0);

  opt.grid_side = 2;
  pc::MclStats dist_stats;
  const auto got = pc::markov_cluster(g, opt, &dist_stats);
  EXPECT_TRUE(got == expected);
  EXPECT_EQ(dist_stats.budget_tightenings, shared_stats.budget_tightenings);
}

TEST(DistMcl, RankLedgerShrinksWithTheGridAndRespectsBudget) {
  const auto edges = planted_graph(200, 8, 0.7, 150, 79);
  const auto g = pc::SimilarityGraph::from_edges(200, edges);

  std::uint64_t side1_peak = 0;
  for (int side : {1, 3}) {
    pc::MclOptions opt;
    opt.grid_side = side;
    opt.rank_memory_budget_bytes = 1ull << 30;  // ample: must never trip
    pc::MclStats stats;
    (void)pc::markov_cluster(g, opt, &stats);
    ASSERT_EQ(stats.rank_peak_resident_bytes.size(),
              static_cast<std::size_t>(side * side));
    std::uint64_t peak = 0;
    for (const auto b : stats.rank_peak_resident_bytes) {
      EXPECT_LE(b, opt.rank_memory_budget_bytes);
      peak = std::max(peak, b);
    }
    EXPECT_EQ(stats.rank_budget_tightenings, 0);
    EXPECT_GT(stats.modeled_seconds, 0.0);
    if (side == 1) {
      side1_peak = peak;
    } else {
      // Distributing the flow matrix is the point: the busiest rank of the
      // 3x3 grid holds well under half of the single rank's bytes.
      EXPECT_LT(peak, side1_peak / 2);
    }
  }
}

TEST(DistMcl, RankBudgetTighteningIsDeterministic) {
  const auto edges = planted_graph(120, 10, 0.8, 60, 81);
  const auto g = pc::SimilarityGraph::from_edges(120, edges);

  pc::MclOptions opt;
  opt.grid_side = 2;
  pc::MclStats probe;
  (void)pc::markov_cluster(g, opt, &probe);
  std::uint64_t worst = 0;
  for (const auto& it : probe.per_iteration) {
    worst = std::max(worst, it.max_rank_resident_bytes);
  }
  ASSERT_GT(worst, 0u);

  opt.rank_memory_budget_bytes = worst / 2;
  pc::MclStats a, b;
  const auto ca = pc::markov_cluster(g, opt, &a);
  pastis::util::ThreadPool pool(4);
  const auto cb = pc::markov_cluster(g, opt, &b, &pool);
  EXPECT_GT(a.rank_budget_tightenings, 0);
  EXPECT_EQ(a.rank_budget_tightenings, b.rank_budget_tightenings);
  EXPECT_TRUE(ca == cb);  // binding rank budget stays pool-invariant
}

// ---- memory-budget knob inheritance (the PastisConfig chain) ---------------

TEST(Config, MemoryBudgetPrecedenceChain) {
  pastis::core::PastisConfig cfg;
  // Everything unset: budgets resolve to 0 (unbounded).
  EXPECT_EQ(cfg.effective_mcl_memory_budget(), 0u);
  EXPECT_EQ(cfg.effective_rank_memory_budget(), 0u);

  // The root knob flows all the way down.
  cfg.exec_memory_budget_bytes = 1000;
  EXPECT_EQ(cfg.effective_mcl_memory_budget(), 1000u);
  EXPECT_EQ(cfg.effective_rank_memory_budget(), 1000u);

  // An explicit MCL budget overrides the root for itself and downstream.
  cfg.mcl.memory_budget_bytes = 500;
  EXPECT_EQ(cfg.effective_mcl_memory_budget(), 500u);
  EXPECT_EQ(cfg.effective_rank_memory_budget(), 500u);

  // An explicit rank budget overrides only the last stage.
  cfg.rank_memory_budget_bytes = 200;
  EXPECT_EQ(cfg.effective_mcl_memory_budget(), 500u);
  EXPECT_EQ(cfg.effective_rank_memory_budget(), 200u);
}

TEST(Config, RunAndClusterInheritsThroughTheChain) {
  // The pipeline's post-align MCL stage must consume the helper, not an
  // ad-hoc fallback: a run with only the root knob set behaves exactly
  // like one with the MCL budget set to the root's value.
  pastis::gen::GenConfig gc;
  gc.n_sequences = 60;
  gc.seed = 17;
  gc.mean_length = 90.0;
  auto ds = pastis::gen::generate_proteins(gc);

  pastis::core::PastisConfig via_root;
  via_root.cluster_method = pc::Method::kMarkov;
  via_root.exec_memory_budget_bytes = 1u << 20;
  pastis::core::SimilaritySearch root_search(via_root, {}, 1);
  const auto from_root = root_search.run_and_cluster(ds.seqs);

  pastis::core::PastisConfig via_mcl = via_root;
  via_mcl.exec_memory_budget_bytes = 0;
  via_mcl.mcl.memory_budget_bytes = 1u << 20;
  pastis::core::SimilaritySearch mcl_search(via_mcl, {}, 1);
  const auto from_mcl = mcl_search.run_and_cluster(ds.seqs);

  EXPECT_TRUE(from_root.clustering.clusters == from_mcl.clustering.clusters);
}

// ---- fused iteration: buffer recycling, dropout ---------------------------

TEST(Mcl, IterationScratchHighWaterIsFlatAfterIterationTwo) {
  // The recycled workspace (SpGEMM scratch, epilogue lanes, DCSR arrays)
  // must hit its high water by iteration 2 and never grow again — flat
  // scratch is the no-per-iteration-reallocation contract.
  const auto edges = planted_graph(400, 16, 0.5, 120, 22);
  const auto g = pc::SimilarityGraph::from_edges(400, edges);
  pc::MclStats stats;
  (void)pc::markov_cluster(g, {}, &stats);
  ASSERT_GE(stats.iterations, 5);
  const auto& pit = stats.per_iteration;
  ASSERT_GT(pit[2].scratch_high_water_bytes, 0u);
  for (std::size_t i = 2; i < pit.size(); ++i) {
    EXPECT_EQ(pit[i].scratch_high_water_bytes,
              pit[2].scratch_high_water_bytes)
        << "iteration " << i;
  }
}

TEST(Mcl, DropoutBitIdenticalAcrossPools) {
  const auto edges = planted_graph(400, 16, 0.5, 120, 23);
  const auto g = pc::SimilarityGraph::from_edges(400, edges);

  pc::MclOptions dopt;
  dopt.dropout_iterations = 2;
  pc::MclStats ref_stats;
  const auto ref = pc::markov_cluster(g, dopt, &ref_stats);  // serial

  std::uint64_t dropped = 0;
  for (const auto& it : ref_stats.per_iteration) dropped += it.dropout_columns;
  EXPECT_GT(dropped, 0u);  // the knob actually engages on this workload

  // For a FIXED dropout setting, results are bit-identical across pool
  // sizes — including the mask series.
  for (std::size_t threads : {1u, 2u, 8u}) {
    pastis::util::ThreadPool pool(threads);
    pc::MclStats stats;
    const auto got = pc::markov_cluster(g, dopt, &stats, &pool);
    EXPECT_TRUE(got == ref) << "threads=" << threads;
    EXPECT_EQ(stats.iterations, ref_stats.iterations);
    EXPECT_EQ(stats.spgemm.products, ref_stats.spgemm.products);
    ASSERT_EQ(stats.per_iteration.size(), ref_stats.per_iteration.size());
    for (std::size_t i = 0; i < stats.per_iteration.size(); ++i) {
      EXPECT_EQ(stats.per_iteration[i].dropout_columns,
                ref_stats.per_iteration[i].dropout_columns);
      EXPECT_EQ(stats.per_iteration[i].reentered_columns,
                ref_stats.per_iteration[i].reentered_columns);
      EXPECT_EQ(stats.per_iteration[i].pruned_nnz,
                ref_stats.per_iteration[i].pruned_nnz);
      EXPECT_DOUBLE_EQ(stats.per_iteration[i].chaos,
                       ref_stats.per_iteration[i].chaos);
    }
  }

  // With the conservative default epsilon the frozen columns are genuinely
  // settled: the assignments match the no-dropout run.
  const auto plain = pc::markov_cluster(g, {});
  EXPECT_TRUE(ref == plain);
}

TEST(Mcl, DroppedColumnsReenterWhenNeighboursReset) {
  // An aggressive epsilon freezes columns early while still-active
  // neighbours' chaos can rebound above it — resetting their streaks and
  // forcing the frozen dependants back into the expansion.
  const auto edges = planted_graph(300, 12, 0.45, 200, 24);
  const auto g = pc::SimilarityGraph::from_edges(300, edges);
  pc::MclOptions opt;
  opt.dropout_iterations = 2;
  opt.dropout_epsilon = 0.2;
  pc::MclStats stats;
  const auto got = pc::markov_cluster(g, opt, &stats);
  std::uint64_t dropped = 0, reentered = 0;
  for (const auto& it : stats.per_iteration) {
    dropped += it.dropout_columns;
    reentered += it.reentered_columns;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(reentered, 0u);
  // Re-entry keeps the run pool-invariant.
  pastis::util::ThreadPool pool(8);
  pc::MclStats par;
  EXPECT_TRUE(pc::markov_cluster(g, opt, &par, &pool) == got);
  EXPECT_EQ(par.iterations, stats.iterations);
}

TEST(DistMcl, DropoutSweepBitIdenticalAcrossGridSides) {
  // One iteration loop serves both modes, so every per-iteration field both
  // report must agree — with and without dropout, and under a binding
  // global budget (no rank budget: that one is grid-side-dependent by
  // design). SpGemmStats::calls differs by design: the grid makes one
  // local multiply per rank per iteration.
  const auto edges = planted_graph(160, 9, 0.7, 120, 77);
  const auto g = pc::SimilarityGraph::from_edges(160, edges);
  pc::MclStats probe;
  (void)pc::markov_cluster(g, {}, &probe);

  for (std::uint64_t budget : {std::uint64_t{0}, probe.peak_resident_bytes / 2}) {
    for (std::uint32_t drop : {0u, 2u}) {
      pc::MclOptions sopt;
      sopt.dropout_iterations = drop;
      sopt.memory_budget_bytes = budget;
      pc::MclStats shared_stats;
      const auto expected = pc::markov_cluster(g, sopt, &shared_stats);
      if (budget != 0) {
        ASSERT_GT(shared_stats.budget_tightenings, 0);
      }

      for (int side : {1, 2, 3}) {
        pc::MclOptions opt = sopt;
        opt.grid_side = side;
        pc::MclStats stats;
        const auto got = pc::markov_cluster(g, opt, &stats);
        const std::string where = "side=" + std::to_string(side) +
                                  " dropout=" + std::to_string(drop) +
                                  " budget=" + std::to_string(budget);
        EXPECT_TRUE(got == expected) << where;
        EXPECT_EQ(stats.iterations, shared_stats.iterations) << where;
        EXPECT_EQ(stats.budget_tightenings, shared_stats.budget_tightenings)
            << where;
        EXPECT_EQ(stats.spgemm.products, shared_stats.spgemm.products)
            << where;
        EXPECT_EQ(stats.spgemm.out_nnz, shared_stats.spgemm.out_nnz)
            << where;
        ASSERT_EQ(stats.per_iteration.size(),
                  shared_stats.per_iteration.size());
        for (std::size_t i = 0; i < stats.per_iteration.size(); ++i) {
          const auto& a = stats.per_iteration[i];
          const auto& b = shared_stats.per_iteration[i];
          EXPECT_EQ(a.expansion_products, b.expansion_products)
              << where << " iter=" << i;
          EXPECT_EQ(a.expansion_nnz, b.expansion_nnz) << where << " iter=" << i;
          EXPECT_EQ(a.pruned_nnz, b.pruned_nnz) << where << " iter=" << i;
          EXPECT_EQ(a.resident_bytes, b.resident_bytes)
              << where << " iter=" << i;
          EXPECT_EQ(a.column_cap, b.column_cap) << where << " iter=" << i;
          EXPECT_EQ(a.dropout_columns, b.dropout_columns)
              << where << " iter=" << i;
          EXPECT_EQ(a.reentered_columns, b.reentered_columns)
              << where << " iter=" << i;
          // Exact: the grid's multiply sums every product in the same
          // order as the one-address-space kernel, so the floats are
          // bitwise equal.
          EXPECT_EQ(a.chaos, b.chaos) << where << " iter=" << i;
        }
      }
    }
  }
}

TEST(DistMcl, GridPricingIsPinned) {
  // The grid's pricing, pinned: the modeled seconds of the slowest rank,
  // every rank's resident-bytes peak, the busiest rank's bytes per
  // iteration, the rank-budget tightenings and one multiply per rank whose
  // operand strips are both non-empty. Dropout masks engage from
  // iteration 7 on, so the masked tiles' stream charge is priced, and in
  // the last case a rank budget binds and changes the prunes. The other
  // DistMcl tests check outputs equal across grid sides; a reshuffled
  // charge would pass them.
  const auto edges = planted_graph(160, 9, 0.7, 120, 77);
  const auto g = pc::SimilarityGraph::from_edges(160, edges);
  struct Pinned {
    int side;
    std::uint64_t rank_budget;
    double modeled_seconds;
    std::vector<std::uint64_t> rank_peaks;
    std::vector<std::uint64_t> max_rank_per_iteration;
    int rank_budget_tightenings;
    std::uint64_t spgemm_calls;
  };
  const std::vector<Pinned> cases = {
      {2, 0, 0.013281417660317462,
       {93032, 84292, 84348, 95168},
       {31344, 103016, 41660, 26928, 25468, 18628, 12892, 12332, 7972, 5368,
        4168, 4168},
       0, 48},
      {3, 0, 0.013123349459047612,
       {53888, 49004, 47960, 49068, 49848, 46920, 48004, 47004, 52712},
       {19748, 53888, 25224, 17864, 16708, 13012, 9264, 9824, 5360, 3808,
        3088, 3088},
       0, 102},
      {2, 20000, 0.013100043469841277,
       {90048, 80620, 81764, 92912},
       {31344, 100928, 39248, 24492, 14236, 13988, 11860, 11972, 7612, 5368,
        4168, 4168},
       4, 48},
  };
  for (const auto& c : cases) {
    pc::MclOptions opt;
    opt.grid_side = c.side;
    opt.dropout_iterations = 2;
    opt.rank_memory_budget_bytes = c.rank_budget;
    pc::MclStats stats;
    (void)pc::markov_cluster(g, opt, &stats);
    const std::string where = "side=" + std::to_string(c.side) +
                              " rank_budget=" + std::to_string(c.rank_budget);
    std::uint64_t dropped = 0;
    std::vector<std::uint64_t> max_rank;
    for (const auto& it : stats.per_iteration) {
      dropped += it.dropout_columns;
      max_rank.push_back(it.max_rank_resident_bytes);
    }
    ASSERT_GT(dropped, 0u) << where;
    EXPECT_DOUBLE_EQ(stats.modeled_seconds, c.modeled_seconds) << where;
    EXPECT_EQ(stats.rank_peak_resident_bytes, c.rank_peaks) << where;
    EXPECT_EQ(max_rank, c.max_rank_per_iteration) << where;
    EXPECT_EQ(stats.rank_budget_tightenings, c.rank_budget_tightenings)
        << where;
    EXPECT_EQ(stats.spgemm.calls, c.spgemm_calls) << where;
  }
}

TEST(Mcl, RejectsNegativeGridSide) {
  const auto g = pc::SimilarityGraph::from_edges(8, two_cliques_with_bridge());
  pc::MclOptions opt;
  opt.grid_side = -1;
  EXPECT_THROW((void)pc::markov_cluster(g, opt), std::invalid_argument);
}

TEST(DistMcl, GridRunEmitsOneIterationSpanPerIteration) {
  // Grid runs go through the same loop as one-address-space runs, so they
  // trace every iteration too.
  const auto edges = planted_graph(120, 10, 0.8, 60, 81);
  const auto g = pc::SimilarityGraph::from_edges(120, edges);
  pastis::obs::Tracer tr;
  pc::MclOptions opt;
  opt.grid_side = 2;
  opt.telemetry.tracer = &tr;
  pc::MclStats stats;
  (void)pc::markov_cluster(g, opt, &stats);
  ASSERT_GT(stats.iterations, 0);

  int spans = 0;
  const auto doc = pastis::util::json::parse(tr.to_json());
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "X" &&
        e.at("name").as_string() == "mcl.iteration") {
      ++spans;
    }
  }
  EXPECT_EQ(spans, stats.iterations);
}
