// Streaming blocked executor: scheduler semantics (ordering, depth bound,
// memory gate, error propagation), the modeled overlap timeline, and the
// headline invariance — edges, hits and stats bit-identical between the
// streaming schedule at any depth and the serial depth-1 oracle, crossed
// over block counts and thread counts, on both the pipeline and the
// QueryEngine paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>

#include "core/pipeline.hpp"
#include "exec/stream_pipeline.hpp"
#include "exec/timeline.hpp"
#include "gen/protein_gen.hpp"
#include "index/kmer_index.hpp"
#include "index/query_engine.hpp"
#include "util/thread_pool.hpp"

namespace pc = pastis::core;
namespace pe = pastis::exec;
namespace pg = pastis::gen;
namespace pi = pastis::index;

namespace {

pg::Dataset overlap_dataset(std::uint32_t n = 350, std::uint64_t seed = 17) {
  pg::GenConfig g;
  g.n_sequences = n;
  g.seed = seed;
  g.mean_length = 180.0;
  g.max_length = 900;
  g.mean_family_size = 12;
  g.low_complexity_prob = 0.3;
  g.low_complexity_motifs = 16;
  g.shuffle_order = true;
  return pg::generate_proteins(g);
}

/// Everything that must be schedule-invariant about a search.
struct RunFingerprint {
  std::vector<pastis::io::SimilarityEdge> edges;
  std::uint64_t candidates, aligned, similar, cells;
  std::uint64_t products, out_nnz;

  explicit RunFingerprint(const pc::SearchResult& r)
      : edges(r.edges),
        candidates(r.stats.candidates),
        aligned(r.stats.aligned_pairs),
        similar(r.stats.similar_pairs),
        cells(r.stats.align_cells),
        products(r.stats.spgemm.products),
        out_nnz(r.stats.spgemm.out_nnz) {}

  friend bool operator==(const RunFingerprint&,
                         const RunFingerprint&) = default;
};

}  // namespace

// ---- StreamPipeline scheduler ----------------------------------------------

TEST(StreamPipeline, RunsEveryStageOfEveryItemInStageOrder) {
  pastis::util::ThreadPool pool(4);
  constexpr std::size_t kItems = 23;
  std::mutex mu;
  std::vector<std::vector<int>> seen(kItems);  // stages per item
  std::vector<std::size_t> stage_order[2];     // items per stage

  for (int depth : {1, 2, 4, 7}) {
    for (auto& s : seen) s.clear();
    stage_order[0].clear();
    stage_order[1].clear();
    pe::StreamOptions opt;
    opt.depth = depth;
    opt.pool = &pool;
    pe::StreamPipeline pipe(
        kItems,
        {pe::Stage{"a",
                   [&](std::size_t i, std::size_t) {
                     std::lock_guard lock(mu);
                     seen[i].push_back(0);
                     stage_order[0].push_back(i);
                   }},
         pe::Stage{"b",
                   [&](std::size_t i, std::size_t) {
                     std::lock_guard lock(mu);
                     seen[i].push_back(1);
                     stage_order[1].push_back(i);
                   }}},
        opt);
    pipe.run();

    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(seen[i], (std::vector<int>{0, 1})) << "item " << i;
    }
    // Each stage is a serial resource: it sees items strictly in order.
    std::vector<std::size_t> want(kItems);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(stage_order[0], want);
    EXPECT_EQ(stage_order[1], want);
  }
}

TEST(StreamPipeline, DepthBoundsInFlightItemsAndEnablesOverlap) {
  pastis::util::ThreadPool pool(8);
  constexpr std::size_t kItems = 40;
  for (int depth : {1, 2, 3}) {
    std::atomic<int> in_flight{0};
    std::atomic<int> peak{0};
    pe::StreamOptions opt;
    opt.depth = depth;
    opt.pool = &pool;
    pe::StreamPipeline pipe(
        kItems,
        {pe::Stage{"enter",
                   [&](std::size_t, std::size_t) {
                     const int now = in_flight.fetch_add(1) + 1;
                     int p = peak.load();
                     while (p < now && !peak.compare_exchange_weak(p, now)) {
                     }
                   }},
         pe::Stage{"mid", [&](std::size_t, std::size_t) {}},
         pe::Stage{"leave",
                   [&](std::size_t, std::size_t) { in_flight.fetch_sub(1); }}},
        opt);
    pipe.run();
    EXPECT_EQ(in_flight.load(), 0);
    EXPECT_LE(peak.load(), depth) << "admission gate exceeded depth";
    EXPECT_LE(pipe.max_in_flight(), static_cast<std::size_t>(depth));
    if (depth >= 2) {
      // The schedule really admits more than one item at a time.
      EXPECT_GE(pipe.max_in_flight(), 2u);
    }
  }
}

TEST(StreamPipeline, MemoryBudgetThrottlesAdmission) {
  pastis::util::ThreadPool pool(4);
  constexpr std::size_t kItems = 12;
  pe::StreamOptions opt;
  opt.depth = 4;
  opt.memory_budget_bytes = 100;  // each item registers 100 => 1 in flight
  opt.pool = &pool;
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  pe::StreamPipeline* gate = nullptr;
  pe::StreamPipeline pipe(
      kItems,
      {pe::Stage{"claim",
                 [&](std::size_t i, std::size_t) {
                   const int now = in_flight.fetch_add(1) + 1;
                   int p = peak.load();
                   while (p < now && !peak.compare_exchange_weak(p, now)) {
                   }
                   gate->set_resident_bytes(i, 100);
                 }},
       pe::Stage{"release",
                 [&](std::size_t, std::size_t) { in_flight.fetch_sub(1); }}},
      opt);
  gate = &pipe;
  pipe.run();
  EXPECT_EQ(in_flight.load(), 0);
  // Once an item holds the whole budget, the next is only admitted after
  // it retires: at most 2 ever overlap (one registered + one admitted
  // before registration).
  EXPECT_LE(peak.load(), 2);
}

TEST(StreamPipeline, PropagatesStageExceptions) {
  pastis::util::ThreadPool pool(4);
  for (int depth : {1, 3}) {
    pe::StreamOptions opt;
    opt.depth = depth;
    opt.pool = &pool;
    pe::StreamPipeline pipe(
        10,
        {pe::Stage{"boom",
                   [&](std::size_t i, std::size_t) {
                     if (i == 4) throw std::runtime_error("stage failure");
                   }},
         pe::Stage{"noop", [&](std::size_t, std::size_t) {}}},
        opt);
    EXPECT_THROW(pipe.run(), std::runtime_error);
  }
}

TEST(StreamPipeline, SlotsCycleModuloDepth) {
  pastis::util::ThreadPool pool(4);
  pe::StreamOptions opt;
  opt.depth = 3;
  opt.pool = &pool;
  std::mutex mu;
  std::vector<std::size_t> slots;
  pe::StreamPipeline pipe(9,
                          {pe::Stage{"s",
                                     [&](std::size_t i, std::size_t slot) {
                                       std::lock_guard lock(mu);
                                       EXPECT_EQ(slot, i % 3);
                                       slots.push_back(slot);
                                     }}},
                          opt);
  pipe.run();
  EXPECT_EQ(slots.size(), 9u);
}

// ---- OverlapTimeline --------------------------------------------------------

TEST(OverlapTimeline, Depth1IsTheSerialSum) {
  const std::vector<double> s{1.0, 2.0, 0.5};
  const std::vector<double> a{3.0, 0.25, 4.0};
  EXPECT_DOUBLE_EQ(pe::pipelined_makespan(s, a, 1), 10.75);
}

TEST(OverlapTimeline, Depth2MatchesThePreblockingFormula) {
  const std::vector<double> s{1.0, 2.0, 0.5, 3.0};
  const std::vector<double> a{3.0, 0.25, 4.0, 1.0};
  // S_0 + max(A_0,S_1) + max(A_1,S_2) + max(A_2,S_3) + A_3 (Table I).
  double want = s[0];
  for (std::size_t b = 0; b < s.size(); ++b) {
    const double next = b + 1 < s.size() ? s[b + 1] : 0.0;
    want += std::max(a[b], next);
  }
  EXPECT_DOUBLE_EQ(pe::pipelined_makespan(s, a, 2), want);
}

TEST(OverlapTimeline, DeeperIsMonotonicallyFasterDownToCriticalPath) {
  // Alignment-heavy head: depth 2's admission gate (discovery of b+1
  // waits for alignment of b-1) stalls discovery behind the backlog;
  // deeper depths let discovery run ahead and hide everything but the
  // alignment critical path.
  const std::vector<double> s{1.0, 1.0, 1.0, 1.0};
  const std::vector<double> a{10.0, 10.0, 0.1, 0.1};
  const double d1 = pe::pipelined_makespan(s, a, 1);
  const double d2 = pe::pipelined_makespan(s, a, 2);
  const double d4 = pe::pipelined_makespan(s, a, 4);
  EXPECT_LT(d2, d1);
  EXPECT_LT(d4, d2);
  // Never below the busier resource + the unhidable pipeline ends; here
  // the bound is tight: first discovery + all alignments back to back.
  double sum_s = 0.0, sum_a = 0.0;
  for (double v : s) sum_s += v;
  for (double v : a) sum_a += v;
  const double bound = std::max(sum_s + a.back(), s.front() + sum_a);
  EXPECT_GE(d4, bound - 1e-12);
  EXPECT_DOUBLE_EQ(d4, s.front() + sum_a);
}

TEST(OverlapTimeline, PerRankStateIsIndependent) {
  pe::OverlapTimeline t(2, 2);
  const std::vector<double> s0{1.0, 10.0}, a0{5.0, 1.0};
  const std::vector<double> s1{2.0, 10.0}, a1{5.0, 1.0};
  t.add(s0, a0);
  t.add(s1, a1);
  const std::vector<double> r0_s{1.0, 2.0}, r0_a{5.0, 5.0};
  const std::vector<double> r1_s{10.0, 10.0}, r1_a{1.0, 1.0};
  EXPECT_DOUBLE_EQ(t.makespan(0), pe::pipelined_makespan(r0_s, r0_a, 2));
  EXPECT_DOUBLE_EQ(t.makespan(1), pe::pipelined_makespan(r1_s, r1_a, 2));
  EXPECT_DOUBLE_EQ(t.max_makespan(), std::max(t.makespan(0), t.makespan(1)));
}

TEST(ResidentWindow, TracksWindowedPeak) {
  pe::ResidentWindow w(1, 2);
  const std::uint64_t blocks[] = {100, 50, 200, 10};
  for (std::uint64_t b : blocks) w.add({&b, 1});
  // Best window of 2 consecutive: 50 + 200.
  EXPECT_EQ(w.peak(0), 250u);

  pe::ResidentWindow w1(1, 1);
  for (std::uint64_t b : blocks) w1.add({&b, 1});
  EXPECT_EQ(w1.peak(0), 200u);
}

// ---- pipeline invariance ----------------------------------------------------

TEST(ExecPipeline, DepthBlockingThreadInvariance) {
  const auto data = overlap_dataset();

  pc::PastisConfig base;
  pc::SimilaritySearch oracle_search(base, pastis::sim::MachineModel{}, 4);
  const RunFingerprint oracle(oracle_search.run(data.seqs));

  for (int blocks : {2, 3}) {
    for (std::size_t threads : {1u, 3u}) {
      pastis::util::ThreadPool pool(threads);
      RunFingerprint* depth1 = nullptr;
      for (int depth : {1, 2, 4}) {
        pc::PastisConfig cfg;
        cfg.block_rows = cfg.block_cols = blocks;
        cfg.pipeline_depth = depth;
        pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 4,
                                    &pool);
        const RunFingerprint fp(search.run(data.seqs));
        EXPECT_EQ(fp, oracle)
            << "blocks=" << blocks << " threads=" << threads
            << " depth=" << depth;
        if (depth1 == nullptr) {
          depth1 = new RunFingerprint(fp);
        } else {
          EXPECT_EQ(fp, *depth1)
              << "depth " << depth << " diverged from the serial oracle at "
              << "blocks=" << blocks << " threads=" << threads;
        }
      }
      delete depth1;
    }
  }
}

TEST(ExecPipeline, DeeperPipelinesShortenTheModeledBlockLoop) {
  const auto data = overlap_dataset(400, 29);
  const auto model = pastis::sim::MachineModel::summit_scaled(1.1e9, 3.3e4);

  std::vector<double> makespan;
  std::vector<std::size_t> edges;
  for (int depth : {1, 2, 4}) {
    pc::PastisConfig cfg;
    cfg.block_rows = cfg.block_cols = 3;
    cfg.pipeline_depth = depth;
    pc::SimilaritySearch search(cfg, model, 4);
    const auto r = search.run(data.seqs);
    makespan.push_back(r.stats.t_blocks);
    edges.push_back(r.edges.size());
  }
  EXPECT_EQ(edges[0], edges[1]);
  EXPECT_EQ(edges[0], edges[2]);
  EXPECT_LT(makespan[1], makespan[0]);  // the Table I / C_wait story
  EXPECT_LE(makespan[2], makespan[1] + 1e-12);
}

TEST(ExecPipeline, MemoryBudgetKeepsResultsIdentical) {
  const auto data = overlap_dataset(300, 41);
  pc::PastisConfig cfg;
  cfg.block_rows = cfg.block_cols = 3;
  cfg.pipeline_depth = 4;
  pc::SimilaritySearch unbounded(cfg, pastis::sim::MachineModel{}, 4);
  const auto free_run = unbounded.run(data.seqs);

  cfg.exec_memory_budget_bytes = 1;  // serialize admissions
  pc::SimilaritySearch bounded(cfg, pastis::sim::MachineModel{}, 4);
  const auto tight_run = bounded.run(data.seqs);

  EXPECT_EQ(free_run.edges, tight_run.edges);
  EXPECT_EQ(free_run.stats.candidates, tight_run.stats.candidates);
}

TEST(ExecPipeline, BlockTimelineHasOneEntryPerBlock) {
  const auto data = overlap_dataset(150, 43);
  pc::PastisConfig cfg;
  cfg.block_rows = cfg.block_cols = 2;
  pc::SimilaritySearch search(cfg, pastis::sim::MachineModel{}, 4);
  const auto run = search.run(data.seqs);
  EXPECT_EQ(run.stats.block_sparse_s.size(), 4u);
  EXPECT_EQ(run.stats.block_align_s.size(), 4u);
}

// ---- QueryEngine invariance -------------------------------------------------

TEST(ExecQueryEngine, DepthShardThreadInvariance) {
  const auto refs = overlap_dataset(260, 47).seqs;
  const auto query_data = overlap_dataset(90, 53).seqs;
  std::vector<std::vector<std::string>> batches(3);
  for (std::size_t q = 0; q < query_data.size(); ++q) {
    batches[q % batches.size()].push_back(query_data[q]);
  }

  pc::PastisConfig cfg;
  const pastis::sim::MachineModel model;

  std::vector<pastis::io::SimilarityEdge>* oracle_hits = nullptr;
  for (int shards : {1, 8}) {
    const auto index = pi::KmerIndex::build(refs, cfg, shards);
    for (std::size_t threads : {1u, 3u}) {
      pastis::util::ThreadPool pool(threads);
      for (int depth : {1, 2, 4}) {
        pi::QueryEngine::Options opt;
        opt.nprocs = 4;
        opt.pipeline_depth = depth;
        pi::QueryEngine engine(index, cfg, model, opt, &pool);
        const auto served = engine.serve(batches);
        EXPECT_EQ(served.stats.pipeline_depth, depth);
        if (oracle_hits == nullptr) {
          oracle_hits =
              new std::vector<pastis::io::SimilarityEdge>(served.hits);
        } else {
          EXPECT_EQ(served.hits, *oracle_hits)
              << "shards=" << shards << " threads=" << threads
              << " depth=" << depth;
        }
        // The whole stream and batch-at-a-time serve() calls agree.
        pi::QueryEngine serial(index, cfg, model, opt, &pool);
        std::vector<pastis::io::SimilarityEdge> one_by_one;
        for (const auto& b : batches) {
          const auto hits = serial.serve({b}).hits;
          one_by_one.insert(one_by_one.end(), hits.begin(), hits.end());
        }
        pastis::io::sort_edges(one_by_one);
        EXPECT_EQ(served.hits, one_by_one);
      }
    }
  }
  delete oracle_hits;
}

TEST(ExecQueryEngine, DefaultDepth2TimelineBeatsTheSerialStream) {
  const auto refs = overlap_dataset(200, 59).seqs;
  std::vector<std::vector<std::string>> batches(
      4, std::vector<std::string>(refs.begin(), refs.begin() + 20));

  pc::PastisConfig cfg;
  const auto model = pastis::sim::MachineModel::summit_scaled(1.1e9, 3.3e4);
  const auto index = pi::KmerIndex::build(refs, cfg, 4);

  pi::QueryEngine::Options opt;
  opt.nprocs = 4;
  pi::QueryEngine depth_engine(index, cfg, model, opt);
  const auto depth2 = depth_engine.serve(batches);
  EXPECT_EQ(depth2.stats.pipeline_depth, 2);  // the engine's default

  opt.pipeline_depth = 1;
  pi::QueryEngine serial_engine(index, cfg, model, opt);
  const auto serial = serial_engine.serve(batches);
  EXPECT_EQ(serial.hits, depth2.hits);
  // Overlap beats the serial sum whenever the contention dilations don't
  // eat the hidden time (the §VI-C regime; same bound as test_index).
  EXPECT_LT(depth2.stats.t_serve,
            serial.stats.t_serve * model.preblock_sparse_dilation());
}

