// Serving-tier tests: the result cache replays bit-identically to the cold
// path (and its hit/miss accounting is deterministic), LSM delta segments
// fold to exactly a from-scratch rebuild at every epoch — compacted or not
// — cache invalidation on mutation is exact under concurrent pipeline
// depths and pool sizes, each batch's shard → server map follows the
// placement and the fault plan, and online re-placement migrates
// deterministically while never changing results.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gen/protein_gen.hpp"
#include "index/kmer_index.hpp"
#include "index/placement.hpp"
#include "index/query_engine.hpp"
#include "serve/delta_index.hpp"
#include "serve/result_cache.hpp"
#include "serve/serving_tier.hpp"
#include "sim/clock.hpp"
#include "sim/fault.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pc = pastis::core;
namespace pg = pastis::gen;
namespace pidx = pastis::index;
namespace pio = pastis::io;
namespace ps = pastis::serve;

namespace {

std::vector<std::string> make_refs(std::uint32_t n = 80,
                                   std::uint64_t seed = 91) {
  pg::GenConfig g;
  g.n_sequences = n;
  g.seed = seed;
  g.mean_length = 120.0;
  g.max_length = 400;
  return pg::generate_proteins(g).seqs;
}

std::vector<std::string> make_queries(const std::vector<std::string>& refs,
                                      std::uint32_t n = 40,
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

pio::SimilarityEdge edge(std::uint32_t a, std::uint32_t b, int score) {
  pio::SimilarityEdge e;
  e.seq_a = a;
  e.seq_b = b;
  e.score = score;
  return e;
}

}  // namespace

// ---- ResultCache unit behavior ---------------------------------------------

TEST(ResultCache, VisibilityLagEpochAndParityGateLookups) {
  ps::ResultCache::Options o;
  o.capacity_bytes = 1 << 20;
  o.n_shards = 1;
  ps::ResultCache cache(o);
  const std::string q = "ARNDARNDARND";
  const std::vector<pio::SimilarityEdge> hits{edge(3, 100, 42)};
  cache.insert(q, /*epoch=*/1, /*parity=*/0, /*ordinal=*/5, hits);

  std::vector<pio::SimilarityEdge> out;
  // Not yet visible: an entry inserted at ordinal o serves lookups at
  // ordinals >= o + lag only (the batch that inserted it — and anything
  // that may overlap it in the pipeline — must miss).
  EXPECT_FALSE(cache.lookup(q, 1, 0, /*ordinal=*/5, /*lag=*/1, out));
  EXPECT_FALSE(cache.lookup(q, 1, 0, /*ordinal=*/6, /*lag=*/2, out));
  EXPECT_TRUE(cache.lookup(q, 1, 0, /*ordinal=*/6, /*lag=*/1, out));
  EXPECT_EQ(out, hits);
  // Wrong epoch or parity: a miss, never a stale replay.
  EXPECT_FALSE(cache.lookup(q, 2, 0, 10, 1, out));
  EXPECT_FALSE(cache.lookup(q, 1, 1, 10, 1, out));
  EXPECT_FALSE(cache.lookup("other", 1, 0, 10, 1, out));

  // Negative caching: an empty hit list is a hit, not a miss.
  cache.insert("empty", 1, 0, 7, {});
  out = hits;
  EXPECT_TRUE(cache.lookup("empty", 1, 0, 9, 1, out));
  EXPECT_TRUE(out.empty());

  const auto st = cache.stats();
  EXPECT_EQ(st.insertions, 2u);
  EXPECT_EQ(st.hits, 2u);
  EXPECT_GT(st.misses, 0u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_GT(st.bytes, 0u);
}

TEST(ResultCache, LruEvictionKeepsBytesUnderCapacityAndInvalidatesExactly) {
  ps::ResultCache::Options o;
  o.capacity_bytes = 2048;  // tiny: forces eviction
  o.n_shards = 1;
  ps::ResultCache cache(o);
  for (std::uint64_t i = 0; i < 64; ++i) {
    cache.insert("query-" + std::to_string(i), 1, 0, i,
                 {edge(1, 2, static_cast<int>(i))});
  }
  auto st = cache.stats();
  EXPECT_GT(st.evictions, 0u);
  EXPECT_LE(st.bytes, o.capacity_bytes);
  EXPECT_GT(st.entries, 0u);
  // The most recent insert survives (LRU evicts from the cold end).
  std::vector<pio::SimilarityEdge> out;
  EXPECT_TRUE(cache.lookup("query-63", 1, 0, 100, 1, out));

  // invalidate_before drops exactly the pre-epoch entries.
  cache.insert("fresh", 2, 0, 200, {});
  cache.invalidate_before(2);
  st = cache.stats();
  EXPECT_EQ(st.entries, 1u);
  EXPECT_FALSE(cache.lookup("query-63", 1, 0, 300, 1, out));
  EXPECT_TRUE(cache.lookup("fresh", 2, 0, 300, 1, out));
}

// ---- DeltaIndex: folds are bit-identical to rebuilds -----------------------

TEST(DeltaIndex, FoldedServingMatchesRebuildAcrossShardCounts) {
  const auto refs0 = make_refs(60, 301);
  const auto add1 = make_refs(20, 302);
  const auto add2 = make_refs(15, 303);
  pc::PastisConfig cfg;
  std::vector<std::string> all = refs0;
  all.insert(all.end(), add1.begin(), add1.end());
  all.insert(all.end(), add2.begin(), add2.end());
  const auto queries = make_queries(all, 30, 305);

  for (int shards : {1, 3, 8}) {
    ps::DeltaIndex delta(pidx::KmerIndex::build(refs0, cfg, shards), cfg);
    (void)delta.add_references(add1);
    (void)delta.add_references(add2);
    EXPECT_EQ(delta.epoch(), 2u);
    EXPECT_EQ(delta.n_segments(), 2);
    EXPECT_EQ(delta.total_refs(), all.size());
    // Global ids are assignment-stable across the base/segment boundary.
    EXPECT_EQ(delta.ref(0), all[0]);
    EXPECT_EQ(delta.ref(static_cast<pastis::sparse::Index>(all.size() - 1)),
              all.back());

    const auto rebuilt = pidx::KmerIndex::build(all, cfg, shards);
    pidx::QueryEngine::Options opt;
    pidx::QueryEngine delta_engine(delta, cfg, pastis::sim::MachineModel{},
                                   opt);
    pidx::QueryEngine rebuilt_engine(rebuilt, cfg,
                                     pastis::sim::MachineModel{}, opt);
    const auto got = delta_engine.serve(split_batches(queries, 3));
    const auto want = rebuilt_engine.serve(split_batches(queries, 3));
    EXPECT_EQ(got.hits, want.hits) << "shards=" << shards;
    EXPECT_GT(got.hits.size(), 0u);
  }
}

TEST(DeltaIndex, CompactionIsLogicallyInvisible) {
  const auto refs0 = make_refs(50, 311);
  const auto add1 = make_refs(25, 312);
  pc::PastisConfig cfg;
  std::vector<std::string> all = refs0;
  all.insert(all.end(), add1.begin(), add1.end());
  const auto queries = make_queries(all, 25, 315);

  ps::DeltaIndex delta(pidx::KmerIndex::build(refs0, cfg, 4), cfg);
  (void)delta.add_references(add1);
  pidx::QueryEngine engine(delta, cfg, pastis::sim::MachineModel{}, {});
  const auto before = engine.serve(split_batches(queries, 2));

  EXPECT_TRUE(delta.compaction_due(0.01));
  const auto cst = delta.compact(pastis::sim::MachineModel{});
  EXPECT_EQ(cst.segments_merged, 1u);
  EXPECT_GT(cst.postings_merged, 0u);
  EXPECT_EQ(delta.n_segments(), 0);
  EXPECT_EQ(delta.epoch(), 1u);  // compaction never bumps the epoch

  // The compacted base IS the from-scratch rebuild (deep equality).
  EXPECT_TRUE(delta.base() == pidx::KmerIndex::build(all, cfg, 4));

  // And serving the same stream again is bit-identical.
  engine.reset_stream();
  const auto after = engine.serve(split_batches(queries, 2));
  EXPECT_EQ(before.hits, after.hits);
}

// ---- result cache through the engine ---------------------------------------

TEST(ServeCache, HitPathIsBitIdenticalToColdPathAcrossPoolsAndDepths) {
  const auto refs = make_refs(60, 401);
  pc::PastisConfig cfg;
  const auto base_queries = make_queries(refs, 12, 403);
  const auto stream = repeat_stream(base_queries, 48, 405);
  const auto batches = split_batches(stream, 6);
  const auto idx = pidx::KmerIndex::build(refs, cfg, 4);

  pidx::QueryEngine cold(idx, cfg, pastis::sim::MachineModel{}, {});
  const auto expected = cold.serve(batches);
  ASSERT_GT(expected.hits.size(), 0u);
  EXPECT_EQ(expected.stats.cache_hits, 0u);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const int depth : {1, 3}) {
      pastis::util::ThreadPool pool(threads);
      ps::ResultCache::Options copt;
      copt.capacity_bytes = 8u << 20;
      ps::ResultCache cache(copt);
      pidx::QueryEngine::Options opt;
      opt.pipeline_depth = depth;
      opt.result_cache = &cache;
      pidx::QueryEngine engine(idx, cfg, pastis::sim::MachineModel{}, opt,
                               &pool);
      const auto got = engine.serve(batches);
      EXPECT_EQ(got.hits, expected.hits)
          << "threads=" << threads << " depth=" << depth;
      // The repeat-heavy stream must actually hit: the generator repeats
      // 12 distinct queries 48 times, so once warmed most lookups land.
      EXPECT_GT(got.stats.cache_hits, 0u);
      EXPECT_EQ(cache.stats().hits, got.stats.cache_hits);
    }
  }
}

TEST(ServeCache, MutationInvalidatesBeforeAnyCachedReplayAcrossPools) {
  // Satellite: add_references() followed by serving a batch that was
  // cached pre-delta must never replay pre-delta results — the epoch tag
  // keys them out, under every pool size and pipeline depth.
  const auto refs0 = make_refs(50, 411);
  const auto add1 = make_refs(20, 412);
  pc::PastisConfig cfg;
  std::vector<std::string> all = refs0;
  all.insert(all.end(), add1.begin(), add1.end());
  const auto queries = make_queries(all, 20, 415);
  const auto batches = split_batches(queries, 4);

  // Oracle: a fresh engine over the rebuilt union (no cache at all).
  const auto rebuilt = pidx::KmerIndex::build(all, cfg, 4);
  pidx::QueryEngine oracle(rebuilt, cfg, pastis::sim::MachineModel{}, {});
  const auto expected = oracle.serve(batches);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    pastis::util::ThreadPool pool(threads);
    ps::TierOptions topt;
    topt.cache_capacity_bytes = 8u << 20;
    topt.engine.pipeline_depth = 2;
    ps::ServingTier tier(pidx::KmerIndex::build(refs0, cfg, 4), cfg,
                         pastis::sim::MachineModel{}, topt, &pool);
    // Warm the cache at epoch 0 with the exact queries we re-serve later.
    (void)tier.serve(batches);
    // Mutate: every epoch-0 entry becomes unreachable AND is dropped.
    (void)tier.add_references(add1);
    EXPECT_GT(tier.cache()->stats().invalidations, 0u);
    EXPECT_EQ(tier.cache()->stats().entries, 0u);
    tier.engine().reset_stream();
    const auto got = tier.serve(batches);
    EXPECT_EQ(got.hits, expected.hits) << "threads=" << threads;
    EXPECT_EQ(got.stats.cache_hits, 0u);  // nothing pre-delta replays
  }
}

// ---- the per-batch shard → server map --------------------------------------

namespace {

/// Per-rank SpGEMM products charged to the engine's runtime clocks so far.
std::vector<std::uint64_t> rank_products(const pidx::QueryEngine& engine) {
  std::vector<std::uint64_t> out;
  for (const auto& c : engine.runtime()->clocks()) {
    out.push_back(c.spgemm_products);
  }
  return out;
}

/// Element-wise `after - before`: one batch's per-rank products.
std::vector<std::uint64_t> products_since(
    const pidx::QueryEngine& engine, const std::vector<std::uint64_t>& before) {
  auto out = rank_products(engine);
  for (std::size_t r = 0; r < out.size(); ++r) out[r] -= before[r];
  return out;
}

std::uint64_t total(const std::vector<std::uint64_t>& v) {
  std::uint64_t t = 0;
  for (const auto x : v) t += x;
  return t;
}

}  // namespace

TEST(QueryEngine, ShardServerMapFollowsPlacementAndFaults) {
  const auto refs = make_refs(80, 431);
  const auto queries = make_queries(refs, 24, 433);
  pc::PastisConfig cfg;
  const auto idx = pidx::KmerIndex::build(refs, cfg, 8);
  pidx::QueryEngine::Options opt;
  opt.grid_side = 2;

  // Re-placement: moving one primary moves its products from the donor's
  // clock to the target's, and nothing else.
  {
    pidx::QueryEngine engine(idx, cfg, pastis::sim::MachineModel{}, opt);
    const auto hits_before = engine.serve({queries}).hits;
    const auto before = rank_products(engine);
    const int donor = static_cast<int>(
        std::max_element(before.begin(), before.end()) - before.begin());
    const int target = (donor + 1) % 4;
    pidx::ShardPlacement moved = *engine.placement();
    const int shard = moved.shards_of(donor).front();
    const auto si = static_cast<std::size_t>(shard);
    const std::uint64_t bytes = idx.shard_bytes()[si];
    moved.primary[si] = target;
    moved.replicas[si] = {target};
    moved.rank_resident_bytes[static_cast<std::size_t>(donor)] -= bytes;
    moved.rank_resident_bytes[static_cast<std::size_t>(target)] += bytes;
    const pidx::ShardMigration migration{shard, donor, target, bytes};
    (void)engine.apply_replacement(moved, {&migration, 1});

    engine.reset_stream();
    const auto hits_after = engine.serve({queries}).hits;
    const auto after = products_since(engine, before);
    EXPECT_EQ(hits_after, hits_before);
    EXPECT_EQ(total(after), total(before));
    const std::uint64_t shifted = before[static_cast<std::size_t>(donor)] -
                                  after[static_cast<std::size_t>(donor)];
    EXPECT_GT(shifted, 0u);
    EXPECT_EQ(after[static_cast<std::size_t>(target)],
              before[static_cast<std::size_t>(target)] + shifted);
    for (int r = 0; r < 4; ++r) {
      if (r == donor || r == target) continue;
      EXPECT_EQ(after[static_cast<std::size_t>(r)],
                before[static_cast<std::size_t>(r)]);
    }
  }

  // Faults: rank 1 dies at batch 1. From then on it charges no products,
  // and its shards' products land on their first alive replicas.
  {
    opt.replication = 2;
    pc::PastisConfig faulty_cfg = cfg;
    faulty_cfg.fault_plan = pastis::sim::FaultPlan::parse("kill@b1:r1");
    pidx::QueryEngine faulty(idx, faulty_cfg, pastis::sim::MachineModel{},
                             opt);
    pidx::QueryEngine healthy(idx, cfg, pastis::sim::MachineModel{}, opt);
    const pidx::ShardPlacement& pl = *healthy.placement();
    std::vector<char> receives(4, 0);
    for (int s = 0; s < pl.n_shards(); ++s) {
      const auto& holders = pl.replicas[static_cast<std::size_t>(s)];
      if (holders[0] == 1) receives[static_cast<std::size_t>(holders[1])] = 1;
    }
    for (int b = 0; b < 3; ++b) {
      const auto f0 = rank_products(faulty);
      const auto h0 = rank_products(healthy);
      EXPECT_EQ(faulty.serve({queries}).hits, healthy.serve({queries}).hits);
      const auto f = products_since(faulty, f0);
      const auto h = products_since(healthy, h0);
      if (b == 0) {
        EXPECT_EQ(f, h);
        continue;
      }
      EXPECT_EQ(f[1], 0u) << "batch " << b;
      EXPECT_EQ(total(f), total(h)) << "batch " << b;
      std::uint64_t landed = 0;
      for (std::size_t r = 0; r < 4; ++r) {
        if (r == 1) continue;
        if (receives[r] == 0) {
          EXPECT_EQ(f[r], h[r]) << "batch " << b << " rank " << r;
        } else {
          EXPECT_GE(f[r], h[r]) << "batch " << b << " rank " << r;
          landed += f[r] - h[r];
        }
      }
      EXPECT_GT(h[1], 0u);
      EXPECT_EQ(landed, h[1]) << "batch " << b;
    }
  }
}

// ---- online re-placement ---------------------------------------------------

TEST(ShardPlacement, RebalanceIsIncrementalDeterministicAndImproving) {
  const std::vector<std::uint64_t> bytes{100, 90, 80, 70, 30, 20, 10, 5};
  auto pl = pidx::ShardPlacement::balance(bytes, 4, 2);

  // Undrifted loads: a well-placed layout yields zero migrations.
  const auto same = pidx::ShardPlacement::rebalance(pl, bytes);
  EXPECT_TRUE(same.migrations.empty());

  // Drift: one shard grows 20x (a compaction folded deltas into it).
  auto drifted = bytes;
  drifted[7] = 2000;
  const auto rb = pidx::ShardPlacement::rebalance(pl, drifted);
  rb.placement.validate();
  EXPECT_EQ(rb.placement.n_shards(), pl.n_shards());
  // Deterministic: the same inputs reproduce the same moves.
  const auto rb2 = pidx::ShardPlacement::rebalance(pl, drifted);
  EXPECT_EQ(rb.migrations.size(), rb2.migrations.size());
  for (std::size_t i = 0; i < rb.migrations.size(); ++i) {
    EXPECT_EQ(rb.migrations[i].shard, rb2.migrations[i].shard);
    EXPECT_EQ(rb.migrations[i].from, rb2.migrations[i].from);
    EXPECT_EQ(rb.migrations[i].to, rb2.migrations[i].to);
    EXPECT_EQ(rb.migrations[i].bytes, rb2.migrations[i].bytes);
  }
  // Never worse than staying put: recompute the stay-put peak.
  pidx::ShardPlacement stay = pl;
  stay.rank_resident_bytes.assign(static_cast<std::size_t>(pl.n_ranks), 0);
  for (int s = 0; s < pl.n_shards(); ++s) {
    for (const int r : pl.replicas[static_cast<std::size_t>(s)]) {
      stay.rank_resident_bytes[static_cast<std::size_t>(r)] +=
          drifted[static_cast<std::size_t>(s)];
    }
  }
  EXPECT_LE(rb.placement.max_rank_resident_bytes(),
            stay.max_rank_resident_bytes());

  EXPECT_THROW(
      (void)pidx::ShardPlacement::rebalance(
          pl, std::vector<std::uint64_t>{1, 2, 3}),
      std::invalid_argument);
}

TEST(DistributedServe, DeltaFoldAndCacheStayBitIdenticalOnTheGrid) {
  const auto refs0 = make_refs(50, 431);
  const auto add1 = make_refs(20, 432);
  pc::PastisConfig cfg;
  std::vector<std::string> all = refs0;
  all.insert(all.end(), add1.begin(), add1.end());
  const auto base_queries = make_queries(all, 10, 435);
  const auto stream = repeat_stream(base_queries, 30, 437);
  const auto batches = split_batches(stream, 5);

  const auto rebuilt = pidx::KmerIndex::build(all, cfg, 4);
  pidx::QueryEngine oracle(rebuilt, cfg, pastis::sim::MachineModel{}, {});
  const auto expected = oracle.serve(batches);

  for (const int side : {1, 2}) {
    ps::TierOptions topt;
    topt.engine.grid_side = side;
    topt.cache_capacity_bytes = 8u << 20;
    topt.compaction_trigger_ratio = 0.05;
    topt.online_replacement = true;
    ps::ServingTier tier(pidx::KmerIndex::build(refs0, cfg, 4), cfg,
                         pastis::sim::MachineModel{}, topt);
    (void)tier.add_references(add1);
    EXPECT_EQ(tier.stats().compactions, 1u);  // trigger fired on the add
    EXPECT_GT(tier.stats().compact_modeled_seconds, 0.0);
    const auto got = tier.serve(batches);
    EXPECT_EQ(got.hits, expected.hits) << "grid_side=" << side;
    EXPECT_GT(got.stats.cache_hits, 0u);
    // Migration cost (when any migrated) lands on the kMigrate component.
    if (tier.stats().migrated_shards > 0) {
      const auto* rt = tier.engine().runtime();
      ASSERT_NE(rt, nullptr);
      double migrate_s = 0.0;
      for (int r = 0; r < rt->nprocs(); ++r) {
        migrate_s += rt->clock(r).get(pastis::sim::Comp::kMigrate);
      }
      EXPECT_GT(migrate_s, 0.0);
      EXPECT_GT(tier.stats().migrate_modeled_seconds, 0.0);
    }
  }
}

TEST(ServingTier, DisabledTierMatchesPlainEngineExactly) {
  const auto refs = make_refs(50, 441);
  pc::PastisConfig cfg;
  const auto queries = make_queries(refs, 20, 443);
  const auto batches = split_batches(queries, 4);
  const auto idx = pidx::KmerIndex::build(refs, cfg, 3);

  pidx::QueryEngine plain(idx, cfg, pastis::sim::MachineModel{}, {});
  const auto expected = plain.serve(batches);

  ps::ServingTier tier(pidx::KmerIndex::build(refs, cfg, 3), cfg,
                       pastis::sim::MachineModel{}, {});
  EXPECT_EQ(tier.cache(), nullptr);
  const auto got = tier.serve(batches);
  EXPECT_EQ(got.hits, expected.hits);
  EXPECT_EQ(got.stats.cache_hits, 0u);
}
