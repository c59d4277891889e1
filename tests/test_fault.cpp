// Fault-tolerance tests: plan grammar round-trips, snapshot semantics,
// runtime death enforcement, retry-policy determinism, and the serving
// acceptance bars — a fixed fault plan yields bit-identical surviving hits
// and degraded masks at any host pool size, replication >= 2 loses zero
// hits to a single death, and replication = 1 degrades to exactly the dead
// primary's shards.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "exec/retry.hpp"
#include "gen/protein_gen.hpp"
#include "index/kmer_index.hpp"
#include "index/query_engine.hpp"
#include "sim/fault.hpp"
#include "sim/runtime.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pc = pastis::core;
namespace pg = pastis::gen;
namespace pidx = pastis::index;
namespace pio = pastis::io;
namespace ps = pastis::sim;

namespace {

std::vector<std::string> make_refs(std::uint32_t n = 90,
                                   std::uint64_t seed = 301) {
  pg::GenConfig g;
  g.n_sequences = n;
  g.seed = seed;
  g.mean_length = 120.0;
  g.max_length = 500;
  return pg::generate_proteins(g).seqs;
}

std::vector<std::string> make_queries(const std::vector<std::string>& refs,
                                      std::uint32_t n = 30,
                                      std::uint64_t seed = 303) {
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

}  // namespace

// ---------------------------------------------------------------------------
// FaultPlan grammar + snapshot semantics
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesTheGrammarAndRoundTrips) {
  const auto plan =
      ps::FaultPlan::parse("kill@b2:r3; slow@b1:r0x4+2 ;drop@b0:r1+3");
  ASSERT_EQ(plan.events.size(), 3u);

  EXPECT_EQ(plan.events[0].kind, ps::FaultKind::kDeath);
  EXPECT_EQ(plan.events[0].rank, 3);
  EXPECT_EQ(plan.events[0].at_batch, 2u);

  EXPECT_EQ(plan.events[1].kind, ps::FaultKind::kSlowdown);
  EXPECT_EQ(plan.events[1].rank, 0);
  EXPECT_DOUBLE_EQ(plan.events[1].factor, 4.0);
  EXPECT_EQ(plan.events[1].for_batches, 2u);

  EXPECT_EQ(plan.events[2].kind, ps::FaultKind::kDropMessages);
  EXPECT_EQ(plan.events[2].for_batches, 3u);

  // Round-trip: to_string re-parses to the same plan.
  EXPECT_EQ(ps::FaultPlan::parse(plan.to_string()), plan);

  EXPECT_TRUE(ps::FaultPlan::parse("").empty());
  EXPECT_THROW(ps::FaultPlan::parse("explode@b0:r1"), std::invalid_argument);
  EXPECT_THROW(ps::FaultPlan::parse("kill@b0"), std::invalid_argument);
  EXPECT_THROW(ps::FaultPlan::parse("kill@x0:r1"), std::invalid_argument);
  EXPECT_THROW(ps::FaultPlan::parse("kill@b0:q1"), std::invalid_argument);
  EXPECT_THROW(ps::FaultPlan::parse("slow@b0:r1x0.5"),
               std::invalid_argument);  // factor < 1 fails validate()
  EXPECT_THROW(ps::FaultPlan::parse("kill@b0:r1zzz"), std::invalid_argument);
}

TEST(FaultPlan, RejectsMalformedNumbersNamingTheToken) {
  // Every number must span its whole field, fit its type and, for a
  // slowdown factor, be finite and >= 1; time triggers are not part of the
  // grammar. Each rejection is an std::invalid_argument that names the
  // offending token.
  for (const std::string tok :
       {"kill@b99999999999999999999999:r1", "kill@b0:r99999999999",
        "slow@b0:r1x1e999", "kill@b-1:r1", "drop@b0:r1+-2", "kill@b1x:r1",
        "slow@b0:r1xnan", "slow@b0:r1xinf", "kill@t1.5:r2"}) {
    try {
      (void)ps::FaultPlan::parse("kill@b0:r0; " + tok);
      ADD_FAILURE() << tok << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(tok), std::string::npos)
          << tok << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << tok << " threw a non-invalid_argument: " << e.what();
    }
  }

  // validate() applies the same event rules to plans built in code.
  for (const double factor : {std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    ps::FaultPlan plan;
    plan.events.push_back({ps::FaultKind::kSlowdown, 1, 0, factor, 0});
    EXPECT_THROW(plan.validate(), std::invalid_argument) << factor;
  }
}

TEST(FaultPlan, SnapshotIsAPureFunctionOfTheBatchOrdinal) {
  const auto plan = ps::FaultPlan::parse(
      "kill@b2:r1;slow@b1:r0x3+2;slow@b2:r0x5+1;drop@b0:r2+2;kill@b0:r99");
  const int p = 3;

  // Batch 0: only the drop window is active; rank 99 is ignored.
  auto s0 = plan.snapshot_at_batch(0, p);
  EXPECT_FALSE(s0.dead[0] || s0.dead[1] || s0.dead[2]);
  EXPECT_DOUBLE_EQ(s0.slowdown[0], 1.0);
  EXPECT_TRUE(s0.drop[2]);
  EXPECT_TRUE(s0.any());

  // Batch 2: death fired, the two slowdown windows overlap (max factor
  // wins), the drop window [0, 2) has expired.
  auto s2 = plan.snapshot_at_batch(2, p);
  EXPECT_TRUE(s2.dead[1]);
  EXPECT_DOUBLE_EQ(s2.slowdown[0], 5.0);
  EXPECT_FALSE(s2.drop[2]);
  EXPECT_EQ(s2.n_alive(), 2);
  EXPECT_EQ(s2.next_alive(1), 2);
  EXPECT_EQ(s2.next_alive(2), 2);

  // Batch 1000: the death is permanent, every window expired.
  auto s1000 = plan.snapshot_at_batch(1000, p);
  EXPECT_TRUE(s1000.dead[1]);
  EXPECT_FALSE(s1000.dead[0]);
  EXPECT_DOUBLE_EQ(s1000.slowdown[0], 1.0);
  EXPECT_FALSE(s1000.drop[2]);

  // All-dead corner: next_alive reports -1.
  auto all = ps::FaultPlan::parse("kill@b0:r0").snapshot_at_batch(0, 1);
  EXPECT_EQ(all.n_alive(), 0);
  EXPECT_EQ(all.next_alive(0), -1);
  EXPECT_TRUE(all.any());

  EXPECT_FALSE(ps::FaultPlan{}.snapshot_at_batch(5, p).any());
}

// ---------------------------------------------------------------------------
// SimRuntime death enforcement
// ---------------------------------------------------------------------------

TEST(SimRuntimeFaults, DeadRanksSkipTasksFreezeClocksAndReleaseResident) {
  pastis::util::ThreadPool pool(4);
  ps::SimRuntime rt(4, {}, &pool);
  for (int r = 0; r < 4; ++r) rt.clock(r).add_resident(1000);
  EXPECT_EQ(rt.n_alive(), 4);
  rt.kill_rank(2);
  EXPECT_EQ(rt.n_alive(), 3);
  EXPECT_FALSE(rt.alive(2));

  // The dead rank's resident bytes are released; the high-water mark keeps
  // the history.
  EXPECT_EQ(rt.clock(2).resident_bytes, 0u);
  EXPECT_EQ(rt.peak_resident_bytes()[2], 1000u);
  EXPECT_EQ(rt.clock(1).resident_bytes, 1000u);

  // spmd skips the dead rank.
  std::vector<int> ran(4, 0);
  rt.spmd([&](int r) { ran[static_cast<std::size_t>(r)] = 1; });
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 0, 1}));

  // merge_frame drops the dead rank's entries: its clock is frozen.
  std::vector<ps::RankClock> frame(4);
  for (auto& c : frame) c.charge(ps::Comp::kSpGemm, 2.0);
  rt.merge_frame(frame);
  EXPECT_DOUBLE_EQ(rt.clock(1).get(ps::Comp::kSpGemm), 2.0);
  EXPECT_DOUBLE_EQ(rt.clock(2).get(ps::Comp::kSpGemm), 0.0);

  // Idempotent kill: a second kill changes nothing.
  rt.kill_rank(2);
  EXPECT_EQ(rt.n_alive(), 3);
}

// ---------------------------------------------------------------------------
// RetryPolicy determinism
// ---------------------------------------------------------------------------

TEST(RetryPolicy, BackoffIsDeterministicJitteredAndExponential) {
  pastis::exec::RetryPolicy rp;
  rp.backoff_base_s = 0.01;
  rp.backoff_multiplier = 2.0;
  rp.jitter_frac = 0.25;

  // Pure function of (seed, key, attempt).
  EXPECT_DOUBLE_EQ(rp.backoff_s(7, 1), rp.backoff_s(7, 1));
  EXPECT_NE(rp.backoff_s(7, 1), rp.backoff_s(8, 1));

  for (int attempt = 1; attempt <= 4; ++attempt) {
    double nominal = rp.backoff_base_s;
    for (int k = 1; k < attempt; ++k) nominal *= rp.backoff_multiplier;
    for (std::uint64_t key : {0ull, 7ull, 123456789ull}) {
      const double b = rp.backoff_s(key, attempt);
      EXPECT_GE(b, nominal * 0.75);
      EXPECT_LT(b, nominal * 1.25);
    }
  }

  // A different seed permutes the jitter.
  pastis::exec::RetryPolicy other = rp;
  other.seed ^= 0xdeadbeef;
  EXPECT_NE(rp.backoff_s(7, 1), other.backoff_s(7, 1));
}

TEST(RetryPolicy, PenaltiesFollowTheTaxonomy) {
  pastis::exec::RetryPolicy rp;
  EXPECT_FALSE(rp.timeouts_enabled());  // timeout_s = 0 default: disabled
  EXPECT_DOUBLE_EQ(rp.slow_task_penalty(100.0, 1).seconds, 0.0);

  rp.timeout_s = 0.5;
  rp.max_attempts = 3;
  ASSERT_TRUE(rp.timeouts_enabled());
  // A fast task never pays.
  EXPECT_EQ(rp.slow_task_penalty(0.4, 1).retries, 0u);
  // A persistently slow task pays (max_attempts - 1) timeouts + backoffs,
  // then its final patient attempt runs to completion.
  const auto pen = rp.slow_task_penalty(2.0, 1);
  EXPECT_EQ(pen.retries, 2u);
  EXPECT_GT(pen.seconds, 2 * rp.timeout_s);
  EXPECT_DOUBLE_EQ(pen.seconds, rp.timeout_s + rp.backoff_s(1, 1) +
                                    rp.timeout_s + rp.backoff_s(1, 2));

  // One dropped send: the wasted attempt plus one backoff.
  EXPECT_DOUBLE_EQ(rp.drop_resend_penalty_s(0.3, 9),
                   0.3 + rp.backoff_s(9, 1));

  rp.max_attempts = 1;
  EXPECT_FALSE(rp.timeouts_enabled());
}

// ---------------------------------------------------------------------------
// Serving under faults: determinism, failover, degradation
// ---------------------------------------------------------------------------

namespace {

struct FaultServeCase {
  std::vector<pio::SimilarityEdge> hits;
  pidx::ServeStats stats;
};

FaultServeCase serve_with_plan(const pidx::KmerIndex& idx,
                               const std::string& plan, int side,
                               int replication, std::size_t threads,
                               const std::vector<std::vector<std::string>>&
                                   batches,
                               double retry_timeout_s = 0.0) {
  pc::PastisConfig cfg;
  cfg.fault_plan = ps::FaultPlan::parse(plan);
  cfg.retry.timeout_s = retry_timeout_s;
  pastis::util::ThreadPool pool(threads);
  pidx::QueryEngine::Options opt;
  opt.grid_side = side;
  opt.replication = replication;
  pidx::QueryEngine engine(idx, cfg, {}, opt, &pool);
  auto result = engine.serve(batches);
  return {std::move(result.hits), std::move(result.stats)};
}

}  // namespace

TEST(FaultServe, EmptyPlanReportsACompleteStream) {
  const auto refs = make_refs();
  const auto queries = make_queries(refs);
  const auto idx = pidx::KmerIndex::build(refs, pc::PastisConfig{}, 5);
  const auto r = serve_with_plan(idx, "", 2, 2, 4, split_batches(queries, 3));
  EXPECT_GT(r.hits.size(), 5u);
  EXPECT_EQ(r.stats.rank_deaths, 0u);
  EXPECT_EQ(r.stats.failover_shards, 0u);
  EXPECT_EQ(r.stats.retries, 0u);
  EXPECT_EQ(r.stats.degraded_shard_batches, 0u);
  EXPECT_DOUBLE_EQ(r.stats.recovery_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.stats.completeness, 1.0);
  for (const auto& b : r.stats.batches) {
    EXPECT_TRUE(b.degraded_shards.empty());
    EXPECT_TRUE(b.rank_recovery_s.empty());
  }
}

TEST(FaultServe, FixedPlanIsBitIdenticalAcrossPoolSizesAndGridSides) {
  // The acceptance bar: for a FIXED plan, surviving hits and per-batch
  // degraded masks are bit-identical at any host pool size, for every
  // grid side (including side 1, where killing rank 0 degrades the whole
  // tail of the stream).
  const auto refs = make_refs();
  const auto queries = make_queries(refs);
  const auto idx = pidx::KmerIndex::build(refs, pc::PastisConfig{}, 5);
  const auto batches = split_batches(queries, 3);
  const std::string plan = "kill@b1:r1;slow@b0:r0x3+1;kill@b2:r0";

  for (int side : {1, 2, 3}) {
    FaultServeCase first;
    bool have_first = false;
    for (std::size_t threads : {1u, 2u, 8u}) {
      auto r = serve_with_plan(idx, plan, side, 1, threads, batches,
                               /*retry_timeout_s=*/1e-9);
      if (!have_first) {
        first = std::move(r);
        have_first = true;
        continue;
      }
      EXPECT_EQ(r.hits, first.hits) << "side=" << side
                                    << " threads=" << threads;
      EXPECT_DOUBLE_EQ(r.stats.t_serve, first.stats.t_serve);
      EXPECT_EQ(r.stats.retries, first.stats.retries);
      EXPECT_DOUBLE_EQ(r.stats.recovery_seconds,
                       first.stats.recovery_seconds);
      ASSERT_EQ(r.stats.batches.size(), first.stats.batches.size());
      for (std::size_t b = 0; b < r.stats.batches.size(); ++b) {
        EXPECT_EQ(r.stats.batches[b].degraded_shards,
                  first.stats.batches[b].degraded_shards)
            << "side=" << side << " batch=" << b;
      }
    }
    // Ranks outside the grid are ignored: side 1 only sees the rank-0
    // events; killing rank 0 at batch 2 degrades every shard there.
    if (side == 1) {
      EXPECT_EQ(first.stats.rank_deaths, 1u);
      EXPECT_EQ(static_cast<int>(
                    first.stats.batches.back().degraded_shards.size()),
                first.stats.n_shards);
    }
  }
}

TEST(FaultServe, ReplicationTwoLosesZeroHitsToASingleDeath) {
  const auto refs = make_refs();
  const auto queries = make_queries(refs);
  const auto idx = pidx::KmerIndex::build(refs, pc::PastisConfig{}, 5);
  const auto batches = split_batches(queries, 3);

  const auto expected =
      serve_with_plan(idx, "", 2, 2, 4, batches);
  ASSERT_GT(expected.hits.size(), 5u);

  const auto faulted = serve_with_plan(idx, "kill@b1:r1", 2, 2, 4, batches);
  EXPECT_EQ(faulted.hits, expected.hits);  // zero hit loss
  EXPECT_DOUBLE_EQ(faulted.stats.completeness, 1.0);
  EXPECT_EQ(faulted.stats.rank_deaths, 1u);
  EXPECT_EQ(faulted.stats.degraded_shard_batches, 0u);
  EXPECT_GT(faulted.stats.failover_shards, 0u);
  EXPECT_GT(faulted.stats.recovery_seconds, 0.0);
  // Failover costs modeled time (on the recovering ranks — the stream
  // makespan can only stay or grow), never results.
  EXPECT_GE(faulted.stats.t_serve, expected.stats.t_serve);
  // The re-placement resident bytes land on surviving ranks' ledgers.
  std::uint64_t surv_expected = 0;
  std::uint64_t surv_faulted = 0;
  for (int r = 0; r < 4; ++r) {
    if (r == 1) continue;
    surv_expected += expected.stats.rank_peak_resident_bytes[
        static_cast<std::size_t>(r)];
    surv_faulted += faulted.stats.rank_peak_resident_bytes[
        static_cast<std::size_t>(r)];
  }
  EXPECT_GT(surv_faulted, surv_expected);
}

TEST(FaultServe, ReplicationOneDegradesToExactlyTheDeadPrimarysShards) {
  const auto refs = make_refs();
  const auto queries = make_queries(refs);
  const auto idx = pidx::KmerIndex::build(refs, pc::PastisConfig{}, 5);
  const auto batches = split_batches(queries, 3);
  const int dead = 1;

  const auto expected = serve_with_plan(idx, "", 2, 1, 4, batches);
  const auto faulted = serve_with_plan(idx, "kill@b1:r1", 2, 1, 4, batches);

  // The placement is deterministic, so recompute the dead primary's shards.
  const auto pl = pidx::ShardPlacement::balance(idx.shard_bytes(), 4, 1);
  const auto lost = pl.shards_of(dead);
  ASSERT_FALSE(lost.empty());

  ASSERT_EQ(faulted.stats.batches.size(), 3u);
  EXPECT_TRUE(faulted.stats.batches[0].degraded_shards.empty());
  EXPECT_EQ(faulted.stats.batches[1].degraded_shards, lost);
  EXPECT_EQ(faulted.stats.batches[2].degraded_shards, lost);
  EXPECT_EQ(faulted.stats.degraded_shard_batches, 2 * lost.size());
  EXPECT_DOUBLE_EQ(
      faulted.stats.completeness,
      1.0 - static_cast<double>(2 * lost.size()) / (3.0 * 5.0));
  EXPECT_LT(faulted.stats.completeness, 1.0);

  // Partial results: a strict subset of the fault-free hits, and batch 0
  // (before the death) is untouched.
  EXPECT_LT(faulted.hits.size(), expected.hits.size());
  std::set<std::pair<std::uint32_t, std::uint32_t>> full;
  for (const auto& e : expected.hits) full.insert({e.seq_a, e.seq_b});
  for (const auto& e : faulted.hits) {
    EXPECT_TRUE(full.count({e.seq_a, e.seq_b}) > 0);
  }
  EXPECT_EQ(faulted.stats.batches[0].hits, expected.stats.batches[0].hits);
}

TEST(FaultServe, TransientFaultsCostLatencyNeverResults) {
  const auto refs = make_refs();
  const auto queries = make_queries(refs);
  const auto idx = pidx::KmerIndex::build(refs, pc::PastisConfig{}, 5);
  const auto batches = split_batches(queries, 3);

  const auto clean = serve_with_plan(idx, "", 2, 1, 4, batches);
  // A slow rank with retry timeouts enabled: identical hits, retries
  // charged, makespan dilated.
  const auto slow = serve_with_plan(idx, "slow@b0:r0x4", 2, 1, 4, batches,
                                    /*retry_timeout_s=*/1e-9);
  EXPECT_EQ(slow.hits, clean.hits);
  EXPECT_GT(slow.stats.retries, 0u);
  EXPECT_GE(slow.stats.t_serve, clean.stats.t_serve);
  EXPECT_DOUBLE_EQ(slow.stats.completeness, 1.0);
  // The slowed rank's discovery seconds dilate by the factor (plus the
  // retry ladder) in every batch.
  ASSERT_GT(clean.stats.batches[0].rank_sparse_s[0], 0.0);
  EXPECT_GT(slow.stats.batches[0].rank_sparse_s[0],
            3.9 * clean.stats.batches[0].rank_sparse_s[0]);

  // A dropping rank: identical hits, makespan no faster.
  const auto drop = serve_with_plan(idx, "drop@b0:r1", 2, 1, 4, batches);
  EXPECT_EQ(drop.hits, clean.hits);
  EXPECT_GE(drop.stats.t_serve, clean.stats.t_serve);
}

TEST(FaultServe, BatchAtATimeServeAppliesTheSamePlan) {
  const auto refs = make_refs();
  const auto queries = make_queries(refs, 20, 305);
  const auto idx = pidx::KmerIndex::build(refs, pc::PastisConfig{}, 5);

  pc::PastisConfig cfg;
  cfg.fault_plan = ps::FaultPlan::parse("kill@b1:r1");
  pastis::util::ThreadPool pool(4);
  pidx::QueryEngine::Options opt;
  opt.grid_side = 2;
  opt.replication = 2;
  pidx::QueryEngine faulted(idx, cfg, {}, opt, &pool);
  pidx::QueryEngine clean(idx, pc::PastisConfig{}, {}, opt, &pool);

  const auto batches = split_batches(queries, 2);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const auto f = faulted.serve({batches[b]});
    const auto c = clean.serve({batches[b]});
    EXPECT_EQ(f.hits, c.hits) << "batch " << b;  // replication 2: zero loss
    const pidx::QueryBatchStats& fs = f.stats.batches[0];
    EXPECT_TRUE(fs.degraded_shards.empty());
    if (b == 1) {
      EXPECT_GT(fs.failover_shards, 0u);
      EXPECT_GT(fs.recovery_s, 0.0);
    }
  }
  EXPECT_FALSE(faulted.runtime()->alive(1));
  EXPECT_EQ(faulted.runtime()->n_alive(), 3);
}
