#include "index/query_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/kmer_matrix.hpp"
#include "core/load_balance.hpp"
#include "core/stages.hpp"
#include "exec/stream_pipeline.hpp"
#include "exec/timeline.hpp"
#include "kmer/codec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/delta_index.hpp"
#include "serve/result_cache.hpp"
#include "sim/grid.hpp"

namespace pastis::index {

namespace {

using align::AlignResult;
using align::AlignTask;
using core::CommonKmers;
using core::KmerPos;
using sparse::SpMat;

}  // namespace

/// One in-flight batch streaming through discover → screen → align. Slots
/// are reused across the batches they serve (executor slot = item % depth),
/// so the per-rank work buffers keep their capacity instead of being
/// reallocated per batch.
struct QueryEngine::BatchSlot {
  std::span<const std::string> queries;
  Index batch_base = 0;
  std::uint64_t ordinal = 0;  // stream position; fixes the owner rank
  QueryBatchStats st;
  /// Per align-owner rank: staged candidates, tasks, results and edges
  /// (the shared stage bodies of core/stages.hpp).
  core::RankWork work;
  std::vector<io::SimilarityEdge> hits;
  /// Grid mode: the detached per-rank clock frame this batch charges
  /// while concurrent slots are in flight; the engine merges it into the
  /// SimRuntime in batch order at retirement.
  std::vector<sim::RankClock> frame;
  /// Fault state of THIS batch — the pure per-ordinal snapshot (so
  /// concurrently in-flight batches never share mutable fault state; every
  /// rank alive and healthy without a fault plan) and the sequentially
  /// precomputed failover recoveries surfacing here.
  sim::FaultSnapshot snap;
  QueryEngine::BatchFaults faults;
  /// Result-cache state (empty without a cache): per-query hit flag and
  /// the replayed hit lists (seq_b still carries the ORIGINAL query id;
  /// the align stage rebases it).
  std::vector<char> cached;
  std::vector<std::vector<io::SimilarityEdge>> cached_hits;

  void reset(std::span<const std::string> q, Index base, std::uint64_t ord,
             int p, bool grid) {
    const auto np = static_cast<std::size_t>(p);
    queries = q;
    batch_base = base;
    ordinal = ord;
    st = {};
    st.n_queries = q.size();
    work.reset(p);
    hits.clear();
    snap = {};
    faults = {};
    cached.clear();
    cached_hits.clear();
    if (grid) {
      st.rank_sparse_s.assign(np, 0.0);
      st.rank_align_s.assign(np, 0.0);
      st.rank_workspace_bytes.assign(np, 0);
      frame.assign(np, sim::RankClock{});
    } else {
      frame.clear();
    }
  }

  /// The rank that assembles this batch and selects its top-k: the stream
  /// position mod p, failing over to the next alive rank (-1: all dead).
  [[nodiscard]] int owner(int p) const {
    return snap.next_alive(
        static_cast<int>(ordinal % static_cast<std::uint64_t>(p)));
  }
};

/// What discovery computed for one batch, before pricing: which rank
/// served each shard and, per (source, shard) cell, the products and the
/// part bytes its multiply produced, plus the volumes the schedule moves.
struct QueryEngine::DiscoveryWork {
  /// Shard -> the rank that multiplies it this batch; -1 = degraded.
  std::vector<int> server;
  int n_src = 1;  // base index + delta segments
  std::vector<std::uint64_t> cell_products;
  std::vector<std::uint64_t> cell_bytes;
  std::uint64_t stripe_bytes = 0;    // A_query parts
  std::uint64_t query_residues = 0;  // uncached queries' residues
  std::uint64_t cached_bytes = 0;    // replayed cache hit lists
  std::uint64_t overlap_bytes = 0;   // the merged overlap matrix
  std::uint64_t overlap_nnz = 0;
};

QueryEngine::QueryEngine(const KmerIndex& index, core::PastisConfig cfg,
                         sim::MachineModel model, Options opt,
                         util::ThreadPool* pool)
    : QueryEngine(nullptr, index, std::move(cfg), std::move(model),
                  std::move(opt), pool) {}

QueryEngine::QueryEngine(const serve::DeltaIndex& delta,
                         core::PastisConfig cfg, sim::MachineModel model,
                         Options opt, util::ThreadPool* pool)
    : QueryEngine(&delta, delta.base(), std::move(cfg), std::move(model),
                  std::move(opt), pool) {}

QueryEngine::QueryEngine(const serve::DeltaIndex* delta, const KmerIndex& index,
                         core::PastisConfig cfg, sim::MachineModel model,
                         Options opt, util::ThreadPool* pool)
    : index_(&index), delta_(delta),
      served_epoch_(delta != nullptr ? delta->epoch() : 0), cfg_(cfg),
      model_(model), opt_(opt), pool_(pool),
      aligner_(core::make_batch_aligner(cfg, model)) {
  if (!index.params().matches(cfg)) {
    throw std::invalid_argument(
        "QueryEngine: config discovery parameters disagree with the index "
        "(k / alphabet / substitute-k-mer settings must match)");
  }
  if (opt_.nprocs < 1 || opt_.grid_side < 0 || opt_.replication < 1) {
    throw std::invalid_argument(
        "QueryEngine: need nprocs >= 1, grid_side >= 0 and replication >= 1");
  }
  cascade_sig_ = cfg_.cascade.fingerprint();
  next_query_id_ = total_refs();
  if (opt_.grid_side == 0) return;

  // ---- rank-resident distributed serving setup ----------------------------
  rt_ = std::make_unique<sim::SimRuntime>(
      opt_.grid_side * opt_.grid_side, model_,
      pool_ != nullptr ? pool_ : &util::ThreadPool::global());
  const int p = rt_->nprocs();
  placement_ = std::make_unique<ShardPlacement>(
      ShardPlacement::balance(shard_bytes_all(), p, opt_.replication));
  // The failover path promotes shards along the holder lists, so the
  // structural invariants (distinct in-range holders, primary first) are
  // load-bearing — reject a malformed placement up front.
  placement_->validate();

  faults_enabled_ = !cfg_.fault_plan.empty();
  if (faults_enabled_ && delta_ != nullptr) {
    throw std::runtime_error(
        "QueryEngine: a DeltaIndex under an active fault plan is "
        "unsupported (index mutation invalidates the planned failover "
        "residency bookkeeping)");
  }

  // Static residency starts at zero in the ledger; the resync places it
  // and applies the placement gate — no rank may be asked to keep more
  // resident than its budget (what replaced the whole-index load gate).
  static_resident_.assign(static_cast<std::size_t>(p), 0);
  resync_static_residency();

  // Fault layer: validate the plan (plans built in code skip the parser's
  // checks); the engine's own bookkeeping drives failover recovery
  // deterministically in batch-ordinal order, and the runtime enforces
  // each death inside spmd once the engine applies it.
  if (faults_enabled_) {
    cfg_.fault_plan.validate();
    dead_seen_.assign(static_cast<std::size_t>(p), 0);
    resident_estimate_ = static_resident_;
  }
}

QueryEngine::BatchFaults QueryEngine::plan_batch_faults(
    std::uint64_t ordinal) {
  BatchFaults bf;
  if (!faults_enabled_) return bf;
  const int p = rt_->nprocs();
  const auto np = static_cast<std::size_t>(p);
  bf.recovery_s.assign(np, 0.0);
  bf.new_resident.assign(np, 0);
  const auto shard_bytes = index_->shard_bytes();
  // Deaths planned before the stream surface at its first served batch;
  // multiple deaths surfacing together recover in plan-event order.
  for (const auto& e : cfg_.fault_plan.events) {
    if (e.kind != sim::FaultKind::kDeath) continue;
    if (e.rank < 0 || e.rank >= p) continue;
    if (e.at_batch > ordinal) continue;
    const auto di = static_cast<std::size_t>(e.rank);
    // Already recovered, or a duplicate kill of a dead rank.
    if (dead_seen_[di] != 0) continue;
    bf.any = true;
    bf.deaths.push_back(e.rank);

    // Shard promotions: every shard this rank was serving falls to its
    // first surviving replica. The promoted rank re-validates its stripe
    // (a stream over the shard bytes), then re-replication ships a fresh
    // copy to the least-loaded surviving rank not holding the shard —
    // restoring the lost redundancy's capacity in the ledger and the
    // timeline (the serving holder list itself stays static).
    for (int s = 0; s < placement_->n_shards(); ++s) {
      const auto& holders = placement_->replicas[static_cast<std::size_t>(s)];
      int prev_server = -1;
      int next_server = -1;
      for (const int h : holders) {
        if (dead_seen_[static_cast<std::size_t>(h)] != 0) continue;
        if (prev_server < 0) prev_server = h;
        if (h != e.rank && next_server < 0) next_server = h;
        if (prev_server >= 0 && next_server >= 0) break;
      }
      if (prev_server != e.rank || next_server < 0) continue;
      const auto sb = shard_bytes[static_cast<std::size_t>(s)];
      const auto ni = static_cast<std::size_t>(next_server);
      bf.recovery_s[ni] += model_.sparse_stream_time(sb);
      int target = -1;
      for (int r = 0; r < p; ++r) {
        if (r == e.rank || dead_seen_[static_cast<std::size_t>(r)] != 0) {
          continue;
        }
        bool holds = false;
        for (const int h : holders) {
          if (h == r && dead_seen_[static_cast<std::size_t>(h)] == 0) {
            holds = true;
            break;
          }
        }
        if (holds) continue;
        if (target < 0 || resident_estimate_[static_cast<std::size_t>(r)] <
                              resident_estimate_[static_cast<std::size_t>(
                                  target)]) {
          target = r;
        }
      }
      if (target >= 0) {
        const auto ti = static_cast<std::size_t>(target);
        bf.recovery_s[ni] += model_.p2p_time(sb);  // promoted primary sends
        bf.recovery_s[ti] += model_.p2p_time(sb);  // target receives
        bf.new_resident[ti] += sb;
        resident_estimate_[ti] += sb;
      }
    }

    dead_seen_[di] = 1;
    resident_estimate_[di] = 0;  // released when the death applies

    // Reference-slice handoff: the cyclic successor inherits the dead
    // rank's alignment ownership and receives its residue slice.
    if (ref_slice_bytes_[di] > 0) {
      int succ = -1;
      for (int k = 1; k <= p; ++k) {
        const int r = (e.rank + k) % p;
        if (dead_seen_[static_cast<std::size_t>(r)] == 0) {
          succ = r;
          break;
        }
      }
      if (succ >= 0) {
        const auto si = static_cast<std::size_t>(succ);
        bf.recovery_s[si] += model_.p2p_time(ref_slice_bytes_[di]);
        bf.new_resident[si] += ref_slice_bytes_[di];
        resident_estimate_[si] += ref_slice_bytes_[di];
      }
    }
  }
  return bf;
}

void QueryEngine::discover_batch(BatchSlot& slot) const {
  const Index n_refs = total_refs();
  const int n_shards = index_->n_shards();
  const int p = serving_ranks();
  const std::span<const std::string> queries = slot.queries;
  const Index batch_base = slot.batch_base;
  QueryBatchStats& st = slot.st;
  // ---- fault state of this batch (pure per-ordinal snapshot) ---------------
  // Without a fault plan — and always in the single address space — every
  // rank is alive and healthy, so one code path serves both.
  slot.snap = faults_enabled_
                  ? cfg_.fault_plan.snapshot_at_batch(slot.ordinal, p)
                  : sim::FaultPlan{}.snapshot_at_batch(slot.ordinal, p);
  if (queries.empty() || n_refs == 0) return;
  if (faults_enabled_) {
    st.rank_recovery_s.assign(static_cast<std::size_t>(p), 0.0);
  }
  // The load-balance parity rule (candidate extraction below) is the only
  // per-query input besides content and index epoch that alignment depends
  // on — which is why the cache key carries (hash, epoch, parity).
  const bool parity_scheme =
      cfg_.load_balance == core::LoadBalanceScheme::kIndexBased;

  // ---- the batch's shard → server map --------------------------------------
  // Which rank multiplies shard s: the round-robin rank s mod p in the
  // single address space; in grid mode the FIRST ALIVE rank on the shard's
  // holder list (primary first, so with every rank alive it is the
  // primary). A shard with no surviving holder is degraded (-1): its
  // multiply is skipped and its id recorded — partial results, never an
  // exception.
  DiscoveryWork work;
  work.server.assign(static_cast<std::size_t>(n_shards), -1);
  for (int s = 0; s < n_shards; ++s) {
    const auto si = static_cast<std::size_t>(s);
    int& server = work.server[si];
    if (rt_ == nullptr) {
      server = s % p;
      continue;
    }
    for (const int h : placement_->replicas[si]) {
      if (slot.snap.dead[static_cast<std::size_t>(h)] == 0) {
        server = h;
        break;
      }
    }
    if (server < 0) {
      st.degraded_shards.push_back(s);
    } else if (server != placement_->primary[si]) {
      ++st.failover_shards;
    }
  }

  const std::size_t nq = queries.size();

  // ---- result-cache lookup (serving tier; no-op without a cache) -----------
  // Sequential, in stream order: the executor runs each stage serially, so
  // lookups happen in ordinal order and hit/miss is deterministic. A hit
  // short-circuits the whole cold path for that query — no extraction, no
  // SpGEMM share, no alignment; the align stage replays the stored hits.
  // The insert→lookup visibility lag is the stream's depth: a batch only
  // sees entries whose batch provably retired before this discovery could
  // start, so hit/miss never depends on the schedule.
  if (opt_.result_cache != nullptr) {
    const int visibility_lag = std::max(1, opt_.pipeline_depth);
    slot.cached.assign(nq, 0);
    slot.cached_hits.assign(nq, {});
    for (std::size_t i = 0; i < nq; ++i) {
      const Index q_global = batch_base + static_cast<Index>(i);
      const std::uint32_t parity = parity_scheme ? (q_global & 1u) : 0u;
      if (opt_.result_cache->lookup(queries[i], served_epoch_, parity,
                                    slot.ordinal, visibility_lag,
                                    slot.cached_hits[i], cascade_sig_)) {
        slot.cached[i] = 1;
        ++st.cache_hits;
      }
    }
  }
  const auto is_cached = [&](std::size_t i) {
    return !slot.cached.empty() && slot.cached[i] != 0;
  };

  // ---- A_query extraction (Fig. 1 left, queries only) ----------------------
  // kmer_matrix_blocks cut at the index's shard boundaries, as in the index
  // build: block s multiplies shard s. A cached query's row stays empty.
  for (std::size_t i = 0; i < nq; ++i) {
    if (!is_cached(i)) work.query_residues += queries[i].size();
  }
  const std::vector<SpMat<KmerPos>> a_query = core::kmer_matrix_blocks(
      static_cast<Index>(nq),
      [&](Index i) {
        return is_cached(i) ? std::string_view() : std::string_view(queries[i]);
      },
      1, n_shards, /*transposed=*/false, cfg_, pool_);
  for (const auto& a : a_query) work.stripe_bytes += a.bytes();

  // Query-side minhash sketches for the index-side tier-0 screen: computed
  // only when the cascade asks for a sketch overlap AND the index carries a
  // v4 sketch table. Delta-segment references have no sketches, so their
  // candidates skip the sketch test (sketch_overlap stays -1).
  const bool cascading = cfg_.cascade.any();
  const bool sketching = cascading && cfg_.cascade.tier0_enabled &&
                         cfg_.cascade.tier0_min_sketch_overlap > 0 &&
                         index_->sketch_len() > 0;
  std::vector<std::vector<std::uint64_t>> query_sketches;
  if (sketching) {
    const kmer::Alphabet alphabet(cfg_.alphabet);
    const kmer::KmerCodec codec(alphabet.size(), cfg_.k);
    query_sketches.resize(nq);
    util::parallel_for(pool_, nq, [&](std::size_t i) {
      if (is_cached(i)) return;
      query_sketches[i] =
          KmerIndex::sketch_of(queries[i], alphabet, codec,
                               index_->sketch_len());
    });
  }

  // ---- shard-by-shard discovery SpGEMM -------------------------------------
  // With a DeltaIndex every shard is served from multiple SOURCES — the
  // base stripe plus one stripe per delta segment, all covering the same
  // k-mer range. Each (source, shard) cell multiplies independently; the
  // merge lifts segment columns to global reference ids and folds all
  // cells with the order-independent semiring add, so the overlap matrix
  // equals the single-source multiply of a from-scratch rebuild. Which
  // rank serves a shard only moves its modeled cost (charge_discovery);
  // the product is the same, so one loop covers every mode.
  work.n_src = 1 + (delta_ != nullptr ? delta_->n_segments() : 0);
  const std::size_t n_cells = static_cast<std::size_t>(work.n_src) *
                              static_cast<std::size_t>(n_shards);
  std::vector<SpMat<CrossKmers>> parts(n_cells);
  std::vector<sparse::SpGemmStats> shard_stats(n_cells);
  auto source_shard = [&](int src, int s) -> const SpMat<KmerPos>& {
    return src == 0 ? index_->shard(s) : delta_->segment(src - 1).shard(s);
  };
  auto multiply_shard = [&](std::size_t si) {
    if (work.server[si] < 0) return;
    const int s = static_cast<int>(si);
    for (int src = 0; src < work.n_src; ++src) {
      const std::size_t cell = static_cast<std::size_t>(src) *
                                   static_cast<std::size_t>(n_shards) +
                               si;
      const auto& B = source_shard(src, s);
      if (a_query[si].empty() || B.empty()) continue;
      // Shards already fan out over the pool; the two-phase kernel may fan
      // out further (nested parallel_for is safe — see util::ThreadPool),
      // which matters when a batch hits few shards.
      parts[cell] = core::discovery_spgemm<CrossSemiring>(
          a_query[si], B, cfg_, &shard_stats[cell], pool_);
      if (src > 0 && parts[cell].nnz() > 0) {
        // Lift segment-local reference columns to global ids; a constant
        // shift preserves the within-row order, so the trusted rebuild is
        // safe and the merge below sees one global column space.
        const Index col_base = delta_->segment_ref_base(src - 1);
        std::vector<Index> row_ids, col_ids;
        std::vector<sparse::Offset> row_ptr;
        std::vector<CrossKmers> vals;
        parts[cell].release_parts(row_ids, row_ptr, col_ids, vals);
        for (auto& c : col_ids) c += col_base;
        parts[cell] = SpMat<CrossKmers>::from_sorted_parts(
            static_cast<Index>(nq), n_refs, std::move(row_ids),
            std::move(row_ptr), std::move(col_ids), std::move(vals));
      }
    }
  };
  util::parallel_for(pool_, static_cast<std::size_t>(n_shards), multiply_shard);

  // Merge in shard order — the semiring add is order-independent, so the
  // merged overlap matrix is invariant to the shard count AND to which
  // rank computed which part.
  auto C = sparse::add_merge(
      parts, static_cast<Index>(nq), n_refs,
      [](CrossKmers& acc, const CrossKmers& v) { CrossSemiring::add(acc, v); });
  work.cell_products.resize(n_cells);
  work.cell_bytes.resize(n_cells);
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    work.cell_products[cell] = shard_stats[cell].products;
    work.cell_bytes[cell] = parts[cell].bytes();
  }
  parts.clear();  // merged into C
  st.candidates = C.nnz();
  for (const auto& s : shard_stats) st.spgemm.merge(s);
  if (cfg_.telemetry.metrics != nullptr) {
    // Per-shard discovery-hit counters (shared and grid mode alike):
    // which index shards this workload actually touches, and how hard.
    // Delta-segment cells fold into their shard's counter.
    auto& m = *cfg_.telemetry.metrics;
    for (int s = 0; s < n_shards; ++s) {
      std::uint64_t out_nnz = 0;
      for (int src = 0; src < work.n_src; ++src) {
        out_nnz += shard_stats[static_cast<std::size_t>(src) *
                                   static_cast<std::size_t>(n_shards) +
                               static_cast<std::size_t>(s)]
                       .out_nnz;
      }
      if (out_nnz == 0) continue;
      m.counter("serve.shard" + std::to_string(s) + ".candidates_total")
          .add(static_cast<double>(out_nnz));
    }
    m.counter("serve.candidates_total").add(static_cast<double>(C.nnz()));
  }

  for (const auto& ch : slot.cached_hits) {
    work.cached_bytes += ch.size() * sizeof(io::SimilarityEdge);
  }
  work.overlap_bytes = C.bytes();
  work.overlap_nnz = C.nnz();
  charge_discovery(slot, work);

  // ---- candidate extraction ------------------------------------------------
  // Replays the load-balance scheme of the concatenated pipeline: the
  // scheme decides which triangle's element a pair is aligned from, which
  // in turn fixes the seed pair the banded/x-drop kernels see (§VI-B).
  C.for_each([&](Index qi, Index rj, const CrossKmers& ck) {
    if (ck.count < cfg_.common_kmer_threshold) return;
    const Index q_global = batch_base + qi;
    CommonKmers eq;
    eq.count = ck.count;
    const bool upper =
        !parity_scheme || core::BlockPlan::index_based_keep(rj, q_global);
    AlignTask task;
    if (upper) {
      eq.first = ck.first_rq;  // element (reference, query)
      task = core::canonical_task(rj, q_global, eq);
    } else {
      eq.first = ck.first_qr;  // element (query, reference)
      task = core::canonical_task(q_global, rj, eq);
    }
    // A dead rank's reference slice (and its alignment work) belongs to
    // its cyclic successor — the same rule the recovery handoff charged.
    const int align_owner =
        slot.snap.next_alive(sim::ProcGrid::part_of(rj, n_refs, p));
    if (align_owner < 0) return;  // every rank dead: nothing aligns
    const auto oi = static_cast<std::size_t>(align_owner);
    if (!cascading) {
      slot.work.tasks[oi].push_back(task);
      return;
    }
    // Stage the candidate for the tier screens. The task's query side is
    // always the reference (rj < n_refs <= q_global), so both orientation
    // minima rewrite to (reference pos, query pos): first_rq is already in
    // that order, first_qr swaps.
    core::ScreenCandidate c;
    c.task = task;
    c.count = ck.count;
    c.seeds[0] = {ck.first_rq.pos_a, ck.first_rq.pos_b};
    c.n_seeds = 1;
    const align::Seed alt{ck.first_qr.pos_b, ck.first_qr.pos_a};
    if (alt.q != c.seeds[0].q || alt.r != c.seeds[0].r) {
      c.seeds[c.n_seeds++] = alt;
    }
    if (sketching && rj < index_->n_refs()) {
      c.sketch_overlap = KmerIndex::sketch_overlap(
          index_->sketch(rj), query_sketches[static_cast<std::size_t>(qi)].data(),
          index_->sketch_len());
    }
    slot.work.cands[oi].push_back(c);
  });
}

void QueryEngine::screen_batch(BatchSlot& slot) const {
  if (!cfg_.cascade.any() || slot.queries.empty() || total_refs() == 0) {
    return;
  }
  const int p = serving_ranks();
  QueryBatchStats& st = slot.st;
  // The tier screens turn discovery's staged candidates into the batch's
  // alignment tasks. They run on the host pool but their MODELED cost is
  // charged per align-owner rank — tier 0 as a host stream over the
  // scanned diagonal cells, tier 1 as probe DP on the device — on the
  // discovery side of the timeline, after charge_discovery (so with
  // depth >= 2 the screen of batch b+1 overlaps batch b's alignment, like
  // the rest of discovery).
  core::screen_candidates(slot.work, seq_accessor(slot), aligner_, cfg_, pool_);
  for (std::size_t ri = 0; ri < static_cast<std::size_t>(p); ++ri) {
    const align::CascadeStats& cs = slot.work.cascade[ri];
    st.cascade.merge(cs);
    const auto [t0, t1] = core::modeled_screen_seconds(model_, cs);
    const double ts = t0 + t1;
    if (ts <= 0.0) continue;
    st.t_screen = std::max(st.t_screen, ts);
    if (rt_ != nullptr && slot.snap.dead[ri] == 0) {
      slot.frame[ri].charge(sim::Comp::kSparseOther, t0);
      slot.frame[ri].charge(sim::Comp::kAlign, t1);
      st.rank_sparse_s[ri] += ts;
      st.t_sparse = std::max(st.t_sparse, st.rank_sparse_s[ri]);
    }
  }
  if (rt_ == nullptr) st.t_sparse += st.t_screen;
  // Tier survivor counters in stream order (the screen stage is serial).
  core::add_cascade_counters(cfg_.telemetry, st.cascade);
}

void QueryEngine::charge_discovery(BatchSlot& slot,
                                   const DiscoveryWork& work) const {
  const int p = serving_ranks();
  const int n_shards = static_cast<int>(work.server.size());
  QueryBatchStats& st = slot.st;
  const std::uint64_t stripe = work.stripe_bytes + work.query_residues;
  // Single address space: the batch is broadcast to every rank, each rank
  // multiplies its round-robin shards and takes a 1/p share of assembling
  // the overlap matrix. Grid mode: the stripe is broadcast to one replica
  // team (1/replication of the alive grid covers every shard), every rank
  // multiplies and merges its served shards and ships the merged part to
  // the batch's owner rank, which assembles the overlap matrix and (later)
  // the top-k. Under faults, ownership and the broadcast team follow the
  // survivors; dead ranks charge nothing (their clocks are frozen).
  const int owner = slot.owner(p);
  int team = p;
  if (rt_ != nullptr) {
    if (owner < 0) return;  // every rank dead: nobody computes
    team = (slot.snap.n_alive() + opt_.replication - 1) / opt_.replication;
  }
  for (int r = 0; r < p; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    if (slot.snap.dead[ri] != 0) continue;
    double t = model_.bcast_time(stripe, team) +
               model_.sparse_stream_time(work.query_residues / p);
    std::uint64_t own_bytes = 0;
    std::uint64_t products = 0;
    for (int s = 0; s < n_shards; ++s) {
      if (work.server[static_cast<std::size_t>(s)] != r) continue;
      for (int src = 0; src < work.n_src; ++src) {
        const std::size_t cell = static_cast<std::size_t>(src) *
                                     static_cast<std::size_t>(n_shards) +
                                 static_cast<std::size_t>(s);
        if (work.cell_products[cell] > 0) {
          t += model_.spgemm_time(work.cell_products[cell]);
        }
        t += model_.sparse_stream_time(2 * work.cell_bytes[cell]);
        own_bytes += work.cell_bytes[cell];
        products += work.cell_products[cell];
      }
    }
    if (rt_ == nullptr) {
      t += model_.sparse_stream_time(
          (work.overlap_bytes + work.cached_bytes) / p);
      st.t_sparse = std::max(st.t_sparse, t);
      continue;
    }

    auto& clock = slot.frame[ri];
    clock.spgemm_products += products;
    std::uint64_t ws = stripe + own_bytes;
    // Per-rank merge of its shard products, then the ship to the owner.
    t += model_.sparse_stream_time(own_bytes);
    double send_s = 0.0;
    if (own_bytes > 0 && r != owner) {
      send_s = model_.p2p_time(own_bytes);
      t += send_s;
      clock.bytes_sent += own_bytes;
    }
    clock.bytes_recv += stripe;
    if (r == owner) {
      // Owner-side assembly of the full overlap matrix, plus the replay
      // stream of any cache-served hit lists (the cache shard's rank ships
      // them; charged as one stream on the assembling owner).
      const std::uint64_t assembled = work.overlap_bytes + work.cached_bytes;
      t += model_.sparse_stream_time(assembled);
      ws += assembled;
      clock.bytes_recv += assembled;
      clock.overlap_nnz += work.overlap_nnz;
    }
    // Transient faults, RPC-style (exec/retry.hpp): a slowed rank's task
    // dilates and pays the timeout+backoff ladder before its final patient
    // attempt; a dropped send wastes one attempt and backs off before the
    // resend. A healthy rank (factor 1, no drop) pays neither. Deaths never
    // reach here — they escalated to failover in the server map.
    const std::uint64_t key = slot.ordinal * static_cast<std::uint64_t>(p) +
                              static_cast<std::uint64_t>(r);
    if (slot.snap.slowdown[ri] > 1.0) {
      t *= slot.snap.slowdown[ri];
      const auto pen = cfg_.retry.slow_task_penalty(t, key);
      t += pen.seconds;
      st.retries += pen.retries;
    }
    if (slot.snap.drop[ri] != 0 && send_s > 0.0) {
      t += cfg_.retry.drop_resend_penalty_s(send_s, key);
      ++st.retries;
    }
    if (!slot.faults.recovery_s.empty() && slot.faults.recovery_s[ri] > 0.0) {
      // Failover recovery surfacing at this batch: replica promotion,
      // re-replication copies, reference-slice handoff — charged at the
      // head of this batch's discovery on the recovering ranks.
      const double rec = slot.faults.recovery_s[ri];
      t += rec;
      st.rank_recovery_s[ri] = rec;
      st.recovery_s += rec;
      clock.bytes_recv += slot.faults.new_resident[ri];
    }
    clock.charge(sim::Comp::kSpGemm, t);
    st.rank_sparse_s[ri] = t;
    st.rank_workspace_bytes[ri] += ws;
    st.t_sparse = std::max(st.t_sparse, t);
  }
}

align::BatchAligner::SeqAccessor QueryEngine::seq_accessor(
    const BatchSlot& slot) const {
  const Index n_refs = total_refs();
  return [this, &slot, n_refs](std::uint32_t id) -> std::string_view {
    return id < n_refs ? ref_seq(id) : slot.queries[id - slot.batch_base];
  };
}

void QueryEngine::align_batch(BatchSlot& slot) const {
  const int p = serving_ranks();
  QueryBatchStats& st = slot.st;
  if (slot.queries.empty() || total_refs() == 0) return;

  // ---- alignment + filter (flattened onto the host pool) -------------------
  const std::span<const char> dead = slot.snap.dead;
  core::align_and_filter(slot.work, seq_accessor(slot), aligner_, cfg_, pool_,
                         dead);
  st.aligned_pairs = slot.work.flat_tasks.size();

  // ---- per-rank device accounting (undilated; serve() dilates) -------------
  auto& hits = slot.hits;
  for (int r = 0; r < p; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    if (dead[ri] != 0) {
      continue;  // frozen clock; its tasks went to the cyclic successor
    }
    hits.insert(hits.end(), slot.work.edges[ri].begin(),
                slot.work.edges[ri].end());
    const align::BatchStats& bstats = slot.work.align[ri];
    if (rt_ == nullptr) {
      st.t_align = std::max(st.t_align,
                            core::modeled_align_seconds(model_, bstats, 1.0));
      continue;
    }
    // Rank r owns these references' alignments: its device seconds, its
    // task+result workspace, its counters — per rank, for the ledger and
    // the per-rank timeline.
    const double t_r =
        core::charge_alignment(slot.frame[ri], model_, bstats, 1.0);
    st.t_align = std::max(st.t_align, t_r);
    st.rank_align_s[ri] = t_r;
    st.rank_workspace_bytes[ri] +=
        bstats.pairs * (sizeof(AlignTask) + sizeof(AlignResult));
  }

  // ---- top-k + canonical order ---------------------------------------------
  if (opt_.top_k > 0) {
    // Per query (seq_b): best score first, ties to the smaller reference.
    std::sort(hits.begin(), hits.end(),
              [](const io::SimilarityEdge& a, const io::SimilarityEdge& b) {
                if (a.seq_b != b.seq_b) return a.seq_b < b.seq_b;
                if (a.score != b.score) return a.score > b.score;
                return a.seq_a < b.seq_a;
              });
    std::vector<io::SimilarityEdge> kept;
    kept.reserve(hits.size());
    std::uint32_t run = 0;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      run = (i > 0 && hits[i].seq_b == hits[i - 1].seq_b) ? run + 1 : 0;
      if (run < opt_.top_k) kept.push_back(hits[i]);
    }
    hits = std::move(kept);
  }
  io::sort_edges(hits);

  // ---- result-cache insert + replay (serving tier) -------------------------
  // Fresh per-query results — post-top-k, the exact value a later hit must
  // reproduce — are inserted in stream order (the executor runs this stage
  // serially). Then cache-served queries replay their stored lists with
  // seq_b rebased from the original query id to this stream position; the
  // re-sort restores the canonical edge order. Alignment depends on query
  // content, index epoch and the parity bit only (all pinned by the cache
  // key), so the merged output is bit-identical to an all-cold batch.
  if (opt_.result_cache != nullptr && !slot.cached.empty()) {
    const std::size_t nq = slot.queries.size();
    std::vector<std::vector<io::SimilarityEdge>> fresh(nq);
    for (const auto& e : hits) {
      fresh[static_cast<std::size_t>(e.seq_b - slot.batch_base)].push_back(e);
    }
    bool replayed = false;
    for (std::size_t i = 0; i < nq; ++i) {
      const Index q_global = slot.batch_base + static_cast<Index>(i);
      const bool parity_scheme =
          cfg_.load_balance == core::LoadBalanceScheme::kIndexBased;
      const std::uint32_t parity = parity_scheme ? (q_global & 1u) : 0u;
      if (slot.cached[i] != 0) {
        for (auto e : slot.cached_hits[i]) {
          e.seq_b = q_global;
          hits.push_back(e);
        }
        replayed = replayed || !slot.cached_hits[i].empty();
      } else {
        // Empty lists are cached too (negative caching): a refuted query
        // is as expensive to recompute as a productive one.
        opt_.result_cache->insert(slot.queries[i], served_epoch_, parity,
                                  slot.ordinal, fresh[i], cascade_sig_);
      }
    }
    if (replayed) io::sort_edges(hits);
  }
  st.hits = hits.size();

  if (rt_ != nullptr) {
    // Owner-side top-k + canonical sort: the batch owner gathers the
    // per-rank hit lists and selects — a stream over the hit bytes. The
    // owner role fails over to the next alive rank like everything else.
    const int owner = slot.owner(p);
    if (owner < 0) return;  // every rank dead: nobody gathers
    const auto oi = static_cast<std::size_t>(owner);
    std::uint64_t replayed_bytes = 0;
    for (const auto& ch : slot.cached_hits) {
      replayed_bytes += ch.size() * sizeof(io::SimilarityEdge);
    }
    const std::uint64_t hit_bytes =
        static_cast<std::uint64_t>(st.aligned_pairs) *
            sizeof(io::SimilarityEdge) +
        replayed_bytes;
    const double t = model_.sparse_stream_time(2 * hit_bytes);
    slot.frame[oi].charge(sim::Comp::kSparseOther, t);
    slot.frame[oi].bytes_recv += hit_bytes;
    st.rank_align_s[oi] += t;
    st.rank_workspace_bytes[oi] += hit_bytes;
    st.t_align = std::max(st.t_align, st.rank_align_s[oi]);
  }
}

void QueryEngine::retire_distributed(BatchSlot& slot) {
  rt_->merge_frame(slot.frame);
  sync_cache_ledger();
  if (!slot.faults.any) return;
  // Ledger effects of this batch's surfaced faults, applied at the
  // strictly-ordered retirement: deaths release the dead rank's resident
  // bytes and freeze its clock from here on (the death mask is atomic, so
  // concurrently discovering later batches may read it mid-flight — their
  // shard assignments already excluded the rank via the pure snapshot);
  // re-placement bytes land on the recovery targets permanently.
  for (const int r : slot.faults.deaths) rt_->kill_rank(r);
  for (int r = 0; r < rt_->nprocs(); ++r) {
    const auto b = slot.faults.new_resident[static_cast<std::size_t>(r)];
    if (b != 0) rt_->clock(r).add_resident(b);
  }
}

void QueryEngine::enforce_rank_budget() const {
  const std::uint64_t budget = cfg_.effective_rank_memory_budget();
  if (budget == 0) return;
  const auto peaks = rt_->peak_resident_bytes();
  for (int r = 0; r < rt_->nprocs(); ++r) {
    if (peaks[static_cast<std::size_t>(r)] > budget) {
      throw std::runtime_error(
          "QueryEngine: rank " + std::to_string(r) + " peaked at " +
          std::to_string(peaks[static_cast<std::size_t>(r)]) +
          " resident bytes, over the " + std::to_string(budget) +
          "-byte per-rank budget");
    }
  }
}

QueryEngine::Result QueryEngine::serve(
    const std::vector<std::vector<std::string>>& batches) {
  refresh_epoch();
  Result result;
  ServeStats& st = result.stats;
  const int p = serving_ranks();
  st.nprocs = p;
  st.n_shards = index_->n_shards();
  const int depth = std::max(1, opt_.pipeline_depth);
  st.pipeline_depth = depth;
  st.t_index_build = index_->modeled_build_seconds(model_, p);
  if (rt_ != nullptr) {
    st.grid_side = opt_.grid_side;
    st.replication = opt_.replication;
    for (const auto b : static_resident_) {
      st.placement_resident_bytes = std::max(st.placement_resident_bytes, b);
    }
  }

  // Stream positions are fixed before the stream starts: each batch's ids
  // (and its owner rank, in distributed mode) are a pure function of its
  // position, not of the schedule.
  const std::size_t nb = batches.size();
  std::vector<Index> bases(nb);
  std::vector<std::uint64_t> ordinals(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    bases[b] = next_query_id_;
    next_query_id_ += static_cast<Index>(batches[b].size());
    ordinals[b] = next_batch_ordinal_++;
  }
  st.batches.resize(nb);

  // Failover recoveries are planned SEQUENTIALLY in ordinal order before
  // the stream starts (planning advances the engine's death/residency
  // bookkeeping); the concurrent stages only read the per-batch results.
  std::vector<BatchFaults> batch_faults;
  if (faults_enabled_) {
    batch_faults.resize(nb);
    for (std::size_t b = 0; b < nb; ++b) {
      batch_faults[b] = plan_batch_faults(ordinals[b]);
    }
  }

  // Per-rank workspace residency on top of the static placement: with
  // `depth` batches in flight, a rank's worst case holds `depth`
  // consecutive batches' workspaces at once.
  exec::ResidentWindow window(p, depth);

  // ---- the serving stream on the executor ----------------------------------
  // Same {discover, screen, align} graph as the pipeline's block loop: with
  // depth >= 2, batch b+1's discovery SpGEMM really overlaps batch b's
  // screens and alignment on the host pool. The align stage retires
  // batches strictly in order, so appending to the shared result — and
  // merging the distributed clock frames — needs no synchronization beyond
  // the scheduler's.
  std::vector<BatchSlot> slots;  // sized from pipe.slot_count() below
  exec::StreamPipeline* gate = nullptr;
  exec::Stage discover{"discover", [&](std::size_t b, std::size_t si) {
                         BatchSlot& slot = slots[si];
                         slot.reset(batches[b], bases[b], ordinals[b], p,
                                    rt_ != nullptr);
                         if (!batch_faults.empty()) {
                           slot.faults = std::move(batch_faults[b]);
                         }
                         discover_batch(slot);
                         // Register what this batch holds in flight with
                         // the admission gate: the overlap block dies
                         // inside discover; the staged candidates and the
                         // alignment tasks stay.
                         std::uint64_t bytes = 0;
                         for (std::size_t r = 0; r < slot.work.tasks.size();
                              ++r) {
                           bytes += slot.work.cands[r].size() *
                                        sizeof(core::ScreenCandidate) +
                                    slot.work.tasks[r].size() *
                                        sizeof(AlignTask);
                         }
                         gate->set_resident_bytes(b, bytes);
                       }};
  exec::Stage screen{"screen", [&](std::size_t, std::size_t si) {
                       screen_batch(slots[si]);
                     }};
  exec::Stage align_stage{"align", [&](std::size_t b, std::size_t si) {
                      BatchSlot& slot = slots[si];
                      align_batch(slot);
                      // Retirement (in batch order).
                      result.hits.insert(result.hits.end(),
                                         slot.hits.begin(), slot.hits.end());
                      st.total_queries += slot.st.n_queries;
                      st.aligned_pairs += slot.st.aligned_pairs;
                      st.hits += slot.st.hits;
                      st.cache_hits += slot.st.cache_hits;
                      st.cascade.merge(slot.st.cascade);
                      if (rt_ != nullptr) {
                        retire_distributed(slot);
                        window.add(slot.st.rank_workspace_bytes);
                      }
                      if (faults_enabled_) {
                        st.rank_deaths += slot.faults.deaths.size();
                        st.failover_shards += slot.st.failover_shards;
                        st.retries += slot.st.retries;
                        st.degraded_shard_batches +=
                            slot.st.degraded_shards.size();
                        st.recovery_seconds += slot.st.recovery_s;
                        if (cfg_.telemetry.metrics != nullptr) {
                          auto& m = *cfg_.telemetry.metrics;
                          const auto add = [&m](const char* name, double v) {
                            if (v != 0.0) m.counter(name).add(v);
                          };
                          add("fault.deaths_total",
                              static_cast<double>(slot.faults.deaths.size()));
                          add("fault.failover_shards_total",
                              static_cast<double>(slot.st.failover_shards));
                          add("fault.retries_total",
                              static_cast<double>(slot.st.retries));
                          add("fault.degraded_shard_batches_total",
                              static_cast<double>(
                                  slot.st.degraded_shards.size()));
                          add("fault.recovery_seconds_total",
                              slot.st.recovery_s);
                        }
                      }
                      if (cfg_.telemetry.metrics != nullptr) {
                        // Per-batch modeled-seconds histograms, sampled at
                        // retirement (strictly ordered, so no locking
                        // beyond the registry's own).
                        auto& m = *cfg_.telemetry.metrics;
                        m.counter("serve.batches_total").add(1.0);
                        m.counter("serve.queries_total")
                            .add(static_cast<double>(slot.st.n_queries));
                        m.counter("serve.aligned_pairs_total")
                            .add(static_cast<double>(slot.st.aligned_pairs));
                        m.counter("serve.hits_total")
                            .add(static_cast<double>(slot.st.hits));
                        m.histogram("serve.batch_sparse_seconds")
                            .observe(slot.st.t_sparse);
                        m.histogram("serve.batch_align_seconds")
                            .observe(slot.st.t_align);
                      }
                      st.batches[b] = std::move(slot.st);
                    }};
  exec::StreamOptions exec_opt;
  exec_opt.depth = depth;
  exec_opt.memory_budget_bytes = cfg_.exec_memory_budget_bytes;
  exec_opt.pool = pool_;
  exec_opt.telemetry = cfg_.telemetry;
  exec_opt.trace_prefix = "serve";
  exec::StreamPipeline pipe(nb, {discover, screen, align_stage}, exec_opt);
  gate = &pipe;
  slots.resize(pipe.slot_count());
  pipe.run();
  io::sort_edges(result.hits);

  // §VI-C timeline, generalized: the modeled serve time is the makespan of
  // the {discovery (CPU), alignment (device)} software pipeline at the
  // configured depth, with both sides paying the MachineModel's contention
  // dilations when overlapped (pipeline block loop, Table I). Grid mode
  // runs the recurrence per rank, fed from the batches' RankClock frames
  // via rank_sparse_s/rank_align_s, so the slowest rank's makespan is the
  // serve time; the single address space runs it on one track fed from
  // t_sparse/t_align. With a tracer, the recurrence emits each batch's
  // placed stage intervals as modeled spans on those tracks, so the
  // trace's modeled end IS this makespan.
  const bool overlapped = depth >= 2;
  const double dsd = overlapped ? model_.preblock_sparse_dilation() : 1.0;
  const double dad = overlapped ? model_.preblock_align_dilation : 1.0;
  const std::size_t tracks = rt_ != nullptr ? static_cast<std::size_t>(p) : 1;
  exec::OverlapTimeline timeline(static_cast<int>(tracks), depth);
  timeline.set_tracer(cfg_.telemetry.tracer, "serve.");
  std::vector<double> sparse_s(tracks);
  std::vector<double> align_s(tracks);
  for (std::size_t b = 0; b < nb; ++b) {
    const QueryBatchStats& bs = st.batches[b];
    for (std::size_t r = 0; r < tracks; ++r) {
      sparse_s[r] = (rt_ != nullptr ? bs.rank_sparse_s[r] : bs.t_sparse) * dsd;
      align_s[r] = (rt_ != nullptr ? bs.rank_align_s[r] : bs.t_align) * dad;
    }
    timeline.add(sparse_s, align_s);
    if (cfg_.telemetry.tracer == nullptr) continue;
    // Failover-recovery spans on the modeled rank tracks (grid mode under
    // faults): recovery was charged at the head of this batch's discovery,
    // so the span sits at the placed discovery interval's start.
    for (std::size_t r = 0; r < bs.rank_recovery_s.size(); ++r) {
      const double rec = bs.rank_recovery_s[r];
      if (rec <= 0.0) continue;
      const double d0 = timeline.last_disc_interval(static_cast<int>(r)).first;
      cfg_.telemetry.tracer->record_modeled(
          "serve.failover", static_cast<int>(r), d0, d0 + rec * dsd,
          {{"item", static_cast<double>(b)}});
    }
  }
  st.t_serve = timeline.max_makespan();

  // Fold the peak windowed workspace into the ledger high-water marks and
  // enforce the per-rank budget over the whole stream.
  if (rt_ != nullptr) {
    for (int r = 0; r < p; ++r) {
      const std::uint64_t peak = window.peak(r);
      rt_->clock(r).add_resident(peak);
      rt_->clock(r).sub_resident(peak);
    }
    st.rank_peak_resident_bytes = rt_->peak_resident_bytes();
    enforce_rank_budget();
    // Graceful-degradation contract: the served fraction of the stream's
    // (batch × shard) cells. 1.0 = complete results.
    if (nb > 0 && st.n_shards > 0) {
      st.completeness =
          1.0 - static_cast<double>(st.degraded_shard_batches) /
                    (static_cast<double>(nb) *
                     static_cast<double>(st.n_shards));
    }
  }
  return result;
}

// ---- serving-tier plumbing (DeltaIndex / ResultCache / re-placement) -------

Index QueryEngine::total_refs() const {
  return delta_ != nullptr ? delta_->total_refs() : index_->n_refs();
}

std::string_view QueryEngine::ref_seq(Index id) const {
  return delta_ != nullptr ? delta_->ref(id) : index_->ref(id);
}

std::vector<std::uint64_t> QueryEngine::shard_bytes_all() const {
  return delta_ != nullptr ? delta_->shard_total_bytes()
                           : index_->shard_bytes();
}

void QueryEngine::refresh_epoch() {
  const std::uint64_t e = delta_ != nullptr ? delta_->epoch() : 0;
  if (e == served_epoch_) return;
  if (faults_enabled_) {
    throw std::runtime_error(
        "QueryEngine: index mutation under an active fault plan is "
        "unsupported");
  }
  served_epoch_ = e;
  // Rebase the query id stream: new queries get the ids an engine over the
  // equivalent rebuilt (grown) index would assign.
  next_query_id_ = total_refs();
  resync_static_residency();
}

void QueryEngine::resync_static_residency() {
  if (rt_ == nullptr) return;
  const int p = rt_->nprocs();
  const auto np = static_cast<std::size_t>(p);
  std::vector<std::uint64_t> fresh(np, 0);
  const auto sb = shard_bytes_all();
  for (int s = 0; s < placement_->n_shards(); ++s) {
    for (const int r : placement_->replicas[static_cast<std::size_t>(s)]) {
      fresh[static_cast<std::size_t>(r)] += sb[static_cast<std::size_t>(s)];
    }
  }
  ref_slice_bytes_.assign(np, 0);
  const Index n_refs = total_refs();
  for (int r = 0; r < p && n_refs > 0; ++r) {
    const Index r0 = sim::ProcGrid::split_point(n_refs, p, r);
    const Index r1 = sim::ProcGrid::split_point(n_refs, p, r + 1);
    std::uint64_t slice = 0;
    for (Index i = r0; i < r1; ++i) slice += ref_seq(i).size();
    ref_slice_bytes_[static_cast<std::size_t>(r)] = slice;
    fresh[static_cast<std::size_t>(r)] += slice;
  }
  const std::uint64_t budget = cfg_.effective_rank_memory_budget();
  for (int r = 0; r < p; ++r) {
    if (budget != 0 && fresh[static_cast<std::size_t>(r)] > budget) {
      throw std::runtime_error(
          "QueryEngine: shard placement needs " +
          std::to_string(fresh[static_cast<std::size_t>(r)]) +
          " resident bytes on rank " + std::to_string(r) + ", over the " +
          std::to_string(budget) + "-byte per-rank budget");
    }
  }
  for (int r = 0; r < p; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    if (fresh[ri] > static_resident_[ri]) {
      rt_->clock(r).add_resident(fresh[ri] - static_resident_[ri]);
    } else if (fresh[ri] < static_resident_[ri]) {
      rt_->clock(r).sub_resident(static_resident_[ri] - fresh[ri]);
    }
  }
  static_resident_ = std::move(fresh);
  enforce_rank_budget();
}

void QueryEngine::sync_cache_ledger() {
  if (rt_ == nullptr || opt_.result_cache == nullptr) return;
  const auto sb = opt_.result_cache->shard_bytes();
  const int p = rt_->nprocs();
  if (cache_charged_bytes_.size() != sb.size()) {
    cache_charged_bytes_.assign(sb.size(), 0);
  }
  for (std::size_t k = 0; k < sb.size(); ++k) {
    const int r = static_cast<int>(k % static_cast<std::size_t>(p));
    if (sb[k] > cache_charged_bytes_[k]) {
      rt_->clock(r).add_resident(sb[k] - cache_charged_bytes_[k]);
    } else if (sb[k] < cache_charged_bytes_[k]) {
      rt_->clock(r).sub_resident(cache_charged_bytes_[k] - sb[k]);
    }
    cache_charged_bytes_[k] = sb[k];
  }
}

double QueryEngine::apply_replacement(
    const ShardPlacement& placement,
    std::span<const ShardMigration> migrations) {
  if (rt_ == nullptr) {
    throw std::runtime_error(
        "QueryEngine::apply_replacement: grid mode only (shards are not "
        "rank-resident in the single address space)");
  }
  if (faults_enabled_) {
    throw std::runtime_error(
        "QueryEngine::apply_replacement: unsupported under an active fault "
        "plan");
  }
  placement.validate();
  if (placement.n_shards() != index_->n_shards() ||
      placement.n_ranks != rt_->nprocs() ||
      placement.replication != opt_.replication) {
    throw std::invalid_argument(
        "QueryEngine::apply_replacement: placement geometry disagrees with "
        "the serving grid");
  }
  // Each migration is one p2p shard copy, priced exactly like the fault
  // path's re-replication transfers: the donor sends, the target receives,
  // both pay the modeled transfer on their clocks.
  double total = 0.0;
  for (const auto& m : migrations) {
    const double t = model_.p2p_time(m.bytes);
    rt_->clock(m.from).charge(sim::Comp::kMigrate, t);
    rt_->clock(m.to).charge(sim::Comp::kMigrate, t);
    rt_->clock(m.from).bytes_sent += m.bytes;
    rt_->clock(m.to).bytes_recv += m.bytes;
    total += t;
  }
  *placement_ = placement;
  resync_static_residency();
  return total;
}

double QueryEngine::charge_compaction(std::span<const double> shard_seconds) {
  const int p = serving_ranks();
  std::vector<double> per_rank(static_cast<std::size_t>(p), 0.0);
  for (std::size_t s = 0; s < shard_seconds.size(); ++s) {
    // The merge of shard s runs where its postings live: the primary
    // holder in grid mode, the round-robin rank otherwise.
    const int r = rt_ != nullptr && static_cast<int>(s) < placement_->n_shards()
                      ? placement_->primary[s]
                      : static_cast<int>(s % static_cast<std::size_t>(p));
    per_rank[static_cast<std::size_t>(r)] += shard_seconds[s];
    if (rt_ != nullptr) {
      rt_->clock(r).charge(sim::Comp::kSparseOther, shard_seconds[s]);
    }
  }
  double worst = 0.0;
  for (const double t : per_rank) worst = std::max(worst, t);
  return worst;
}

}  // namespace pastis::index
