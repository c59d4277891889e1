// Batched query-serving engine over a persistent KmerIndex.
//
// Paper mapping:
//   * §III (use case 1): annotation of unknown queries against a known
//     reference set. The full pipeline serves this only as the degenerate
//     concatenation [references || queries]; this engine serves it
//     directly, reusing the stored Aᵀ_ref shards instead of rebuilding and
//     re-transposing the k-mer matrix per request.
//   * Fig. 1 / §V: per batch the engine forms A_query (batch × k-mers),
//     multiplies it shard-by-shard against the index under the
//     common-k-mers semiring, and merges with the order-independent add —
//     hits are therefore bit-identical to the concatenated many-against-
//     many run (cross edges), for ANY shard count and ANY process count.
//   * §VI-B: the concatenated pipeline aligns each candidate once, from the
//     overlap-matrix element its load-balance scheme keeps; which element
//     decides the seed orientation the seeded kernels (banded/x-drop) see.
//     The engine tracks both orientation minima in its semiring payload and
//     replays the scheme's choice exactly (see CrossKmers below).
//   * §VI-C pre-blocking, generalized: serve() streams query batches
//     through the same {discover, screen, align} stage graph as the
//     pipeline's block loop (exec/stream_pipeline.hpp), so with depth >= 2
//     batch b+1's SpGEMM (CPU) really runs concurrently with batch b's
//     tier screens and alignment (GPU model); the timeline charges the
//     pipeline makespan — for depth 2 exactly max(align_b, sparse_{b+1}) —
//     with the MachineModel's contention dilations. Hits are bit-identical
//     for any depth. The cascade screens, alignment and filter are the
//     pipeline's own stage bodies (core/stages.hpp); discovery computes the
//     batch's shard products over one shard → server map, then prices them.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/common_kmers.hpp"
#include "core/config.hpp"
#include "index/kmer_index.hpp"
#include "index/placement.hpp"
#include "io/graph_io.hpp"
#include "sim/machine_model.hpp"
#include "sim/runtime.hpp"
#include "sparse/spgemm.hpp"
#include "util/thread_pool.hpp"

namespace pastis::serve {
class DeltaIndex;
class ResultCache;
}  // namespace pastis::serve

namespace pastis::index {

/// Overlap payload of one (query, reference) candidate. The concatenated
/// pipeline may align the pair from either triangle of its symmetric
/// overlap matrix, and the two triangles carry *different* minimum seed
/// pairs (the min of (pos_q, pos_r) lexicographic order is not the swap of
/// the min of (pos_r, pos_q)). Tracking both minima keeps the engine able
/// to reproduce either choice bit-identically.
struct CrossKmers {
  std::uint32_t count = 0;    // shared k-mers
  core::SeedPair first_qr;    // min by (query pos, reference pos)
  core::SeedPair first_rq;    // min by (reference pos, query pos), stored
                              // as (reference pos, query pos)

  friend bool operator==(const CrossKmers&, const CrossKmers&) = default;
};

/// Candidate-discovery semiring of the serving path: rows are batch
/// queries, columns are references. Commutative and order-independent like
/// core::OverlapSemiring, hence shard- and process-count invariant.
struct CrossSemiring {
  using left_type = core::KmerPos;   // A_query payload
  using right_type = core::KmerPos;  // index shard (Aᵀ_ref) payload
  using value_type = CrossKmers;

  static CrossKmers multiply(const core::KmerPos& a, const core::KmerPos& b) {
    CrossKmers c;
    c.count = 1;
    c.first_qr = {a.pos, b.pos};
    c.first_rq = {b.pos, a.pos};
    return c;
  }
  static void add(CrossKmers& acc, const CrossKmers& v) {
    if (acc.count == 0) {
      acc = v;
      return;
    }
    acc.count += v.count;
    if (v.first_qr < acc.first_qr) acc.first_qr = v.first_qr;
    if (v.first_rq < acc.first_rq) acc.first_rq = v.first_rq;
  }
};

/// Modeled accounting of one served batch (undilated; serve() applies the
/// pre-blocking contention dilations when it assembles the timeline).
struct QueryBatchStats {
  std::uint64_t n_queries = 0;
  std::uint64_t candidates = 0;     // overlap nonzeros
  std::uint64_t aligned_pairs = 0;  // candidates clearing the k-mer threshold
  std::uint64_t hits = 0;           // edges passing ANI + coverage
  sparse::SpGemmStats spgemm;
  /// Queries short-circuited by the ResultCache this batch (their hits are
  /// replayed from the cache; aligned_pairs counts fresh work only).
  std::uint64_t cache_hits = 0;
  /// Per-tier prefilter work of this batch (align/cascade.hpp); all-zero
  /// when the cascade is disabled. aligned_pairs counts survivors only.
  align::CascadeStats cascade;
  /// Modeled screen seconds (max rank): tier-0 host scan + tier-1 probe DP.
  /// The screen stage runs on the discovery side of the timeline, so it is
  /// also folded into t_sparse.
  double t_screen = 0.0;
  double t_sparse = 0.0;  // max-rank discovery seconds (bcast + SpGEMM + merge)
  double t_align = 0.0;   // max-rank device alignment seconds

  // --- distributed serving only (empty on the shared-memory path) ----------
  /// Per-rank modeled stage seconds — the grid's per-rank OverlapTimeline
  /// tracks (t_sparse/t_align above are their maxima, and the single
  /// address space's one track).
  std::vector<double> rank_sparse_s;
  std::vector<double> rank_align_s;
  /// Per-rank transient workspace this batch holds in flight (query
  /// stripe, shard products, alignment tasks + results) — fed to the
  /// depth-windowed residency reduction on top of the static placement.
  std::vector<std::uint64_t> rank_workspace_bytes;

  // --- fault tolerance (all zero/empty under the empty fault plan) ---------
  /// Shards with NO surviving replica this batch, ascending shard id:
  /// their multiplies were skipped, so this batch's results are missing
  /// any hit touching them — the graceful-degradation contract.
  std::vector<int> degraded_shards;
  /// Shards served by a non-primary replica this batch (failover).
  std::uint64_t failover_shards = 0;
  /// Retry attempts charged this batch (slow-task timeouts, resends of
  /// dropped messages) under exec::RetryPolicy.
  std::uint64_t retries = 0;
  /// Per-rank modeled failover-recovery seconds charged at the head of
  /// this batch's discovery (replica promotion, re-replication copies,
  /// reference-slice handoff); recovery_s is their sum.
  std::vector<double> rank_recovery_s;
  double recovery_s = 0.0;
};

/// Aggregated serving statistics for a stream of batches.
struct ServeStats {
  int nprocs = 0;
  int n_shards = 0;
  /// Streaming-executor depth the stream was modeled with (and executed
  /// with, when a host pool is available — without one the executor
  /// degrades to the serial schedule; hits are identical either way).
  int pipeline_depth = 1;
  std::uint64_t total_queries = 0;
  std::uint64_t aligned_pairs = 0;
  std::uint64_t hits = 0;
  /// Queries served from the ResultCache across the stream.
  std::uint64_t cache_hits = 0;
  /// Stream-total per-tier prefilter work (survivor counts, rejects,
  /// screen cells); all-zero when the cascade is disabled.
  align::CascadeStats cascade;
  /// Overlap-aware modeled wall time of the serving loop (§VI-C timeline).
  double t_serve = 0.0;
  /// One-time modeled index construction, for amortization comparisons.
  double t_index_build = 0.0;
  std::vector<QueryBatchStats> batches;

  // --- distributed serving only (zero/empty on the shared-memory path) -----
  int grid_side = 0;        // 0 = single address space
  int replication = 1;
  /// The busiest rank's static residency: placed shards (+ replicas) plus
  /// its reference slice.
  std::uint64_t placement_resident_bytes = 0;
  /// Per-rank resident high-water marks from the SimRuntime ledger:
  /// static residency + the peak `depth`-batch workspace window. The
  /// per-rank budget gate compares against the max of these.
  std::vector<std::uint64_t> rank_peak_resident_bytes;

  // --- fault tolerance (all zero under the empty fault plan) ---------------
  std::uint64_t rank_deaths = 0;      // deaths surfaced during this stream
  std::uint64_t failover_shards = 0;  // batch-shard cells served by a replica
  std::uint64_t retries = 0;          // retry attempts charged (RetryPolicy)
  std::uint64_t degraded_shard_batches = 0;  // batch-shard cells unserved
  double recovery_seconds = 0.0;  // total modeled failover recovery
  /// Served fraction of the stream's (batch × shard) cells: 1.0 = complete
  /// results; below 1, each degraded cell's hits are missing from the
  /// output — graceful degradation, never an exception.
  double completeness = 1.0;

  /// 0 for an empty rank_peak_resident_bytes (shared-memory path).
  [[nodiscard]] std::uint64_t max_rank_resident_bytes() const {
    std::uint64_t m = 0;
    for (const auto& b : rank_peak_resident_bytes) m = std::max(m, b);
    return m;
  }

  [[nodiscard]] double amortized_batch_seconds() const {
    return batches.empty()
               ? 0.0
               : (t_index_build + t_serve) /
                     static_cast<double>(batches.size());
  }
};

class QueryEngine {
 public:
  struct Options {
    /// Simulated serving ranks; shards are dealt round-robin, references
    /// (and their alignment work) block-partitioned — neither affects hits.
    int nprocs = 1;
    /// Keep only the best `top_k` hits per query by (score desc, ref asc);
    /// 0 keeps all hits (the concatenated-equivalence mode).
    std::uint32_t top_k = 0;
    /// Streaming-executor depth for serve(): maximum query batches in
    /// flight through discover → screen → align. The default 2 overlaps
    /// batch b+1's SpGEMM with batch b's screens and alignment (§VI-C); 1
    /// (or less) is the serial stream. Hits are bit-identical for any depth.
    int pipeline_depth = 2;

    // --- rank-resident distributed serving -----------------------------------
    /// >= 1 serves over a grid_side × grid_side SimRuntime grid: shards
    /// become RANK-RESIDENT (ShardPlacement: round-robin by postings
    /// bytes + greedy rebalance), each batch runs as rank tasks (query
    /// stripe broadcast, per-rank shard multiplies and merge, owner-side
    /// top-k) and per-rank residency is ledgered and gated by
    /// PastisConfig::effective_rank_memory_budget(). 0 keeps the
    /// single-address-space serve. Hits are bit-identical either way, for
    /// any grid side.
    int grid_side = 0;
    /// Copies of each shard kept resident (availability, >= 1): extra
    /// resident bytes on the replica ranks, a 1/replication broadcast team
    /// for the query stripe. Replicas compute only when a fault plan kills
    /// a primary (failover) — results are otherwise unaffected.
    int replication = 1;

    // --- serving tier (serve/ subsystem; both default OFF) -----------------
    /// Optional query-result cache (not owned). When set, discover_batch
    /// looks every query up under the (content hash, index epoch, parity)
    /// key and skips extraction/SpGEMM/alignment for hits; align_batch
    /// inserts fresh per-query results. Hits replay bit-identically to the
    /// cold path (the key pins every input alignment depends on), so the
    /// output stream is unchanged — only the modeled/measured cost drops.
    /// In grid mode the cache's resident bytes are charged to the rank
    /// ledger (cache shard k lives on rank k mod nprocs).
    serve::ResultCache* result_cache = nullptr;
  };

  /// The engine serves `cfg` against `index`; the discovery parameters of
  /// the two must agree (throws std::invalid_argument otherwise — a k or
  /// alphabet mismatch would silently change the candidate set), and so
  /// must the serving geometry (nprocs >= 1, grid_side >= 0,
  /// replication >= 1). Grid mode throws std::runtime_error when the
  /// static placement exceeds the per-rank budget on any rank.
  QueryEngine(const KmerIndex& index, core::PastisConfig cfg,
              sim::MachineModel model, Options opt,
              util::ThreadPool* pool = &util::ThreadPool::global());

  /// Serves a mutable LSM view (serve/delta_index.hpp): base + delta
  /// segments fold per shard during discovery, so hits are bit-identical
  /// to an engine over the equivalent from-scratch rebuild. The engine
  /// tracks the view's epoch; call refresh_epoch() (or just serve) after
  /// add_references()/compact(). Mutation under a non-empty fault plan is
  /// unsupported and throws. The DeltaIndex must outlive the engine.
  QueryEngine(const serve::DeltaIndex& delta, core::PastisConfig cfg,
              sim::MachineModel model, Options opt,
              util::ThreadPool* pool = &util::ThreadPool::global());

  struct Result {
    std::vector<io::SimilarityEdge> hits;
    ServeStats stats;
  };

  /// Serves a stream of batches with the pre-blocking overlap timeline —
  /// the engine's one way to serve queries. Hits are canonical
  /// SimilarityEdges with seq_a = reference id and seq_b = n_refs +
  /// (stream position of the query) — the id a concatenated
  /// [references || queries] run would assign, so outputs are directly
  /// comparable. The stream position advances across calls;
  /// reset_stream() rewinds it. A result cache sees only entries inserted
  /// at least pipeline_depth batches earlier in the stream.
  [[nodiscard]] Result serve(const std::vector<std::vector<std::string>>& batches);

  void reset_stream() {
    next_query_id_ = total_refs();
    next_batch_ordinal_ = 0;
  }

  /// References currently served: base + every delta segment (equals
  /// index().n_refs() without a DeltaIndex). Query ids start here.
  [[nodiscard]] Index total_refs() const;

  /// The DeltaIndex epoch last synced into the serving state (0 without
  /// one). Cache keys carry it, so epoch bumps are exact invalidation.
  [[nodiscard]] std::uint64_t epoch() const { return served_epoch_; }

  /// Syncs the engine to the DeltaIndex's current epoch: rebases the query
  /// id stream to the grown reference set and re-ledgers static residency
  /// (grid mode). No-op when the epoch is unchanged; serve() calls it
  /// implicitly.
  /// Throws std::runtime_error on an epoch change under an active fault
  /// plan (mutation + faults is an unsupported combination).
  void refresh_epoch();

  /// Installs a re-balanced placement (ShardPlacement::rebalance) and
  /// charges each migration's p2p copy to the donor and target rank clocks
  /// (sim::Comp::kMigrate, the fault path's recovery cost model). Returns
  /// the total modeled migration seconds. Grid mode only; throws
  /// std::runtime_error otherwise or under an active fault plan, and
  /// std::invalid_argument when the placement's geometry disagrees.
  double apply_replacement(const ShardPlacement& placement,
                           std::span<const ShardMigration> migrations);

  /// Charges a compaction's per-shard modeled seconds to the shard
  /// primaries' clocks (sim::Comp::kSparseOther; shard s mod nprocs
  /// without a grid). Returns the busiest rank's share — the modeled
  /// serving-side cost of the background merge.
  double charge_compaction(std::span<const double> shard_seconds);

  /// Recomputes per-rank static residency (placed shards + reference
  /// slices over the CURRENT reference set) and applies the diff to the
  /// runtime ledger, re-checking the rank budget. Grid mode; no-op
  /// otherwise. The constructor places the initial residency through it;
  /// refresh_epoch/apply_replacement call it again, and the serving tier
  /// calls it after a compaction (same epoch, shifted bytes).
  void resync_static_residency();

  [[nodiscard]] const KmerIndex& index() const { return *index_; }
  [[nodiscard]] const core::PastisConfig& config() const { return cfg_; }
  [[nodiscard]] const Options& options() const { return opt_; }
  /// Distributed mode only (nullptr otherwise).
  [[nodiscard]] const ShardPlacement* placement() const {
    return placement_ ? placement_.get() : nullptr;
  }
  [[nodiscard]] const sim::SimRuntime* runtime() const { return rt_.get(); }
  /// Serving ranks: the grid size in distributed mode, Options::nprocs in
  /// the single-address-space mode.
  [[nodiscard]] int serving_ranks() const {
    return rt_ ? rt_->nprocs() : opt_.nprocs;
  }

 private:
  /// Per-slot state of one in-flight batch (defined in the .cpp); serve()
  /// keeps one per pipeline slot.
  struct BatchSlot;
  /// One batch's discovery results as pricing needs them (defined in the
  /// .cpp): the shard → server map and the per-cell products and bytes.
  struct DiscoveryWork;

  /// Failover recoveries surfacing at one batch: per-rank modeled recovery
  /// seconds (replica promotion, re-replication copies, reference-slice
  /// handoff), the permanent resident bytes re-placement adds per rank,
  /// and the ranks whose planned death this batch makes effective in the
  /// runtime ledger. Computed SEQUENTIALLY in batch-ordinal order by
  /// plan_batch_faults (it advances the engine's death/residency
  /// bookkeeping); the concurrent pipeline stages only read it. Ledger
  /// effects apply at the batch's strictly-ordered retirement.
  struct BatchFaults {
    std::vector<double> recovery_s;           // per-rank modeled seconds
    std::vector<std::uint64_t> new_resident;  // per-rank permanent bytes
    std::vector<int> deaths;                  // ranks whose death applies
    bool any = false;
  };
  [[nodiscard]] BatchFaults plan_batch_faults(std::uint64_t ordinal);

  /// The three executor stages every served batch flows through — the
  /// pipeline's {discover, screen, align} graph. Each is a deterministic
  /// function of the slot's (queries, batch_base) — the property that
  /// makes hits depth- and schedule-invariant. screen_batch runs the
  /// cascade tiers over what discover_batch staged (a no-op with the
  /// cascade off).
  void discover_batch(BatchSlot& slot) const;
  void screen_batch(BatchSlot& slot) const;
  void align_batch(BatchSlot& slot) const;
  /// Prices one batch's discovery on the modeled ranks — the broadcast of
  /// the query stripe, each server's shard multiplies, and the assembly of
  /// the overlap matrix — into the slot's stats (and, in grid mode, its
  /// clock frame). Pure accounting: it never touches results.
  void charge_discovery(BatchSlot& slot, const DiscoveryWork& work) const;
  /// Resolves global sequence ids of the slot's batch: references below
  /// total_refs(), the batch's queries from its stream base on.
  [[nodiscard]] align::BatchAligner::SeqAccessor seq_accessor(
      const BatchSlot& slot) const;
  /// Folds a retired batch's clock frame + workspace into the runtime
  /// ledger (distributed mode; called in batch order).
  void retire_distributed(BatchSlot& slot);
  /// Throws std::runtime_error when any rank's ledgered high-water mark
  /// exceeds PastisConfig::effective_rank_memory_budget() (no-op with the
  /// budget unset).
  void enforce_rank_budget() const;

  /// Shared construction body; `delta` may be null (plain KmerIndex mode).
  QueryEngine(const serve::DeltaIndex* delta, const KmerIndex& index,
              core::PastisConfig cfg, sim::MachineModel model, Options opt,
              util::ThreadPool* pool);

  /// Reference sequence by global id, folding delta segments.
  [[nodiscard]] std::string_view ref_seq(Index id) const;
  /// Per-shard resident bytes, folding delta segments.
  [[nodiscard]] std::vector<std::uint64_t> shard_bytes_all() const;
  /// Charges the ResultCache's resident bytes to the rank ledger (cache
  /// shard k on rank k mod nprocs), as a diff against the last sync.
  /// Called at strictly-ordered batch retirement.
  void sync_cache_ledger();

  const KmerIndex* index_;
  /// Non-null when serving a DeltaIndex view (index_ aliases its base).
  const serve::DeltaIndex* delta_ = nullptr;
  std::uint64_t served_epoch_ = 0;
  core::PastisConfig cfg_;
  sim::MachineModel model_;
  Options opt_;
  util::ThreadPool* pool_;
  align::BatchAligner aligner_;
  /// CascadeOptions fingerprint, folded into every ResultCache key so
  /// retuning tier thresholds can never replay stale cascade results.
  std::uint64_t cascade_sig_ = 0;
  Index next_query_id_ = 0;
  std::uint64_t next_batch_ordinal_ = 0;

  // Distributed serving state (set iff opt_.grid_side >= 1); a non-null rt_
  // is the engine's one grid-mode test.
  std::unique_ptr<sim::SimRuntime> rt_;
  std::unique_ptr<ShardPlacement> placement_;
  /// Static per-rank residency: placed shard bytes + the rank's slice of
  /// the reference residues (alignment ownership ranges).
  std::vector<std::uint64_t> static_resident_;
  /// Cache shard bytes already charged to the rank ledger (diff base for
  /// sync_cache_ledger).
  std::vector<std::uint64_t> cache_charged_bytes_;

  // Fault-tolerance bookkeeping (grid mode with a non-empty fault plan).
  // All of it is read/written only by sequential code: plan_batch_faults
  // in batch-ordinal order, never the concurrent stages.
  bool faults_enabled_ = false;
  std::vector<char> death_recovered_;  // plan event -> recovery charged
  std::vector<char> dead_seen_;        // rank -> death already surfaced
  /// Running per-rank resident estimate (static placement + re-placements)
  /// — the deterministic tie-broken load the re-replication target rule
  /// minimizes.
  std::vector<std::uint64_t> resident_estimate_;
  std::vector<std::uint64_t> ref_slice_bytes_;  // rank -> reference slice
};

}  // namespace pastis::index
