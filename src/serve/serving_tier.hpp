// Always-on serving tier: one facade wiring the serving-path subsystems
// together over a mutable index.
//
//   ServingTier = DeltaIndex (LSM base + delta segments)
//               + ResultCache (query-result LRU, epoch-keyed)
//               + QueryEngine (discovery/alignment over base + deltas)
//               + background compaction (size-ratio trigger, modeled cost
//                 charged to the shard primaries' clocks)
//               + online shard re-placement (greedy incremental rebalance
//                 after compaction shifts the per-shard load, p2p migration
//                 cost charged like the fault path's recovery copies).
//
// Everything is OFF by default: with cache_capacity_bytes == 0,
// compaction_trigger_ratio <= 0 and online_replacement == false, serve()
// is bit-identical to a plain QueryEngine over the same index — the tier
// only ever changes cost, never results. The exactness contract,
// hard-gated by bench_serving_soak:
//
//   * delta path: serving after add_references() returns exactly what a
//     from-scratch rebuild over the union reference set would, at every
//     epoch, compacted or not;
//   * cache path: a hit replays exactly what the cold path would compute
//     for that (query content, epoch, parity) — the output stream is
//     unchanged by cache on/off.
//
// Telemetry (when cfg.telemetry.metrics is set): the engine and cache emit
// serve.* / cache.* series; this facade adds compact.* and migrate.*
// (see docs/OBSERVABILITY.md for the inventory).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "index/query_engine.hpp"
#include "serve/delta_index.hpp"
#include "serve/result_cache.hpp"
#include "sim/machine_model.hpp"
#include "util/thread_pool.hpp"

namespace pastis::serve {

struct TierOptions {
  /// Engine knobs (nprocs / top_k / depth / grid / replication); the
  /// per-rank budget comes from the config's budget chain.
  /// `engine.result_cache` is ignored — the tier owns its cache.
  index::QueryEngine::Options engine;
  /// Result-cache capacity; 0 disables the cache entirely.
  std::uint64_t cache_capacity_bytes = 0;
  /// Compact when delta bytes reach this ratio of base bytes (the LSM
  /// size-ratio trigger); <= 0 disables compaction.
  double compaction_trigger_ratio = 0.0;
  /// Re-run the greedy placement rebalance after each compaction and
  /// migrate shard primaries when it strictly lowers the peak (grid mode
  /// only; a no-op in the single address space).
  bool online_replacement = false;
};

struct TierStats {
  std::uint64_t epochs = 0;       // add_references() calls served
  std::uint64_t compactions = 0;  // size-ratio triggers fired
  std::uint64_t migrated_shards = 0;
  std::uint64_t migrated_bytes = 0;
  double compact_modeled_seconds = 0.0;  // busiest rank, summed over runs
  double migrate_modeled_seconds = 0.0;  // total p2p copy seconds
};

class ServingTier {
 public:
  /// Takes ownership of the base index. Throws like QueryEngine /
  /// DeltaIndex construction (param mismatch, malformed geometry, budget).
  ServingTier(index::KmerIndex base, core::PastisConfig cfg,
              sim::MachineModel model, TierOptions opt,
              util::ThreadPool* pool = &util::ThreadPool::global());

  /// Serve a stream of batches — QueryEngine semantics, with the cache
  /// consulted per query and delta segments folded per shard.
  [[nodiscard]] index::QueryEngine::Result serve(
      const std::vector<std::vector<std::string>>& batches) {
    return engine_.serve(batches);
  }

  /// The mutation path: appends a delta segment (the new references are
  /// searchable immediately), invalidates every cached result from prior
  /// epochs BEFORE the engine can serve the new epoch, then — if the LSM
  /// trigger fires — compacts in the background-stage sense (overlapped,
  /// admission-gated StreamPipeline) and optionally re-places shards
  /// against the post-compaction load.
  AddStats add_references(std::vector<std::string> refs);

  [[nodiscard]] const DeltaIndex& delta_index() const { return delta_; }
  /// nullptr when cache_capacity_bytes == 0.
  [[nodiscard]] const ResultCache* cache() const { return cache_.get(); }
  [[nodiscard]] index::QueryEngine& engine() { return engine_; }
  [[nodiscard]] const index::QueryEngine& engine() const { return engine_; }
  [[nodiscard]] const TierStats& stats() const { return stats_; }

 private:
  [[nodiscard]] index::QueryEngine::Options engine_options() const;

  core::PastisConfig cfg_;
  sim::MachineModel model_;
  TierOptions opt_;
  util::ThreadPool* pool_;
  // Construction order is load-bearing: the engine holds &delta_ and
  // &*cache_, so both must outlive (be declared before) engine_.
  DeltaIndex delta_;
  std::unique_ptr<ResultCache> cache_;
  index::QueryEngine engine_;
  TierStats stats_;
};

}  // namespace pastis::serve
