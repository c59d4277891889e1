#include "serve/serving_tier.hpp"

#include <utility>

#include "index/placement.hpp"
#include "obs/metrics.hpp"

namespace pastis::serve {

namespace {

[[nodiscard]] std::unique_ptr<ResultCache> make_cache(
    const TierOptions& opt, const core::PastisConfig& cfg) {
  if (opt.cache_capacity_bytes == 0) return nullptr;
  ResultCache::Options copt;
  copt.capacity_bytes = opt.cache_capacity_bytes;
  copt.telemetry = cfg.telemetry;
  return std::make_unique<ResultCache>(copt);
}

}  // namespace

index::QueryEngine::Options ServingTier::engine_options() const {
  index::QueryEngine::Options eopt = opt_.engine;
  eopt.result_cache = cache_.get();
  return eopt;
}

ServingTier::ServingTier(index::KmerIndex base, core::PastisConfig cfg,
                         sim::MachineModel model, TierOptions opt,
                         util::ThreadPool* pool)
    : cfg_(std::move(cfg)), model_(model), opt_(opt), pool_(pool),
      delta_(std::move(base), cfg_), cache_(make_cache(opt_, cfg_)),
      engine_(delta_, cfg_, model_, engine_options(), pool_) {}

AddStats ServingTier::add_references(std::vector<std::string> refs) {
  AddStats st = delta_.add_references(std::move(refs), pool_);
  ++stats_.epochs;
  // Invalidation ordering: cached results of prior epochs are unreachable
  // the moment the epoch bumps (the key carries it), so an in-flight batch
  // can never replay pre-delta results against the new epoch; the explicit
  // drop reclaims their bytes before the engine serves the new epoch.
  if (cache_ != nullptr) cache_->invalidate_before(delta_.epoch());
  engine_.refresh_epoch();

  if (opt_.compaction_trigger_ratio > 0.0 &&
      delta_.compaction_due(opt_.compaction_trigger_ratio)) {
    const CompactionStats compaction = delta_.compact(model_, pool_);
    ++stats_.compactions;
    const double sec =
        engine_.charge_compaction(compaction.shard_modeled_seconds);
    stats_.compact_modeled_seconds += sec;
    // Same epoch, shifted physical bytes: re-ledger the placement.
    engine_.resync_static_residency();
    if (cfg_.telemetry.metrics != nullptr) {
      auto& m = *cfg_.telemetry.metrics;
      m.counter("compact.runs_total").add(1.0);
      m.counter("compact.postings_merged_total")
          .add(static_cast<double>(compaction.postings_merged));
      m.counter("compact.bytes_in_total")
          .add(static_cast<double>(compaction.bytes_in));
      m.counter("compact.bytes_out_total")
          .add(static_cast<double>(compaction.bytes_out));
      m.counter("compact.modeled_seconds_total").add(sec);
    }

    if (opt_.online_replacement && engine_.placement() != nullptr) {
      // Post-compaction loads drifted: re-run the greedy rebalance from
      // the current assignment and migrate only when it strictly lowers
      // the peak (a well-placed layout yields zero migrations).
      const auto rb = index::ShardPlacement::rebalance(
          *engine_.placement(), delta_.shard_total_bytes());
      if (!rb.migrations.empty()) {
        const double mig_s =
            engine_.apply_replacement(rb.placement, rb.migrations);
        stats_.migrated_shards += rb.migrations.size();
        std::uint64_t bytes = 0;
        for (const auto& mg : rb.migrations) bytes += mg.bytes;
        stats_.migrated_bytes += bytes;
        stats_.migrate_modeled_seconds += mig_s;
        if (cfg_.telemetry.metrics != nullptr) {
          auto& m = *cfg_.telemetry.metrics;
          m.counter("migrate.shards_total")
              .add(static_cast<double>(rb.migrations.size()));
          m.counter("migrate.bytes_total").add(static_cast<double>(bytes));
          m.counter("migrate.modeled_seconds_total").add(mig_s);
        }
      }
    }
  }
  return st;
}

}  // namespace pastis::serve
