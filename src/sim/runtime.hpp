// Simulated SPMD runtime.
//
// `p` logical ranks (one per simulated Summit node) execute rank-indexed
// lambdas; real data moves between their rank-local containers while wire
// time is charged to the MachineModel. Rank tasks run in parallel on the
// host thread pool — each task touches only its rank's slot, so the
// execution is race-free and, more importantly, *deterministic*: results
// are bit-identical regardless of host core count, which is the property
// the paper claims for PASTIS itself.
//
// Rank deaths (sim/fault.hpp): a dead rank's spmd task is skipped, its
// clock frozen (merge_frame ignores it), and its resident bytes released at
// the moment of death. The consumers read their per-batch fault state
// (deaths, slowdowns, drops) as pure FaultPlan::snapshot_at_batch
// snapshots and apply deaths here through kill_rank(). The death mask is
// atomic so a sequential consumer may mark deaths while a concurrent spmd
// super-step reads it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/clock.hpp"
#include "sim/grid.hpp"
#include "sim/machine_model.hpp"
#include "util/thread_pool.hpp"

namespace pastis::sim {

class SimRuntime {
 public:
  SimRuntime(int p, MachineModel model,
             util::ThreadPool* pool = &util::ThreadPool::global())
      : grid_(p), model_(model), clocks_(static_cast<std::size_t>(p)),
        pool_(pool), dead_(static_cast<std::size_t>(p)) {}

  [[nodiscard]] const ProcGrid& grid() const { return grid_; }
  [[nodiscard]] const MachineModel& model() const { return model_; }
  [[nodiscard]] int nprocs() const { return grid_.size(); }

  [[nodiscard]] RankClock& clock(int rank) {
    return clocks_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] const RankClock& clock(int rank) const {
    return clocks_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] const std::vector<RankClock>& clocks() const { return clocks_; }

  /// Executes fn(rank) for every ALIVE rank, in parallel on the host pool.
  /// This is one bulk-synchronous super-step: callers sequence super-steps
  /// the way barriers/collectives would on the real machine. Dead ranks'
  /// tasks are skipped — the fault plan's kDeath contract.
  void spmd(const std::function<void(int)>& fn) {
    pool_->parallel_for(static_cast<std::size_t>(nprocs()),
                        [&](std::size_t r) {
                          if (dead_[r].load(std::memory_order_relaxed) != 0) {
                            return;
                          }
                          fn(static_cast<int>(r));
                        });
  }

  // ---- rank deaths (sim/fault.hpp) ----------------------------------------
  /// Kills `rank` now: its spmd tasks are skipped from here on, its clock
  /// frozen (merge_frame ignores it), and its ledgered resident bytes
  /// released (the high-water mark keeps the history). Idempotent.
  void kill_rank(int rank) {
    const auto ri = static_cast<std::size_t>(rank);
    if (dead_[ri].exchange(1, std::memory_order_relaxed) != 0) return;
    clocks_[ri].sub_resident(clocks_[ri].resident_bytes);
  }

  [[nodiscard]] bool alive(int rank) const {
    return dead_[static_cast<std::size_t>(rank)].load(
               std::memory_order_relaxed) == 0;
  }
  [[nodiscard]] int n_alive() const {
    int n = 0;
    for (int r = 0; r < nprocs(); ++r) n += alive(r) ? 1 : 0;
    return n;
  }

  /// Sum over ranks of one modeled component time.
  [[nodiscard]] double sum_over_ranks(Comp c) const {
    double s = 0.0;
    for (const auto& ck : clocks_) s += ck.get(c);
    return s;
  }

  /// Per-rank resident-bytes high-water marks (see
  /// RankClock::add_resident) — what a rank_memory_budget_bytes gate
  /// compares against.
  [[nodiscard]] std::vector<std::uint64_t> peak_resident_bytes() const {
    std::vector<std::uint64_t> out(clocks_.size());
    for (std::size_t r = 0; r < clocks_.size(); ++r) {
      out[r] = clocks_[r].peak_memory_bytes;
    }
    return out;
  }

  /// Folds a detached per-rank clock frame (one RankClock per rank) into
  /// the shared clocks. Concurrent stage-slots of the streaming executor
  /// each charge their own frame (race-free; see SummaOptions::clocks)
  /// and merge in a deterministic order at retirement, so component
  /// totals are schedule-independent. Dead ranks' clocks are frozen:
  /// their frame entries are dropped.
  void merge_frame(const std::vector<RankClock>& frame) {
    for (int r = 0; r < nprocs(); ++r) {
      if (!alive(r)) continue;
      clocks_[static_cast<std::size_t>(r)].merge(
          frame[static_cast<std::size_t>(r)]);
    }
  }

 private:
  ProcGrid grid_;
  MachineModel model_;
  std::vector<RankClock> clocks_;
  util::ThreadPool* pool_;

  // Death mask: atomic because spmd reads it while a sequential consumer
  // fires deaths.
  std::vector<std::atomic<std::uint8_t>> dead_;
};

}  // namespace pastis::sim
