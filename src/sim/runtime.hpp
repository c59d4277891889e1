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
// Fault tolerance (sim/fault.hpp): the runtime enforces planned rank
// deaths — a dead rank's spmd task is skipped, its clock frozen
// (merge_frame ignores it), and its resident bytes released at the moment
// of death. Slowdown and message-drop faults are *advisory* here: the
// charging call sites consult slowdown()/drops_messages() because only
// they know which modeled seconds a fault dilates. Batch-triggered events
// advance via advance_to_batch() (sequential consumers) or are read as
// pure per-batch snapshots straight off the plan (the streaming serving
// path); time-triggered events fire in apply_time_faults(), called
// between super-steps. The death mask is atomic so a sequential consumer
// may mark deaths while a concurrent spmd super-step reads it — every
// other fault field is owned by sequential code.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/clock.hpp"
#include "sim/fault.hpp"
#include "sim/grid.hpp"
#include "sim/machine_model.hpp"
#include "util/thread_pool.hpp"

namespace pastis::sim {

class SimRuntime {
 public:
  SimRuntime(int p, MachineModel model,
             util::ThreadPool* pool = &util::ThreadPool::global())
      : grid_(p), model_(model), clocks_(static_cast<std::size_t>(p)),
        pool_(pool), dead_(static_cast<std::size_t>(p)),
        slowdown_(static_cast<std::size_t>(p), 1.0),
        drop_(static_cast<std::size_t>(p), 0) {}

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

  /// Sequential variant (used where determinism debugging is needed).
  void spmd_serial(const std::function<void(int)>& fn) {
    for (int r = 0; r < nprocs(); ++r) {
      if (alive(r)) fn(r);
    }
  }

  // ---- fault injection (sim/fault.hpp) ------------------------------------
  /// Installs the plan and resets transient fault state (deaths already
  /// applied are NOT revived — death is permanent).
  void install_faults(FaultPlan plan) {
    plan_ = std::move(plan);
    plan_.validate();
    std::fill(slowdown_.begin(), slowdown_.end(), 1.0);
    std::fill(drop_.begin(), drop_.end(), 0);
  }
  [[nodiscard]] const FaultPlan& fault_plan() const { return plan_; }

  /// Applies the plan's batch-triggered events as of serving batch
  /// `batch`: fires deaths, sets the transient slowdown/drop windows.
  /// Sequential consumers only (the streaming serving path reads pure
  /// FaultPlan::snapshot_at_batch snapshots instead).
  void advance_to_batch(std::uint64_t batch) {
    if (plan_.empty()) return;
    const FaultSnapshot s = plan_.snapshot_at_batch(batch, nprocs());
    for (int r = 0; r < nprocs(); ++r) {
      const auto ri = static_cast<std::size_t>(r);
      if (s.dead[ri] != 0 && alive(r)) kill_rank(r);
      slowdown_[ri] = s.slowdown[ri];
      drop_[ri] = s.drop[ri];
    }
  }

  /// Fires time-triggered events whose rank's modeled clock total has
  /// reached the trigger. Call between super-steps (sequential contexts).
  void apply_time_faults() {
    for (const auto& e : plan_.events) {
      if (!e.time_triggered() || e.rank < 0 || e.rank >= nprocs()) continue;
      const auto ri = static_cast<std::size_t>(e.rank);
      if (clocks_[ri].total() < e.at_time_s) continue;
      switch (e.kind) {
        case FaultKind::kDeath:
          if (alive(e.rank)) kill_rank(e.rank);
          break;
        case FaultKind::kSlowdown:
          slowdown_[ri] = std::max(slowdown_[ri], e.factor);
          break;
        case FaultKind::kDropMessages:
          drop_[ri] = 1;
          break;
      }
    }
  }

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
  /// Modeled dilation of this rank's task seconds (>= 1; advisory — the
  /// charging call sites apply it).
  [[nodiscard]] double slowdown(int rank) const {
    return slowdown_[static_cast<std::size_t>(rank)];
  }
  /// Whether messages FROM this rank are currently dropped (advisory; the
  /// sending call sites charge the resend through exec::RetryPolicy).
  [[nodiscard]] bool drops_messages(int rank) const {
    return drop_[static_cast<std::size_t>(rank)] != 0;
  }

  /// Sum/max helpers over per-rank modeled component times.
  [[nodiscard]] double max_over_ranks(Comp c) const {
    double m = 0.0;
    for (const auto& ck : clocks_) m = std::max(m, ck.get(c));
    return m;
  }
  [[nodiscard]] double sum_over_ranks(Comp c) const {
    double s = 0.0;
    for (const auto& ck : clocks_) s += ck.get(c);
    return s;
  }

  void reset_clocks() {
    for (auto& c : clocks_) c = RankClock{};
  }

  /// Resident-bytes ledger reductions (see RankClock::add_resident): the
  /// per-rank high-water marks and their max — the quantity a
  /// rank_memory_budget_bytes gate compares against.
  [[nodiscard]] std::vector<std::uint64_t> peak_resident_bytes() const {
    std::vector<std::uint64_t> out(clocks_.size());
    for (std::size_t r = 0; r < clocks_.size(); ++r) {
      out[r] = clocks_[r].peak_memory_bytes;
    }
    return out;
  }
  [[nodiscard]] std::uint64_t max_peak_resident_bytes() const {
    std::uint64_t m = 0;
    for (const auto& c : clocks_) m = std::max(m, c.peak_memory_bytes);
    return m;
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

  // Fault state. The death mask is atomic (spmd reads it while a
  // sequential consumer fires deaths); slowdown/drop are owned by
  // sequential code and advisory to charging call sites.
  FaultPlan plan_;
  std::vector<std::atomic<std::uint8_t>> dead_;
  std::vector<double> slowdown_;
  std::vector<char> drop_;
};

}  // namespace pastis::sim
