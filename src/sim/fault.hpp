// Deterministic rank-fault injection for the simulated runtime.
//
// The paper's production runs hold thousands of Summit nodes for hours — a
// regime where rank loss is the norm, not the exception. This module
// describes *planned* faults: a FaultPlan is a list of events that kill a
// rank, slow it down, or drop its outbound messages, each firing at a
// specific serving-stream batch ordinal. Faults are data, not randomness:
// for a fixed plan the outcome of every consumer (serving failover,
// degraded masks, modeled makespans) is bit-identical regardless of host
// thread count, and the empty plan is bit-identical to a build without the
// fault layer at all.
//
// The consumer is the streaming serving path (index::QueryEngine): the
// fault state seen by batch b is the pure function `snapshot_at_batch(b)`,
// so concurrently in-flight batches never race on mutable fault state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pastis::sim {

enum class FaultKind : int {
  /// The rank stops permanently: its tasks are skipped, its clock frozen,
  /// its resident bytes released. Serving escalates straight to failover.
  kDeath = 0,
  /// Transient: the rank's modeled task seconds are dilated by `factor`
  /// while the fault is active. Serving retries through exec::RetryPolicy
  /// rather than failing over.
  kSlowdown,
  /// Transient: messages *from* this rank are dropped once and must be
  /// resent (one retry + backoff per send while active).
  kDropMessages,
};

[[nodiscard]] constexpr const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kDeath:
      return "kill";
    case FaultKind::kSlowdown:
      return "slow";
    case FaultKind::kDropMessages:
      return "drop";
  }
  return "?";
}

struct FaultEvent {
  FaultKind kind = FaultKind::kDeath;
  int rank = 0;
  /// Batch-ordinal trigger: the event is in effect from serving-stream
  /// batch `at_batch` onwards.
  std::uint64_t at_batch = 0;
  /// kSlowdown only: the modeled-seconds dilation factor (finite, >= 1).
  double factor = 1.0;
  /// Transient window in batches for kSlowdown / kDropMessages: active for
  /// [at_batch, at_batch + for_batches). 0 = active forever. Deaths are
  /// always permanent.
  std::uint64_t for_batches = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// The per-rank fault state in effect for one serving batch — a pure
/// function of (plan, batch ordinal), never of the schedule.
struct FaultSnapshot {
  std::vector<char> dead;        // rank -> permanently failed
  std::vector<double> slowdown;  // rank -> modeled dilation factor (>= 1)
  std::vector<char> drop;        // rank -> outbound messages dropped

  [[nodiscard]] bool any() const {
    for (const char d : dead)
      if (d) return true;
    for (const double f : slowdown)
      if (f > 1.0) return true;
    for (const char d : drop)
      if (d) return true;
    return false;
  }
  [[nodiscard]] int n_alive() const {
    int n = 0;
    for (const char d : dead) n += d ? 0 : 1;
    return n;
  }
  /// First alive rank at or cyclically after `rank` (-1 when all dead) —
  /// the deterministic successor rule batch ownership and reference-slice
  /// failover both use.
  [[nodiscard]] int next_alive(int rank) const;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }

  /// Throws std::invalid_argument for malformed events (negative rank,
  /// slowdown factor not finite or < 1, non-slowdown events carrying a
  /// factor).
  void validate() const;

  /// Fault state in effect for serving batch `batch` on an `nranks` grid.
  /// Events naming ranks outside the grid are ignored. Pure and
  /// schedule-independent.
  [[nodiscard]] FaultSnapshot snapshot_at_batch(std::uint64_t batch,
                                                int nranks) const;

  /// Plan grammar (docs/ARCHITECTURE.md "Fault plan grammar"):
  ///   plan    := event (';' event)*
  ///   event   := kind '@' 'b' batch ':' 'r' rank [ 'x' factor ] [ '+' batches ]
  ///   kind    := 'kill' | 'slow' | 'drop'
  /// e.g. "kill@b2:r3;slow@b1:r0x4+2;drop@b0:r1+3". Every number spans its
  /// whole field: batch, rank and batches are unsigned integers that fit
  /// their types, factor a finite decimal. Whitespace around tokens is
  /// ignored. Throws std::invalid_argument naming the offending token.
  [[nodiscard]] static FaultPlan parse(const std::string& text);
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

}  // namespace pastis::sim
