// Modeled-overlap accounting for the streaming executor (paper §VI-C,
// Tables I/II).
//
// Each pipeline item charges its modeled seconds into a per-slot clock
// frame while it runs; what the *timeline* owes is not the sum of those
// charges but the makespan of the software pipeline that executed them: a
// discovery (CPU) resource and an alignment (device) resource, each serial
// across items, with at most `depth` items in flight. Per rank, with
// S_b = discovery seconds and A_b = alignment seconds of item b:
//
//   disc_end[b]  = max(disc_end[b-1], align_end[b-depth]) + S_b
//   align_end[b] = max(disc_end[b],   align_end[b-1])     + A_b
//
// depth 1 collapses to the serial sum Σ (S_b + A_b) — today's unoverlapped
// loop — and depth 2 telescopes to exactly the paper's pre-blocking
// timeline S_0 + Σ max(A_b, S_{b+1}) (the Table I accounting): the
// recurrence is its strict generalization to deeper lookahead, where the
// align_end[b-depth] term is the bounded-memory admission gate. The
// reduction is streaming: O(ranks × depth) state, not a dense
// ranks × items matrix.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"

namespace pastis::exec {

/// Streaming per-rank pipeline-makespan reducer. Feed items in order with
/// add(); read per-rank makespans any time.
class OverlapTimeline {
 public:
  OverlapTimeline(int nranks, int depth);

  /// Emits every subsequently added item's placed stage intervals as
  /// modeled spans ("<span_prefix>discover" / "<span_prefix>align") on the
  /// tracer's per-rank tracks (null = off, the default). The intervals are
  /// the recurrence's own disc/align begin and end values, so the trace's
  /// largest modeled end time equals max_makespan() exactly — the trace IS
  /// the schedule, not a re-derivation of it.
  void set_tracer(obs::Tracer* tracer, std::string span_prefix = "");

  /// Charges item `b`'s per-rank stage seconds (b = number of prior adds).
  /// Spans must have `nranks` entries; seconds are the already-dilated
  /// modeled values.
  void add(std::span<const double> sparse_s, std::span<const double> align_s);

  /// Makespan of everything added so far, for one rank / the slowest rank.
  [[nodiscard]] double makespan(int rank) const;
  [[nodiscard]] double max_makespan() const;
  [[nodiscard]] std::vector<double> makespans() const;

  /// The discovery interval the most recent add() placed for `rank` on the
  /// modeled timeline — where serve() anchors failover-recovery spans
  /// (the recovery seconds are charged at the head of the recovering
  /// batch's discovery work). {0, 0} before the first add.
  [[nodiscard]] std::pair<double, double> last_disc_interval(int rank) const;

  [[nodiscard]] int depth() const { return depth_; }
  [[nodiscard]] std::size_t items() const { return items_; }

 private:
  int nranks_;
  int depth_;
  std::size_t items_ = 0;
  obs::Tracer* tracer_ = nullptr;
  std::string span_prefix_;
  std::vector<double> serial_;     // depth 1: running Σ (S + A) per rank
  std::vector<double> disc_end_;   // per rank
  std::vector<double> align_end_;  // per rank ring, depth entries each
  std::vector<double> last_disc_begin_;  // per rank, most recent add()
  std::vector<double> last_disc_end_;
};

/// Scalar convenience: the makespan of one rank's (or the max-rank
/// envelope's) stage seconds under a pipeline of the given depth.
[[nodiscard]] double pipelined_makespan(std::span<const double> sparse_s,
                                        std::span<const double> align_s,
                                        int depth);

/// Streaming per-rank peak of the resident overlap-block bytes: with
/// `depth` items in flight, a rank's worst case holds `depth` consecutive
/// blocks' local parts at once. O(ranks × depth) ring state.
class ResidentWindow {
 public:
  ResidentWindow(int nranks, int depth);

  /// Registers item `b`'s per-rank resident bytes (in item order).
  void add(std::span<const std::uint64_t> bytes);

  /// Peak windowed residency seen so far for `rank`.
  [[nodiscard]] std::uint64_t peak(int rank) const;

 private:
  int nranks_;
  int depth_;
  std::size_t items_ = 0;
  std::vector<std::uint64_t> ring_;  // per rank, depth entries
  std::vector<std::uint64_t> sum_;   // per rank: current window sum
  std::vector<std::uint64_t> peak_;  // per rank
};

}  // namespace pastis::exec
