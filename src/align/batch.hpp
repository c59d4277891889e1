// Batch pairwise aligner modelled on ADEPT [Awan et al., BMC Bioinformatics
// 2020], the GPU library the paper dedicates Summit's V100s to.
//
// ADEPT's driver detects the node's GPUs, splits a batch of alignments
// across them, and runs one host thread per device for packing and
// transfers. We reproduce its split in the accounting: `devices` logical
// accelerators, each assigned a slice of the batch by the driver's
// balancing rule (assign_lanes). Alignment *results* are
// computed exactly on the host by align_tasks: full and banded
// Smith-Waterman run through 8-lane inter-pair kernels
// (smith_waterman_lanes, banded_smith_waterman_lanes: AVX2, pairs grouped
// by length, bit-identical to the scalar kernels, which take every pair
// the lanes cannot); x-drop runs per pair.
// Alignment *time* is charged to the device model (cells / GCUPS, priced
// by core::modeled_align_seconds from the cells and pairs counted here),
// which is how every paper-facing number stays hardware-independent.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "align/banded.hpp"
#include "align/smith_waterman.hpp"
#include "align/xdrop.hpp"
#include "obs/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace pastis::align {

enum class AlignKind { kFullSW, kBanded, kXDrop };

/// One pairwise alignment request. Seeds come from the overlap matrix's
/// CommonKmers payload and are only consulted by the banded/x-drop kernels.
struct AlignTask {
  std::uint32_t q_id = 0;
  std::uint32_t r_id = 0;
  std::uint32_t seed_q = 0;
  std::uint32_t seed_r = 0;
};

/// Work accounting for one or more batches. The modeled device time is
/// priced from these counters in one place (core::modeled_align_seconds).
struct BatchStats {
  std::uint64_t pairs = 0;
  std::uint64_t cells = 0;  // DP cells updated

  void merge(const BatchStats& o) {
    pairs += o.pairs;
    cells += o.cells;
  }
};

/// Reusable lane-assignment buffers (one per rank, or per executor slot).
/// The aligner itself is immutable and re-entrant; all mutable per-batch
/// state lives in these scratch objects, so the streaming executor keeps
/// one per in-flight slot instead of allocating per call.
struct LaneScratch {
  std::vector<int> lanes;
  std::vector<std::uint64_t> load;          // per device: Σ |q|·|r| proxy
  std::vector<std::uint64_t> device_cells;  // stats_for accumulators
  std::vector<std::uint64_t> device_pairs;
};

class BatchAligner {
 public:
  struct Config {
    AlignKind kind = AlignKind::kFullSW;
    /// Logical accelerators per node (Summit: 6 V100s).
    int devices = 6;
    int band_half_width = 32;
    int xdrop = 25;
    std::uint32_t seed_len = 6;
    /// Telemetry sinks (null = off). With metrics, every accounted batch
    /// (stats_for) adds per-lane cells/pairs counters
    /// ("align.lane<d>.cells_total") and batch totals. Results are
    /// unaffected.
    obs::Telemetry telemetry;
  };

  BatchAligner(Scoring scoring, Config config)
      : scoring_(std::move(scoring)), config_(config) {}

  /// Resolves sequence residues for a global sequence id.
  using SeqAccessor = std::function<std::string_view(std::uint32_t)>;

  /// Aligns every task with `kind` into `results` (same size,
  /// positionally parallel) — the one host execution path every batch
  /// caller and the cascade's tier-1 probes share. Full SW runs through
  /// smith_waterman_lanes with tasks ordered by (|r|, |q|, index), banded
  /// through banded_smith_waterman_lanes ordered by (|q|, |r|, index), i.e.
  /// by row count; either way the order is cut into groups of kLanePairs
  /// and the groups run on `pool` (inline when null). X-drop runs one pair
  /// per iteration. Element-wise identical to align_pair with `kind`.
  void align_tasks(const SeqAccessor& seq_of, std::span<const AlignTask> tasks,
                   AlignKind kind, std::span<AlignResult> results,
                   util::ThreadPool* pool) const;

  /// Aligns a single task (element-wise identical to align_tasks with the
  /// configured kind).
  [[nodiscard]] AlignResult align_one_task(const SeqAccessor& seq_of,
                                           const AlignTask& task) const {
    return align_pair(seq_of(task.q_id), seq_of(task.r_id), task,
                      config_.kind);
  }

  /// One pair through the scalar kernel of `kind` — the one kernel switch:
  /// smith_waterman, banded_smith_waterman around seed_r - seed_q at the
  /// config's half-width, or xdrop_extend from the seed with the config's
  /// seed_len and xdrop. align::tier1_keep probes one pair through it;
  /// the data plane probes whole batches through align_tasks, and reuses a
  /// probe as the tier-2 result when the kinds agree.
  [[nodiscard]] AlignResult align_pair(std::string_view q, std::string_view r,
                                       const AlignTask& task,
                                       AlignKind kind) const;

  /// Device-model accounting for a batch whose results are already known:
  /// the greedy lane assignment (assign_lanes) into `scratch` (a reusable
  /// per-rank or per-slot buffer, so the re-entrant stage path allocates
  /// nothing), then per-device cells and pairs accumulated through it.
  [[nodiscard]] BatchStats stats_for(const SeqAccessor& seq_of,
                                     std::span<const AlignTask> tasks,
                                     std::span<const AlignResult> results,
                                     LaneScratch& scratch) const;

  /// Deterministic device assignment into `scratch.lanes`: tasks go to the
  /// least-loaded device by the DP-size proxy |q|*|r| (the ADEPT driver
  /// balances its per-GPU batches; plain round-robin quantizes badly when
  /// batches are small).
  void assign_lanes(const SeqAccessor& seq_of, std::span<const AlignTask> tasks,
                    LaneScratch& scratch) const;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const Scoring& scoring() const { return scoring_; }

 private:
  Scoring scoring_;
  Config config_;
};

}  // namespace pastis::align
