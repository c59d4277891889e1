#include "align/batch.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <tuple>

#include "obs/metrics.hpp"

namespace pastis::align {

namespace {

/// The banded kernels' diag_center for a task.
int band_diagonal(const AlignTask& task) {
  return static_cast<int>(task.seed_r) - static_cast<int>(task.seed_q);
}

}  // namespace

AlignResult BatchAligner::run_full_sw(std::string_view q, std::string_view r,
                                      const AlignTask&) const {
  return smith_waterman(q, r, scoring_);
}

AlignResult BatchAligner::run_banded(std::string_view q, std::string_view r,
                                     const AlignTask& task) const {
  return banded_smith_waterman(q, r, scoring_, band_diagonal(task),
                               config_.band_half_width);
}

AlignResult BatchAligner::run_xdrop(std::string_view q, std::string_view r,
                                    const AlignTask& task) const {
  return xdrop_extend(q, r, task.seed_q, task.seed_r, config_.seed_len,
                      scoring_, config_.xdrop);
}

const BatchAligner::KernelFn BatchAligner::kKernelTable[3] = {
    &BatchAligner::run_full_sw,  // AlignKind::kFullSW
    &BatchAligner::run_banded,   // AlignKind::kBanded
    &BatchAligner::run_xdrop,    // AlignKind::kXDrop
};

AlignResult BatchAligner::align_pair(std::string_view q, std::string_view r,
                                     const AlignTask& task,
                                     AlignKind kind) const {
  return (this->*kKernelTable[static_cast<int>(kind)])(q, r, task);
}

void BatchAligner::assign_lanes(const SeqAccessor& seq_of,
                                std::span<const AlignTask> tasks,
                                LaneScratch& scratch) const {
  const int devices = std::max(1, config_.devices);
  scratch.lanes.assign(tasks.size(), 0);
  scratch.load.assign(static_cast<std::size_t>(devices), 0);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    int best = 0;
    for (int d = 1; d < devices; ++d) {
      if (scratch.load[static_cast<std::size_t>(d)] <
          scratch.load[static_cast<std::size_t>(best)]) {
        best = d;
      }
    }
    scratch.lanes[t] = best;
    scratch.load[static_cast<std::size_t>(best)] +=
        static_cast<std::uint64_t>(seq_of(tasks[t].q_id).size()) *
        static_cast<std::uint64_t>(seq_of(tasks[t].r_id).size());
  }
}

BatchStats BatchAligner::stats_for(const SeqAccessor& seq_of,
                                   std::span<const AlignTask> tasks,
                                   std::span<const AlignResult> results,
                                   LaneScratch& scratch) const {
  assign_lanes(seq_of, tasks, scratch);
  return stats_with(results, scratch.lanes, scratch.device_cells,
                    scratch.device_pairs);
}

BatchStats BatchAligner::stats_with(
    std::span<const AlignResult> results, std::span<const int> lanes,
    std::vector<std::uint64_t>& device_cells,
    std::vector<std::uint64_t>& device_pairs) const {
  const int devices = std::max(1, config_.devices);
  device_cells.assign(static_cast<std::size_t>(devices), 0);
  device_pairs.assign(static_cast<std::size_t>(devices), 0);
  BatchStats stats;
  for (std::size_t t = 0; t < results.size(); ++t) {
    const int lane = lanes[t];
    device_cells[lane] += results[t].cells;
    ++device_pairs[lane];
    stats.cells += results[t].cells;
  }
  stats.pairs = results.size();
  if (config_.telemetry.metrics != nullptr) {
    auto& m = *config_.telemetry.metrics;
    m.counter("align.pairs_total").add(static_cast<double>(stats.pairs));
    m.counter("align.cells_total").add(static_cast<double>(stats.cells));
    for (int d = 0; d < devices; ++d) {
      const std::string lane = "align.lane" + std::to_string(d);
      m.counter(lane + ".cells_total")
          .add(static_cast<double>(device_cells[static_cast<std::size_t>(d)]));
      m.counter(lane + ".pairs_total")
          .add(static_cast<double>(device_pairs[static_cast<std::size_t>(d)]));
      // The Fig. 7 presentation of per-device balance, one sample per lane
      // per batch.
      m.min_avg_max("align.lane_cells")
          .add(static_cast<double>(device_cells[static_cast<std::size_t>(d)]));
    }
  }
  return stats;
}

void BatchAligner::align_tasks(const SeqAccessor& seq_of,
                               std::span<const AlignTask> tasks, AlignKind kind,
                               std::span<AlignResult> results,
                               util::ThreadPool* pool) const {
  if (results.size() != tasks.size()) {
    throw std::invalid_argument("align_tasks: results and tasks differ in size");
  }
  if (kind == AlignKind::kXDrop) {
    util::parallel_for(pool, tasks.size(), [&](std::size_t t) {
      results[t] =
          align_pair(seq_of(tasks[t].q_id), seq_of(tasks[t].r_id), tasks[t],
                     kind);
    });
    return;
  }

  // Neighbours in this order pad each other least in a lane group: full SW
  // pads each lane to the group's largest |q| x |r| with columns innermost,
  // banded to the group's most rows times its widest band.
  const bool banded = kind == AlignKind::kBanded;
  struct Key {
    std::uint32_t major, minor, task;
  };
  std::vector<Key> order(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const auto q_len = static_cast<std::uint32_t>(seq_of(tasks[t].q_id).size());
    const auto r_len = static_cast<std::uint32_t>(seq_of(tasks[t].r_id).size());
    order[t] = banded ? Key{q_len, r_len, static_cast<std::uint32_t>(t)}
                      : Key{r_len, q_len, static_cast<std::uint32_t>(t)};
  }
  std::sort(order.begin(), order.end(), [](const Key& a, const Key& b) {
    return std::tie(a.major, a.minor, a.task) <
           std::tie(b.major, b.minor, b.task);
  });
  // Groups run largest first, so the pool's last chunks are the cheapest.
  const std::size_t groups = (tasks.size() + kLanePairs - 1) / kLanePairs;
  util::parallel_for(pool, groups, [&](std::size_t g) {
    const std::size_t first = (groups - 1 - g) * kLanePairs;
    const std::size_t count = std::min(kLanePairs, tasks.size() - first);
    std::array<std::string_view, kLanePairs> qs, rs;
    std::array<int, kLanePairs> diags{};
    std::array<AlignResult, kLanePairs> out;
    for (std::size_t k = 0; k < count; ++k) {
      const AlignTask& task = tasks[order[first + k].task];
      qs[k] = seq_of(task.q_id);
      rs[k] = seq_of(task.r_id);
      diags[k] = band_diagonal(task);
    }
    if (banded) {
      banded_smith_waterman_lanes(std::span(qs.data(), count),
                                  std::span(rs.data(), count), scoring_,
                                  std::span(diags.data(), count),
                                  config_.band_half_width,
                                  std::span(out.data(), count));
    } else {
      smith_waterman_lanes(std::span(qs.data(), count),
                           std::span(rs.data(), count), scoring_,
                           std::span(out.data(), count));
    }
    for (std::size_t k = 0; k < count; ++k) {
      results[order[first + k].task] = out[k];
    }
  });
}

}  // namespace pastis::align
