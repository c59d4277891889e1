// Sparse SUMMA over the simulated grid (paper §V-A / §VI-A).
//
// C = A ·_SR B proceeds in `side` stages: at stage s the tiles of A's grid
// column s are broadcast along their grid rows and the tiles of B's grid row
// s along their grid columns; every rank multiplies the received pair with a
// local semiring SpGEMM and merges the √p stage outputs with the semiring
// add. The modeled timeline charges per stage the tree-broadcast cost
// (log √p depth, §VI-A's formula) and the local multiply converted through
// the MachineModel's hash-SpGEMM rate; the stage merge is streamed.
//
// This is the staged schedule the search's block loop runs. Results are
// exact for any grid: each scalar product A(i,k)·B(k,j) is formed exactly
// once, and the stage-merge add order is harmless for the
// order-independent adds this code base uses (see core/common_kmers.hpp).
// An order-sensitive add (the MCL expansion's float PlusTimes) needs every
// C(i,j) summed in ascending k, so the MCL grid gathers each rank's full
// operand strips and multiplies once instead (cluster/mcl.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "dist/distmat.hpp"
#include "sim/clock.hpp"
#include "sim/runtime.hpp"
#include "sparse/spgemm.hpp"

namespace pastis::dist {

/// Broadcasts, local multiplies and the stage merge are all charged to
/// sim::Comp::kSpGemm: the merge is part of the multiply.
struct SummaOptions {
  /// Pool the two-phase kernel's row ranges run on (nullptr = in-rank
  /// serial; the rank lambdas themselves already run on the host pool, and
  /// nested parallel_for is safe — idle workers steal chunks).
  util::ThreadPool* pool = nullptr;
  /// Charge sink: when non-null, per-rank charges and counters go to
  /// `clocks[rank]` instead of the runtime's clocks. The streaming
  /// executor points this at a stage-slot clock frame so concurrently
  /// running blocks never touch the shared clocks (the frames are merged
  /// in block order at retirement — see core/pipeline.cpp).
  sim::RankClock* clocks = nullptr;
};

template <sparse::SemiringLike SR>
[[nodiscard]] DistSpMat<typename SR::value_type> summa(
    sim::SimRuntime& rt, const DistSpMat<typename SR::left_type>& A,
    const DistSpMat<typename SR::right_type>& B, SummaOptions opt = {},
    sparse::SpGemmStats* stats = nullptr) {
  using V = typename SR::value_type;
  if (A.ncols() != B.nrows()) {
    throw std::invalid_argument("summa: inner dimensions disagree");
  }
  const sim::ProcGrid& grid = rt.grid();
  const int side = grid.side();
  const int p = grid.size();

  DistSpMat<V> C(grid, A.nrows(), B.ncols());
  std::vector<sparse::SpGemmStats> rank_stats(static_cast<std::size_t>(p));

  rt.spmd([&](int rank) {
    const int gi = grid.row_of(rank);
    const int gj = grid.col_of(rank);
    auto& clock = opt.clocks != nullptr ? opt.clocks[rank] : rt.clock(rank);
    auto& rstats = rank_stats[static_cast<std::size_t>(rank)];

    std::vector<sparse::SpMat<V>> parts;
    parts.reserve(static_cast<std::size_t>(side));
    std::uint64_t part_bytes = 0;
    for (int s = 0; s < side; ++s) {
      const auto& a_tile = A.local(grid.rank_of(gi, s));
      const auto& b_tile = B.local(grid.rank_of(s, gj));

      // Stage broadcasts within the row/column teams (§VI-A: log √p tree
      // depth per stage, charged to everyone in the team).
      clock.charge(sim::Comp::kSpGemm,
                   rt.model().bcast_time(a_tile.bytes(), side) +
                       rt.model().bcast_time(b_tile.bytes(), side));
      clock.bytes_recv += a_tile.bytes() + b_tile.bytes();
      if (grid.rank_of(gi, s) == rank) clock.bytes_sent += a_tile.bytes();
      if (grid.rank_of(s, gj) == rank) clock.bytes_sent += b_tile.bytes();

      if (a_tile.empty() || b_tile.empty()) continue;
      sparse::SpGemmStats stage;
      parts.push_back(
          sparse::spgemm_hash2p<SR>(a_tile, b_tile, &stage, opt.pool));
      part_bytes += parts.back().bytes();
      clock.charge(sim::Comp::kSpGemm, rt.model().spgemm_time(stage.products));
      clock.spgemm_products += stage.products;
      rstats.merge(stage);
    }

    auto& out = C.local(rank);
    if (parts.size() == 1) {
      out = std::move(parts.front());
    } else if (!parts.empty()) {
      out = sparse::add_merge(parts, C.local_nrows(rank), C.local_ncols(rank),
                              [](V& acc, const V& v) { SR::add(acc, v); });
    }
    clock.charge(sim::Comp::kSpGemm,
                 rt.model().sparse_stream_time(part_bytes + out.bytes()));
  });

  if (stats != nullptr) {
    for (const auto& rs : rank_stats) {
      stats->products += rs.products;
      stats->calls += rs.calls;
    }
    stats->out_nnz += C.nnz();
  }
  return C;
}

}  // namespace pastis::dist
