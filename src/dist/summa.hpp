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
// Results are exact for any grid: each scalar product A(i,k)·B(k,j) is
// formed exactly once, and the stage-merge add order is harmless for the
// order-independent adds this code base uses (see core/common_kmers.hpp).
#pragma once

#include <algorithm>
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
  /// Fold mode: gather the √p stage operands first (A's grid-row tiles
  /// hstacked into the rank's full-inner-dimension row strip, B's
  /// grid-column tiles vstacked) and run ONE local multiply, instead of
  /// √p stage multiplies merged per stage. Identical communication volume
  /// and modeled broadcast charges; what changes is the floating-point
  /// fold: every C(i,j) accumulates its products in ascending-k order
  /// exactly like a single-address-space SpGEMM, so the result is bitwise
  /// identical to the serial kernel even for order-SENSITIVE adds
  /// (PlusTimes<float> — the distributed MCL expansion). The staged merge
  /// stays the default: it holds one stage pair at a time, the
  /// memory-frugal schedule, and is already exact for the
  /// order-independent discovery semirings.
  bool gather_stages = false;
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

    if (opt.gather_stages) {
      // Stage broadcasts are charged exactly as in the staged schedule —
      // the same tiles cross the same wires; only the local fold differs.
      std::uint64_t strip_bytes = 0;
      for (int s = 0; s < side; ++s) {
        const auto& a_tile = A.local(grid.rank_of(gi, s));
        const auto& b_tile = B.local(grid.rank_of(s, gj));
        clock.charge(sim::Comp::kSpGemm,
                     rt.model().bcast_time(a_tile.bytes(), side) +
                         rt.model().bcast_time(b_tile.bytes(), side));
        clock.bytes_recv += a_tile.bytes() + b_tile.bytes();
        if (grid.rank_of(gi, s) == rank) clock.bytes_sent += a_tile.bytes();
        if (grid.rank_of(s, gj) == rank) clock.bytes_sent += b_tile.bytes();
        strip_bytes += a_tile.bytes() + b_tile.bytes();
      }
      const auto a_strip = hstack_grid_row(A, gi);
      const auto b_strip = vstack_grid_col(B, gj);
      auto& out = C.local(rank);
      if (!a_strip.empty() && !b_strip.empty()) {
        sparse::SpGemmStats stage;
        out = sparse::spgemm_hash2p<SR>(a_strip, b_strip, &stage, opt.pool);
        clock.charge(sim::Comp::kSpGemm,
                     rt.model().spgemm_time(stage.products));
        clock.spgemm_products += stage.products;
        rstats.merge(stage);
      }
      clock.charge(sim::Comp::kSpGemm,
                   rt.model().sparse_stream_time(strip_bytes + out.bytes()));
      return;
    }

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

/// Reshapes A from the 2D tiling to one full-width row stripe per rank,
/// with a per-row epilogue fused into the stripe assembly — the
/// distributed companion of sparse::spgemm_hash2p_fused. Under a
/// copy-through epilogue, stripe r is A's row range r re-indexed to
/// stripe-local rows.
///
/// Stripe r holds global rows [split(M, p, r), split(M, p, r+1)) with
/// stripe-local row ids and global columns. Because p = side², every rank
/// stripe nests inside exactly one grid row, so each rank walks its
/// stripe's rows by merging the <= side tile segments that cover them
/// (ascending grid column = ascending global column, so the assembled row
/// is sorted and exact), and instead of materializing the unpruned stripe
/// hands every assembled row to
///
///   kept = epilogue(rank, global_row, cols, vals, nnz, out_cols, out_vals)
///
/// with the same contract as the fused kernel's epilogue: out slots sized
/// min(nnz, max_row_out) (0 = nnz), survivors written column-ascending,
/// rows keeping 0 dropped. This is the layout the distributed MCL's
/// column pass needs (every flow column whole on one rank), run without
/// the pre-epilogue stripe ever existing on the rank. Charges the
/// all-to-all to `charge`, with the UNpruned stripe as the received bytes
/// (the fold runs receiver-side; the full rows still cross the wire).
template <typename T, typename Epilogue>
[[nodiscard]] std::vector<sparse::SpMat<T>> gather_row_stripes_fused(
    sim::SimRuntime& rt, const DistSpMat<T>& A, Epilogue&& epilogue,
    std::uint32_t max_row_out,
    sim::Comp charge = sim::Comp::kSparseOther) {
  using sparse::Index;
  using sparse::Offset;
  using sparse::SpMat;
  const sim::ProcGrid& grid = rt.grid();
  const int side = grid.side();
  const int p = grid.size();
  const Index n = A.nrows();
  constexpr Index kNoRow = static_cast<Index>(-1);

  std::vector<SpMat<T>> stripes(static_cast<std::size_t>(p));
  rt.spmd([&](int rank) {
    const int gi = rank / side;  // the grid row this rank's stripe nests in
    const Index r0 = sim::ProcGrid::split_point(n, p, rank);
    const Index r1 = sim::ProcGrid::split_point(n, p, rank + 1);
    const Index base = A.row_begin(gi);

    // Per-tile directory windows covering this stripe's local row range.
    std::vector<std::size_t> cur(static_cast<std::size_t>(side));
    std::vector<std::size_t> end(static_cast<std::size_t>(side));
    for (int s = 0; s < side; ++s) {
      const auto& t = A.local(grid.rank_of(gi, s));
      const auto ids = t.row_ids();
      cur[static_cast<std::size_t>(s)] = static_cast<std::size_t>(
          std::lower_bound(ids.begin(), ids.end(), r0 - base) - ids.begin());
      end[static_cast<std::size_t>(s)] = static_cast<std::size_t>(
          std::lower_bound(ids.begin(), ids.end(), r1 - base) - ids.begin());
    }

    std::vector<Index> row_ids;
    std::vector<Offset> row_ptr;
    std::vector<Index> cols;
    std::vector<T> vals;
    row_ptr.push_back(0);
    std::vector<Index> seg_cols;  // one assembled (pre-epilogue) row
    std::vector<T> seg_vals;
    std::uint64_t pre_rows = 0;
    std::uint64_t pre_nnz = 0;
    for (;;) {
      Index next = kNoRow;
      for (int s = 0; s < side; ++s) {
        const auto si = static_cast<std::size_t>(s);
        if (cur[si] < end[si]) {
          next = std::min(next, A.local(grid.rank_of(gi, s)).row_id(cur[si]));
        }
      }
      if (next == kNoRow) break;
      seg_cols.clear();
      seg_vals.clear();
      for (int s = 0; s < side; ++s) {
        const auto si = static_cast<std::size_t>(s);
        const auto& t = A.local(grid.rank_of(gi, s));
        if (cur[si] < end[si] && t.row_id(cur[si]) == next) {
          const Index c0 = A.col_begin(s);
          for (Offset o = t.row_begin(cur[si]); o < t.row_end(cur[si]); ++o) {
            seg_cols.push_back(t.col(o) + c0);
            seg_vals.push_back(t.val(o));
          }
          ++cur[si];
        }
      }
      const std::size_t nseg = seg_cols.size();
      ++pre_rows;
      pre_nnz += nseg;
      const std::size_t bound =
          max_row_out == 0
              ? nseg
              : std::min<std::size_t>(nseg, max_row_out);
      const std::size_t at = cols.size();
      cols.resize(at + bound);
      vals.resize(at + bound);
      const std::size_t kept =
          epilogue(rank, next + base, seg_cols.data(), seg_vals.data(), nseg,
                   cols.data() + at, vals.data() + at);
      cols.resize(at + kept);
      vals.resize(at + kept);
      if (kept != 0) {
        row_ids.push_back(next + base - r0);
        row_ptr.push_back(static_cast<Offset>(cols.size()));
      }
    }
    stripes[static_cast<std::size_t>(rank)] = SpMat<T>::from_sorted_parts(
        r1 - r0, A.ncols(), std::move(row_ids), std::move(row_ptr),
        std::move(cols), std::move(vals));

    const std::uint64_t b_out = A.local(rank).bytes();
    // What crosses the wire is the PRE-epilogue stripe (the fold is
    // receiver-side): its DCSR bytes, reconstructed from the merge counts.
    const std::uint64_t b_wire =
        pre_nnz == 0
            ? 0
            : pre_rows * sizeof(Index) + (pre_rows + 1) * sizeof(Offset) +
                  pre_nnz * (sizeof(Index) + sizeof(T));
    rt.clock(rank).charge(charge,
                          rt.model().sparse_stream_time(b_out + b_wire) +
                              rt.model().p2p_time(b_out));
    rt.clock(rank).bytes_sent += b_out;
    rt.clock(rank).bytes_recv += b_wire;
  });
  return stripes;
}

}  // namespace pastis::dist
