#include "cluster/mcl.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "cluster/components.hpp"
#include "dist/distmat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/runtime.hpp"
#include "sparse/semiring.hpp"

namespace pastis::cluster {

namespace {

using sparse::SpMat;

/// One iteration's telemetry sample: the chaos gauge plus the
/// per-iteration nnz / resident-bytes series as min-avg-max streams.
void record_iteration(const obs::Telemetry& telem,
                      const MclIterationStats& is) {
  if (telem.metrics == nullptr) return;
  auto& m = *telem.metrics;
  m.counter("mcl.iterations_total").add(1.0);
  m.gauge("mcl.chaos").set(is.chaos);
  m.gauge("mcl.column_cap").set(static_cast<double>(is.column_cap));
  m.min_avg_max("mcl.resident_bytes")
      .add(static_cast<double>(is.resident_bytes));
  m.min_avg_max("mcl.expansion_nnz")
      .add(static_cast<double>(is.expansion_nnz));
  m.min_avg_max("mcl.pruned_nnz").add(static_cast<double>(is.pruned_nnz));
  m.counter("mcl.dropout_columns")
      .add(static_cast<double>(is.dropout_columns));
  m.gauge("mcl.scratch_high_water_bytes")
      .set(static_cast<double>(is.scratch_high_water_bytes));
}

/// Contiguous equal-row chunks for the per-column passes. Chunking is
/// scheduling only: every row's output is computed identically and
/// concatenated in row order, so the chunk count never shows in results.
std::vector<std::size_t> row_chunks(std::size_t n_rows, std::size_t parts) {
  parts = std::max<std::size_t>(1, std::min(parts, n_rows));
  std::vector<std::size_t> bounds(parts + 1);
  for (std::size_t c = 0; c <= parts; ++c) {
    bounds[c] = n_rows * c / parts;
  }
  return bounds;
}

std::size_t pool_threads(util::ThreadPool* pool) {
  return pool != nullptr ? pool->size() : 1;
}

/// Column-stochastic flow matrix of `g` (stored transposed: DCSR row j is
/// column j of M), with self-loops added before normalization.
SpMat<float> build_flow_matrix(const SimilarityGraph& g, double loop_scale) {
  const SpMat<float>& adj = g.adjacency();
  const std::size_t n_rows = adj.n_nonempty_rows();
  if (n_rows == 0) return SpMat<float>(g.n_vertices(), g.n_vertices());

  std::vector<Index> row_ids(adj.row_ids().begin(), adj.row_ids().end());
  std::vector<Offset> row_ptr(n_rows + 1);
  row_ptr[0] = 0;
  for (std::size_t k = 0; k < n_rows; ++k) {
    row_ptr[k + 1] =
        row_ptr[k] + (adj.row_end(k) - adj.row_begin(k)) + 1;  // + self loop
  }
  std::vector<Index> cols(row_ptr.back());
  std::vector<float> vals(row_ptr.back());
  for (std::size_t k = 0; k < n_rows; ++k) {
    const Index v = adj.row_id(k);
    float wmax = 0.0f;
    for (Offset o = adj.row_begin(k); o < adj.row_end(k); ++o) {
      wmax = std::max(wmax, adj.val(o));
    }
    const float loop =
        std::max(1e-6f, static_cast<float>(loop_scale) * wmax);
    // Merge the sorted neighbour columns with the diagonal entry.
    Offset w = row_ptr[k];
    bool loop_placed = false;
    float sum = 0.0f;
    for (Offset o = adj.row_begin(k); o < adj.row_end(k); ++o) {
      if (!loop_placed && v < adj.col(o)) {
        cols[w] = v;
        vals[w] = loop;
        sum += loop;
        ++w;
        loop_placed = true;
      }
      cols[w] = adj.col(o);
      vals[w] = adj.val(o);
      sum += adj.val(o);
      ++w;
    }
    if (!loop_placed) {
      cols[w] = v;
      vals[w] = loop;
      sum += loop;
      ++w;
    }
    for (Offset o = row_ptr[k]; o < row_ptr[k + 1]; ++o) {
      vals[o] /= sum;
    }
  }
  return SpMat<float>::from_sorted_parts(g.n_vertices(), g.n_vertices(),
                                         std::move(row_ids),
                                         std::move(row_ptr), std::move(cols),
                                         std::move(vals));
}

/// Per-lane scratch of the column epilogue (pow cache + selection buffer);
/// lanes persist across iterations in MclBuffers so each hits its high
/// water once.
struct EpiScratch {
  std::vector<double> inflated;
  std::vector<std::pair<float, Index>> top;

  [[nodiscard]] std::uint64_t capacity_bytes() const {
    return static_cast<std::uint64_t>(inflated.capacity()) * sizeof(double) +
           static_cast<std::uint64_t>(top.capacity()) *
               sizeof(std::pair<float, Index>);
  }
};

/// The inflate + prune + renormalize + chaos pass over ONE flow column,
/// shaped as the fused-SpGEMM epilogue contract (spgemm_hash2p_fused):
/// given the column's sorted pre-epilogue entries it writes the survivors
/// and returns their count. The same functor runs inside the fused numeric
/// phase and the grid's gather fold — one float-op sequence, so both
/// expansions are bit-identical.
///
/// Side outputs (col_chaos, dropout streaks) are per-column slots indexed
/// by the global column id `row` (both callers pass global row ids): one
/// writer per slot under any scheduling, keeping the pass deterministic
/// and race-free. The column cap is read through a pointer because the
/// budget feedback may tighten it between an iteration's multiply and its
/// prune.
struct ColumnEpilogue {
  double inflation;
  float prune_threshold;
  const std::uint32_t* cap;  // live column cap (budget feedback target)
  double drop_eps;
  double* col_chaos;          // per global column, this iteration's chaos
  std::uint32_t* streak;      // dropout streaks (null = dropout off)
  std::vector<EpiScratch>* lanes;

  std::size_t operator()(std::size_t lane, Index row, const Index* cols,
                         const float* vals, std::size_t n, Index* out_cols,
                         float* out_vals) const {
    EpiScratch& s = (*lanes)[lane];
    // Inflate and normalize the column in one fixed-order scan (pow is
    // the pass's hot operation; computed once per entry).
    s.inflated.clear();
    double sum = 0.0;
    for (std::size_t o = 0; o < n; ++o) {
      s.inflated.push_back(
          std::pow(static_cast<double>(vals[o]), inflation));
      sum += s.inflated.back();
    }
    const auto inv = static_cast<float>(1.0 / sum);
    // Collect survivors of the threshold cut (the maximum entry always
    // survives, so no column ever empties).
    s.top.clear();
    float vmax = 0.0f;
    Index cmax = 0;
    for (std::size_t o = 0; o < n; ++o) {
      const float v = static_cast<float>(s.inflated[o]) * inv;
      if (v > vmax) {
        vmax = v;
        cmax = cols[o];
      }
      if (v >= prune_threshold) s.top.push_back({v, cols[o]});
    }
    if (s.top.empty()) s.top.push_back({vmax, cmax});
    // Top-k selection with a fixed tie-break (value desc, column asc).
    const std::uint32_t k = *cap;
    if (k != 0 && s.top.size() > k) {
      std::partial_sort(s.top.begin(),
                        s.top.begin() + static_cast<std::ptrdiff_t>(k),
                        s.top.end(), [](const auto& x, const auto& y) {
                          return x.first != y.first ? x.first > y.first
                                                    : x.second < y.second;
                        });
      s.top.resize(k);
      std::sort(s.top.begin(), s.top.end(),
                [](const auto& x, const auto& y) {
                  return x.second < y.second;
                });
    }
    // Renormalize survivors and accumulate the chaos of this column.
    float kept = 0.0f;
    for (const auto& [v, col] : s.top) kept += v;
    float col_max = 0.0f;
    double col_sumsq = 0.0;
    for (auto& [v, col] : s.top) {
      v /= kept;
      col_max = std::max(col_max, v);
      col_sumsq += static_cast<double>(v) * static_cast<double>(v);
    }
    const double chaos = static_cast<double>(col_max) - col_sumsq;
    col_chaos[row] = chaos;
    if (streak != nullptr) {
      streak[row] = chaos < drop_eps ? streak[row] + 1 : 0;
    }
    for (std::size_t o = 0; o < s.top.size(); ++o) {
      out_cols[o] = s.top[o].second;
      out_vals[o] = s.top[o].first;
    }
    return s.top.size();
  }
};

/// The recycled cross-iteration state of one MCL run: SpGEMM workspace,
/// epilogue lanes, the per-column chaos/dropout arrays, and spare DCSR
/// storage for the frozen-row stitch. Everything here is an allocation
/// cache or per-column slot store — reuse never changes results.
struct MclBuffers {
  sparse::SpGemmWorkspace<float> ws;
  std::vector<EpiScratch> lanes;
  std::vector<double> col_chaos;      // per global column, latest chaos
  std::vector<std::uint32_t> streak;  // consecutive sub-epsilon iterations
  std::vector<std::uint8_t> skip;     // this iteration's dropout mask
  std::vector<std::uint8_t> prev_skip;
  // Spare DCSR arrays cycling through the frozen-row stitch.
  std::vector<Index> sp_row_ids;
  std::vector<Offset> sp_row_ptr;
  std::vector<Index> sp_cols;
  std::vector<float> sp_vals;

  [[nodiscard]] std::uint64_t capacity_bytes() const {
    std::uint64_t b = ws.capacity_bytes();
    for (const auto& l : lanes) b += l.capacity_bytes();
    b += static_cast<std::uint64_t>(col_chaos.capacity()) * sizeof(double);
    b += static_cast<std::uint64_t>(streak.capacity()) *
         sizeof(std::uint32_t);
    b += skip.capacity() + prev_skip.capacity();
    b += static_cast<std::uint64_t>(sp_row_ids.capacity()) * sizeof(Index) +
         static_cast<std::uint64_t>(sp_row_ptr.capacity()) * sizeof(Offset) +
         static_cast<std::uint64_t>(sp_cols.capacity()) * sizeof(Index) +
         static_cast<std::uint64_t>(sp_vals.capacity()) * sizeof(float);
    return b;
  }
};

struct MaskCounts {
  std::size_t skipped = 0;
  std::uint64_t frozen_nnz = 0;
  std::uint64_t reentered = 0;
};

/// Builds this iteration's dropout mask over the rows of M (= the flow
/// columns): column j skips recompute when its own streak AND every
/// support column's streak reached `after`.
/// The pass reads only LAST iteration's streaks, so a neighbour's reset
/// reaches dependants one iteration later — that lag is the re-entry rule.
/// One writer per skip/prev_skip slot; streaks are read-only here (the
/// frozen columns' streak bump is a separate pass, else the mask pass
/// would race with it).
MaskCounts build_skip_mask(const SpMat<float>& M, std::uint32_t after,
                           MclBuffers& buf, util::ThreadPool* pool) {
  const std::size_t n_rows = M.n_nonempty_rows();
  const std::vector<std::size_t> bounds =
      row_chunks(n_rows, pool_threads(pool));
  const std::size_t n_chunks = bounds.empty() ? 0 : bounds.size() - 1;
  std::vector<MaskCounts> parts(n_chunks);
  util::parallel_for(pool, n_chunks, [&](std::size_t c) {
    MaskCounts& mc = parts[c];
    for (std::size_t k = bounds[c]; k < bounds[c + 1]; ++k) {
      const Index g = M.row_id(k);
      bool frozen = buf.streak[g] >= after;
      for (Offset o = M.row_begin(k); frozen && o < M.row_end(k); ++o) {
        frozen = buf.streak[M.col(o)] >= after;
      }
      const auto sv = static_cast<std::uint8_t>(frozen ? 1 : 0);
      buf.skip[g] = sv;
      if (frozen) {
        ++mc.skipped;
        mc.frozen_nnz += M.row_end(k) - M.row_begin(k);
      }
      if (buf.prev_skip[g] != 0 && !frozen) ++mc.reentered;
      buf.prev_skip[g] = sv;
    }
  });
  MaskCounts mc;
  for (const auto& x : parts) {
    mc.skipped += x.skipped;
    mc.frozen_nnz += x.frozen_nnz;
    mc.reentered += x.reentered;
  }
  return mc;
}

/// Frozen columns' streaks keep growing (their chaos is definitionally
/// unchanged below epsilon); active columns' streaks are updated by the
/// epilogue itself. Runs strictly AFTER the mask build — see above.
void bump_frozen_streaks(const SpMat<float>& M, MclBuffers& buf) {
  for (std::size_t k = 0; k < M.n_nonempty_rows(); ++k) {
    const Index g = M.row_id(k);
    if (buf.skip[g] != 0) ++buf.streak[g];
  }
}

/// Rebuilds the full flow matrix from the recomputed active columns (P)
/// and the frozen columns carried over from the previous matrix (M): a
/// linear row-order merge into the given spare DCSR arrays. Every row of
/// M lands in exactly one of the two sources (the expansion of an active
/// column is never empty — every referenced column is stochastic).
SpMat<float> stitch_frozen(const SpMat<float>& P, const SpMat<float>& M,
                           const std::uint8_t* skip,
                           std::vector<Index>&& row_ids,
                           std::vector<Offset>&& row_ptr,
                           std::vector<Index>&& cols,
                           std::vector<float>&& vals) {
  row_ids.clear();
  row_ptr.clear();
  cols.clear();
  vals.clear();
  row_ptr.push_back(0);
  std::size_t kp = 0;
  for (std::size_t k = 0; k < M.n_nonempty_rows(); ++k) {
    const Index id = M.row_id(k);
    if (skip[id] != 0) {
      const Offset b = M.row_begin(k);
      const Offset e = M.row_end(k);
      row_ids.push_back(id);
      cols.insert(cols.end(), M.col_data(b), M.col_data(e));
      vals.insert(vals.end(), M.val_data(b), M.val_data(e));
      row_ptr.push_back(static_cast<Offset>(cols.size()));
    } else if (kp < P.n_nonempty_rows() && P.row_id(kp) == id) {
      const Offset b = P.row_begin(kp);
      const Offset e = P.row_end(kp);
      row_ids.push_back(id);
      cols.insert(cols.end(), P.col_data(b), P.col_data(e));
      vals.insert(vals.end(), P.val_data(b), P.val_data(e));
      row_ptr.push_back(static_cast<Offset>(cols.size()));
      ++kp;
    }
  }
  return SpMat<float>::from_sorted_parts(M.nrows(), M.ncols(),
                                         std::move(row_ids),
                                         std::move(row_ptr), std::move(cols),
                                         std::move(vals));
}

/// Chaos gauge of the flow matrix: max over its columns of the per-column
/// chaos slots. With dropout, frozen columns contribute their last
/// computed (sub-epsilon) value; without, every slot was written this
/// iteration, reproducing the fold the old per-chunk max computed.
double chaos_of(const SpMat<float>& M, const std::vector<double>& col_chaos) {
  double chaos = 0.0;
  for (std::size_t k = 0; k < M.n_nonempty_rows(); ++k) {
    chaos = std::max(chaos, col_chaos[M.row_id(k)]);
  }
  return chaos;
}

/// Logical DCSR bytes of a non-empty float matrix with `nonempty_rows`
/// rows in the directory and `nnz` stored entries — exactly
/// SpMat<float>::bytes(), so the resident-bytes numbers (and hence the
/// budget decisions) come from shape counts alone, before the matrix they
/// describe exists.
std::uint64_t dcsr_bytes(std::uint64_t nonempty_rows, std::uint64_t nnz) {
  if (nnz == 0) return 0;  // empty SpMat stores nothing, not even row_ptr
  return nonempty_rows * sizeof(Index) + (nonempty_rows + 1) * sizeof(Offset) +
         nnz * (sizeof(Index) + sizeof(float));
}

/// The column-cap rule of both memory budgets: a binding budget halves the
/// per-column entry cap (floor 4; an unbounded cap drops to 256).
std::uint32_t halved_cap(std::uint32_t cap) {
  return cap == 0 ? 256 : std::max<std::uint32_t>(4, cap / 2);
}

/// The rows of `S` in [r0, r1) as directory slots [lo, hi) and the
/// nonzeros they hold: a row range's shape, read off the row directory
/// without touching the entries.
struct RowSpan {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::uint64_t nnz = 0;

  [[nodiscard]] std::uint64_t bytes() const { return dcsr_bytes(hi - lo, nnz); }
};

RowSpan row_span(const SpMat<float>& S, Index r0, Index r1) {
  const auto ids = S.row_ids();
  RowSpan s;
  s.lo = static_cast<std::size_t>(
      std::lower_bound(ids.begin(), ids.end(), r0) - ids.begin());
  s.hi = static_cast<std::size_t>(
      std::lower_bound(ids.begin(), ids.end(), r1) - ids.begin());
  if (s.lo != s.hi) s.nnz = S.row_begin(s.hi) - S.row_begin(s.lo);
  return s;
}

/// Clusters = connected components of the converged flow's symmetrized
/// support (entries >= interpret_threshold).
Clustering interpret(const SpMat<float>& M, Index n, float threshold,
                     util::ThreadPool* pool) {
  std::vector<sparse::Triple<float>> support;
  M.for_each([&](Index j, Index i, float v) {
    if (i != j && v >= threshold) {
      support.push_back({i, j, v});
      support.push_back({j, i, v});
    }
  });
  const auto adj = SpMat<float>::from_triples(
      n, n, std::move(support),
      [](float& acc, const float& v) { acc = std::max(acc, v); });
  return components_of_adjacency(adj, pool);
}

/// The simulated process grid an MCL run expands on when
/// MclOptions::grid_side >= 1 (HipMCL's layout). Rank r owns the row
/// stripe [split(n, p, r), split(n, p, r+1)) of the transposed flow matrix
/// — every flow column whole on one rank, the layout the column pass
/// needs. Stripes nest inside grid rows (p = side²), so each is a row range
/// of the one global matrix the loop keeps; the grid swaps in only the
/// expansion (a SUMMA over the 2D tiling whose ranks gather their operand
/// strips and multiply once, bitwise equal to the local kernel) and prices
/// every step on the ranks' clocks and resident-bytes ledger. Assignments
/// are bit-identical to the one-address-space run for any grid side.
class MclGrid {
 public:
  MclGrid(const MclOptions& opt, util::ThreadPool* pool, MclStats& st)
      : rt_(opt.grid_side * opt.grid_side, opt.machine, pool),
        pool_(pool),
        rank_budget_(opt.rank_memory_budget_bytes),
        st_(st) {
    st_.grid_side = opt.grid_side;
  }

  [[nodiscard]] int nprocs() const { return rt_.nprocs(); }

  /// Initial distribution: rank r receives its stripe of M.
  void distribute(const SpMat<float>& M) {
    rt_.spmd([&](int r) {
      const std::uint64_t b = stripe_bytes(M, r);
      auto& clock = rt_.clock(r);
      clock.charge(sim::Comp::kSparseOther,
                   rt_.model().sparse_stream_time(b) + rt_.model().p2p_time(b));
      clock.bytes_recv += b;
      clock.add_resident(b);
    });
  }

  /// The grid's M·M with the column epilogue `epi` folded into the
  /// reshape back to stripes: returns what spgemm_hash2p_fused returns on
  /// one address space (the pruned rows, skip-masked rows excluded). Calls
  /// `tighten(pre_rows, pre_nnz)` — the loop's budget hook, returning the
  /// live column cap — at the fused kernel's point (after the multiply,
  /// before any prune), then applies the per-rank budget to that cap.
  template <typename Tighten>
  SpMat<float> expand(const SpMat<float>& M, const std::uint8_t* skip,
                      const ColumnEpilogue& epi, Tighten&& tighten,
                      MclIterationStats& is) {
    const sim::ProcGrid& grid = rt_.grid();
    const int side = grid.side();
    const auto p = static_cast<std::size_t>(grid.size());
    const Index n = M.nrows();

    // Stripes → 2D tiles: rank r ships its stripe out and receives tile r.
    dist::DistSpMat<float> Md(grid, n, n);
    rt_.spmd([&](int r) {
      const int gi = grid.row_of(r);
      const int gj = grid.col_of(r);
      Md.local(r) = M.extract(Md.row_begin(gi), Md.row_begin(gi + 1),
                              Md.col_begin(gj), Md.col_begin(gj + 1));
      const std::uint64_t b_out = stripe_bytes(M, r);
      const std::uint64_t b_in = Md.local(r).bytes();
      auto& clock = rt_.clock(r);
      clock.charge(sim::Comp::kSparseOther,
                   rt_.model().sparse_stream_time(b_out + b_in) +
                       rt_.model().p2p_time(b_out));
      clock.bytes_sent += b_out;
      clock.bytes_recv += b_in;
    });

    // A-side dropout masking is tile-local filtering: the mask is globally
    // known, so no extra wire traffic — each rank drops its frozen tile
    // rows before the SUMMA. B stays the full Md (frozen columns still
    // feed active products).
    dist::DistSpMat<float> Ad;
    std::vector<std::uint64_t> ad_b(p, 0);
    if (skip != nullptr) {
      Ad = dist::DistSpMat<float>(grid, n, n);
      rt_.spmd([&](int r) {
        const Index base = Md.row_begin(grid.row_of(r));
        Ad.local(r) = Md.local(r).pruned(
            [&](Index rr, Index, float) { return skip[rr + base] == 0; });
        const std::uint64_t b = Ad.local(r).bytes();
        ad_b[static_cast<std::size_t>(r)] = b;
        // Transient: streamed once, never entered into the resident ledger
        // (it is charged against the rank budget below instead).
        rt_.clock(r).charge(
            sim::Comp::kSparseOther,
            rt_.model().sparse_stream_time(Md.local(r).bytes() + b));
      });
    }
    const dist::DistSpMat<float>& A = skip != nullptr ? Ad : Md;

    // Multiply: rank (gi, gj) receives the tiles a staged SUMMA broadcasts
    // to it (charged per stage), stacks its grid row of A and its grid
    // column of M into two strips and multiplies them ONCE, so every
    // E(i, j) sums its products in ascending k like the one-address-space
    // kernel: even the float adds are bitwise equal. Ledger: the stripe
    // goes out, the tile and the strips come in, then the product tile
    // replaces the strips. Under a mask the loop keeps M for the
    // frozen-column stitch; the ledger still swaps the stripe out here
    // (the frozen carry-over is not double-counted — a deliberate
    // approximation).
    std::vector<SpMat<float>> E(p);  // product tiles, one per rank
    std::vector<std::uint64_t> e_b(p, 0);
    std::vector<std::uint64_t> strip_b(p, 0);
    std::vector<sparse::SpGemmStats> rank_stats(p);
    rt_.spmd([&](int r) {
      const auto ri = static_cast<std::size_t>(r);
      const int gi = grid.row_of(r);
      const int gj = grid.col_of(r);
      auto& clock = rt_.clock(r);
      std::vector<const SpMat<float>*> a_row;
      std::vector<const SpMat<float>*> m_col;
      for (int s = 0; s < side; ++s) {
        a_row.push_back(&A.local(grid.rank_of(gi, s)));
        m_col.push_back(&Md.local(grid.rank_of(s, gj)));
        const std::uint64_t ab = a_row.back()->bytes();
        const std::uint64_t mb = m_col.back()->bytes();
        clock.charge(sim::Comp::kSpGemm, rt_.model().bcast_time(ab, side) +
                                             rt_.model().bcast_time(mb, side));
        clock.bytes_recv += ab + mb;
        if (grid.rank_of(gi, s) == r) clock.bytes_sent += ab;
        if (grid.rank_of(s, gj) == r) clock.bytes_sent += mb;
        strip_b[ri] += ab + mb;
      }
      clock.sub_resident(stripe_bytes(M, r));
      clock.add_resident(Md.local(r).bytes() + strip_b[ri]);
      // At side 1 the strips are the lone tiles, used in place.
      SpMat<float> a_stack;
      SpMat<float> m_stack;
      if (side > 1) {
        a_stack = sparse::hstack(a_row);
        m_stack = sparse::vstack(m_col);
      }
      const SpMat<float>& a_strip = side > 1 ? a_stack : *a_row.front();
      const SpMat<float>& m_strip = side > 1 ? m_stack : *m_col.front();
      E[ri] = SpMat<float>(a_strip.nrows(), m_strip.ncols());
      if (!a_strip.empty() && !m_strip.empty()) {
        E[ri] = sparse::spgemm_hash2p<sparse::PlusTimes<float>>(
            a_strip, m_strip, &rank_stats[ri], pool_);
        clock.charge(sim::Comp::kSpGemm,
                     rt_.model().spgemm_time(rank_stats[ri].products));
        clock.spgemm_products += rank_stats[ri].products;
      }
      e_b[ri] = E[ri].bytes();
      clock.charge(sim::Comp::kSpGemm,
                   rt_.model().sparse_stream_time(strip_b[ri] + e_b[ri]));
      clock.add_resident(e_b[ri]);
      clock.sub_resident(strip_b[ri]);
    });
    for (const auto& rs : rank_stats) st_.spgemm.merge(rs);

    // Stripes: each grid row's product tiles hstack into one strip; rank
    // r's stripe is a row range of its grid row's strip. Its pre-epilogue
    // shape comes off the strip's directory, so the budget hook fires
    // before the fold, as the fused kernel's does between its phases, with
    // the same counts.
    std::vector<SpMat<float>> strips(static_cast<std::size_t>(side));
    util::parallel_for(pool_, strips.size(), [&](std::size_t gi) {
      if (side == 1) {  // a lone product tile is its strip
        strips[gi] = std::move(E[gi]);
        return;
      }
      std::vector<const SpMat<float>*> row;
      for (int s = 0; s < side; ++s) {
        row.push_back(&E[static_cast<std::size_t>(
            grid.rank_of(static_cast<int>(gi), s))]);
      }
      strips[gi] = sparse::hstack(row);
    });
    E.clear();
    std::vector<RowSpan> pre(p);
    std::uint64_t e_rows = 0;
    std::uint64_t e_nnz = 0;
    for (std::size_t r = 0; r < p; ++r) {
      const int gi = grid.row_of(static_cast<int>(r));
      pre[r] = stripe_span(strips[static_cast<std::size_t>(gi)], n,
                           static_cast<int>(r), Md.row_begin(gi));
      e_rows += pre[r].hi - pre[r].lo;
      e_nnz += pre[r].nnz;
    }
    std::uint32_t& cap = tighten(e_rows, e_nnz);

    // Per-rank budget (tile + strips during expansion, tile + stripe
    // around the fold): deterministic, but grid-side-dependent — see
    // MclOptions::rank_memory_budget_bytes.
    std::uint64_t max_rank = 0;
    for (std::size_t r = 0; r < p; ++r) {
      const std::uint64_t tiles =
          Md.local(static_cast<int>(r)).bytes() + e_b[r];
      max_rank = std::max({max_rank, tiles + ad_b[r] + strip_b[r],
                           tiles + pre[r].bytes()});
    }
    is.max_rank_resident_bytes = max_rank;
    if (rank_budget_ != 0 && max_rank > rank_budget_) {
      cap = halved_cap(cap);
      ++st_.rank_budget_tightenings;
    }

    // Fold: each rank runs the column epilogue over its stripe's rows (the
    // rank is the lane) and builds only the pruned stripe. The fold runs
    // receiver-side, so the unpruned stripe is what crosses the wire: the
    // rank ships its product tile out and receives its unpruned stripe.
    std::vector<SpMat<float>> stripes(p);
    rt_.spmd([&](int r) {
      const auto ri = static_cast<std::size_t>(r);
      const int gi = grid.row_of(r);
      const SpMat<float>& strip = strips[static_cast<std::size_t>(gi)];
      const Index base = Md.row_begin(gi);
      const Index r0 = sim::ProcGrid::split_point(n, grid.size(), r);
      std::vector<Index> row_ids;
      std::vector<Offset> row_ptr{0};
      std::vector<Index> cols;
      std::vector<float> vals;
      for (std::size_t k = pre[ri].lo; k < pre[ri].hi; ++k) {
        const Offset b = strip.row_begin(k);
        const std::size_t nk = strip.row_end(k) - b;
        const std::size_t at = cols.size();
        const std::size_t bound =
            cap == 0 ? nk : std::min<std::size_t>(nk, cap);
        cols.resize(at + bound);
        vals.resize(at + bound);
        const std::size_t kept =
            epi(ri, strip.row_id(k) + base, strip.col_data(b),
                strip.val_data(b), nk, cols.data() + at, vals.data() + at);
        cols.resize(at + kept);  // >= 1: a column's maximum always survives
        vals.resize(at + kept);
        row_ids.push_back(strip.row_id(k) + base - r0);
        row_ptr.push_back(cols.size());
      }
      stripes[ri] = SpMat<float>::from_sorted_parts(
          sim::ProcGrid::split_point(n, grid.size(), r + 1) - r0, n,
          std::move(row_ids), std::move(row_ptr), std::move(cols),
          std::move(vals));
      const std::uint64_t wire = pre[ri].bytes();
      const std::uint64_t b = stripes[ri].bytes();
      auto& clock = rt_.clock(r);
      clock.charge(sim::Comp::kSparseOther,
                   rt_.model().sparse_stream_time(e_b[ri] + wire) +
                       rt_.model().p2p_time(e_b[ri]));
      clock.bytes_sent += e_b[ri];
      clock.bytes_recv += wire;
      clock.charge(sim::Comp::kSparseOther, rt_.model().sparse_stream_time(b));
      clock.add_resident(b);
      clock.sub_resident(Md.local(r).bytes() + e_b[ri]);
    });
    // Stripe r holds rows [split(n, p, r), split(n, p, r+1)): stacked in
    // rank order they are the one matrix the fused kernel returns.
    if (p == 1) return std::move(stripes.front());
    std::vector<const SpMat<float>*> parts;
    for (const auto& stripe : stripes) parts.push_back(&stripe);
    return sparse::vstack(parts);
  }

  /// Prices the frozen-column stitch that rebuilt M from the expansion's
  /// pruned rows P: each rank streams its stitched stripe, which replaces
  /// its stripe of P in the ledger.
  void stitch(const SpMat<float>& P, const SpMat<float>& M) {
    rt_.spmd([&](int r) {
      const std::uint64_t b = stripe_bytes(M, r);
      auto& clock = rt_.clock(r);
      clock.charge(sim::Comp::kSparseOther, rt_.model().sparse_stream_time(b));
      clock.add_resident(b);
      clock.sub_resident(stripe_bytes(P, r));
    });
  }

  /// Reports the per-rank high-water marks and the slowest rank's seconds.
  void finish() {
    st_.rank_peak_resident_bytes = rt_.peak_resident_bytes();
    for (int r = 0; r < rt_.nprocs(); ++r) {
      st_.modeled_seconds = std::max(st_.modeled_seconds, rt_.clock(r).total());
    }
  }

 private:
  /// Rank r's stripe of an n-row matrix as a row span of `S`, whose row 0
  /// is global row `base` (M itself, or a grid row's product strip).
  [[nodiscard]] RowSpan stripe_span(const SpMat<float>& S, Index n, int r,
                                    Index base = 0) const {
    const int p = rt_.nprocs();
    return row_span(S, sim::ProcGrid::split_point(n, p, r) - base,
                    sim::ProcGrid::split_point(n, p, r + 1) - base);
  }

  /// DCSR bytes of rank r's stripe of M, read off M's row directory.
  [[nodiscard]] std::uint64_t stripe_bytes(const SpMat<float>& M,
                                           int r) const {
    return stripe_span(M, M.nrows(), r).bytes();
  }

  sim::SimRuntime rt_;
  util::ThreadPool* pool_;
  std::uint64_t rank_budget_;
  MclStats& st_;
};

}  // namespace

Clustering markov_cluster(const SimilarityGraph& g, const MclOptions& opt,
                          MclStats* stats, util::ThreadPool* pool) {
  if (opt.grid_side < 0) {
    throw std::invalid_argument("markov_cluster: grid_side must be >= 0");
  }
  MclStats local;
  MclStats& st = stats != nullptr ? *stats : local;
  st = MclStats{};
  std::optional<MclGrid> grid;
  if (opt.grid_side >= 1) grid.emplace(opt, pool, st);

  SpMat<float> M = build_flow_matrix(g, opt.self_loop_scale);
  if (M.empty()) {
    st.converged = true;
    if (grid) grid->finish();
    std::vector<Index> labels(g.n_vertices());
    std::iota(labels.begin(), labels.end(), 0);
    return canonicalize(labels);
  }
  if (grid) grid->distribute(M);

  const bool dropout = opt.dropout_iterations != 0;
  const double drop_eps =
      opt.dropout_epsilon > 0.0 ? opt.dropout_epsilon : opt.chaos_epsilon;
  const Index n = g.n_vertices();

  MclBuffers buf;
  buf.col_chaos.assign(n, 0.0);
  if (dropout) {
    buf.streak.assign(n, 0);
    buf.skip.assign(n, 0);
    buf.prev_skip.assign(n, 0);
  }
  // One epilogue lane per kernel chunk (at most one per pool thread), or
  // per rank on the grid, whose gather fold passes the rank as the lane.
  buf.lanes.resize(grid ? static_cast<std::size_t>(grid->nprocs())
                        : std::max<std::size_t>(1, pool_threads(pool)));

  std::uint32_t cap = opt.max_column_entries;
  const ColumnEpilogue epi{opt.inflation,
                           opt.prune_threshold,
                           &cap,
                           drop_eps,
                           buf.col_chaos.data(),
                           dropout ? buf.streak.data() : nullptr,
                           &buf.lanes};
  std::uint64_t scratch_hw = 0;

  for (int it = 0; it < opt.max_iterations; ++it) {
    obs::Span span(opt.telemetry.tracer, "mcl.iteration");
    span.arg("iteration", static_cast<double>(it));

    MclIterationStats is;
    MaskCounts mc;
    if (dropout) {
      mc = build_skip_mask(M, opt.dropout_iterations, buf, pool);
      bump_frozen_streaks(M, buf);
      if (mc.skipped == M.n_nonempty_rows()) {
        // Every column froze below the dropout epsilon: the flow is
        // settled even if the (stale) chaos gauge still reads above
        // chaos_epsilon — only reachable when dropout_epsilon exceeds it.
        st.converged = true;
        break;
      }
      is.dropout_columns = static_cast<std::uint32_t>(mc.skipped);
      is.reentered_columns = static_cast<std::uint32_t>(mc.reentered);
    }
    const bool masked = mc.skipped != 0;
    const std::uint8_t* skip = masked ? buf.skip.data() : nullptr;

    const std::uint64_t m_rows = M.n_nonempty_rows();
    const std::uint64_t m_nnz = M.nnz();
    const std::uint64_t products_before = st.spgemm.products;

    // Memory-budget feedback: a too-fat iteration tightens the column cap
    // for this and all later prunes (deterministic — byte counts are). It
    // runs between the expansion's multiply and its prune (the fused
    // kernel's on_symbolic hook; the grid calls it before its gather
    // fold), fed the exact pre-epilogue shape of M², so the tightened cap
    // already applies to this iteration's prune. It returns the live cap,
    // which the grid's per-rank budget may tighten further.
    auto tighten = [&](std::uint64_t e_rows,
                       std::uint64_t e_nnz) -> std::uint32_t& {
      is.expansion_nnz = e_nnz;
      is.resident_bytes =
          dcsr_bytes(m_rows, m_nnz) + dcsr_bytes(e_rows, e_nnz);
      st.peak_resident_bytes =
          std::max(st.peak_resident_bytes, is.resident_bytes);
      if (opt.memory_budget_bytes != 0 &&
          is.resident_bytes > opt.memory_budget_bytes) {
        cap = halved_cap(cap);
        ++st.budget_tightenings;
      }
      return cap;
    };

    // Expand M ← M² ((M²)ᵀ = Mᵀ·Mᵀ, so the transposed storage multiplies
    // by itself unchanged) with inflate/prune/chaos fused in: one DCSR
    // write of the pruned update per iteration.
    SpMat<float> P;  // the pruned update (active columns only when masked)
    {
      obs::Span fspan(opt.telemetry.tracer, "mcl.fused_epilogue");
      P = grid ? grid->expand(M, skip, epi, tighten, is)
               : sparse::spgemm_hash2p_fused<sparse::PlusTimes<float>>(
                     M, M, epi, tighten, skip, &buf.ws, &st.spgemm, pool,
                     opt.telemetry);
      fspan.arg("pre_nnz", static_cast<double>(is.expansion_nnz));
      fspan.arg("kept_nnz", static_cast<double>(P.nnz()));
      fspan.arg("dropout_columns", static_cast<double>(is.dropout_columns));
    }
    is.expansion_products = st.spgemm.products - products_before;
    is.column_cap = cap;

    // Install the new flow matrix, donating the dying arrays back to the
    // recycled workspace (two DCSR array sets alternate between the live
    // matrix and the builder; the stitch spares cycle the same way).
    SpMat<float> Mold = std::move(M);
    if (!masked) {
      M = std::move(P);
      Mold.release_parts(buf.ws.out_row_ids, buf.ws.out_row_ptr,
                         buf.ws.out_cols, buf.ws.out_vals);
    } else {
      M = stitch_frozen(P, Mold, skip, std::move(buf.sp_row_ids),
                        std::move(buf.sp_row_ptr), std::move(buf.sp_cols),
                        std::move(buf.sp_vals));
      if (grid) grid->stitch(P, M);
      P.release_parts(buf.ws.out_row_ids, buf.ws.out_row_ptr,
                      buf.ws.out_cols, buf.ws.out_vals);
      Mold.release_parts(buf.sp_row_ids, buf.sp_row_ptr, buf.sp_cols,
                         buf.sp_vals);
    }

    is.pruned_nnz = M.nnz();
    const double chaos = chaos_of(M, buf.col_chaos);
    is.chaos = chaos;
    scratch_hw = std::max(scratch_hw, buf.capacity_bytes());
    is.scratch_high_water_bytes = scratch_hw;
    span.arg("chaos", chaos);
    span.arg("resident_bytes", static_cast<double>(is.resident_bytes));
    span.arg("pruned_nnz", static_cast<double>(is.pruned_nnz));
    record_iteration(opt.telemetry, is);
    st.per_iteration.push_back(is);
    ++st.iterations;
    st.final_chaos = chaos;
    if (chaos < opt.chaos_epsilon) {
      st.converged = true;
      break;
    }
  }
  if (grid) grid->finish();
  return interpret(M, n, opt.interpret_threshold, pool);
}

}  // namespace pastis::cluster
