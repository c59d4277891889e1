#include "core/kmer_matrix.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/stages.hpp"
#include "kmer/nearest.hpp"

namespace pastis::core {

namespace {

using dist::DistSpMat;
using sim::ProcGrid;
using sparse::SpMat;

/// `nb` sequence stripes cut from the whole grid tiles of A (`seq_rows`) or
/// Aᵀ: stripe s covers sequences [split(n, nb, s), split(n, nb, s+1)),
/// split again over the grid side, so each stripe tile is the slices of the
/// whole tiles its sequence range overlaps, stacked along the sequence axis.
std::vector<DistSpMat<KmerPos>> sequence_stripes(
    const ProcGrid& grid, const std::vector<SpMat<KmerPos>>& whole, Index n,
    Index space, int nb, bool seq_rows, util::ThreadPool* pool) {
  std::vector<DistSpMat<KmerPos>> stripes;
  for (int s = 0; s < nb; ++s) {
    const Index len =
        ProcGrid::split_point(n, nb, s + 1) - ProcGrid::split_point(n, nb, s);
    stripes.emplace_back(grid, seq_rows ? len : space,
                         seq_rows ? space : len);
  }
  const auto p = static_cast<std::size_t>(grid.size());
  util::parallel_for(pool, stripes.size() * p, [&](std::size_t task) {
    const int s = static_cast<int>(task / p);
    const int rank = static_cast<int>(task % p);
    auto& stripe = stripes[static_cast<std::size_t>(s)];
    // The tile's grid index along the sequence axis and the other one.
    const int gs = seq_rows ? grid.row_of(rank) : grid.col_of(rank);
    const int go = seq_rows ? grid.col_of(rank) : grid.row_of(rank);
    const Index s0 = ProcGrid::split_point(n, nb, s);
    const Index from =
        s0 + (seq_rows ? stripe.row_begin(gs) : stripe.col_begin(gs));
    const Index to =
        s0 + (seq_rows ? stripe.row_begin(gs + 1) : stripe.col_begin(gs + 1));
    std::vector<SpMat<KmerPos>> slices;
    for (int g = 0; g < grid.side(); ++g) {
      const Index w0 = ProcGrid::split_point(n, grid.side(), g);
      const Index lo = std::max(from, w0);
      const Index hi =
          std::min(to, ProcGrid::split_point(n, grid.side(), g + 1));
      if (lo >= hi) continue;
      const auto& tile = whole[static_cast<std::size_t>(
          seq_rows ? grid.rank_of(g, go) : grid.rank_of(go, g))];
      slices.push_back(seq_rows
                           ? tile.extract(lo - w0, hi - w0, 0, tile.ncols())
                           : tile.extract(0, tile.nrows(), lo - w0, hi - w0));
    }
    if (slices.size() == 1) {
      stripe.local(rank) = std::move(slices.front());
    } else if (!slices.empty()) {
      std::vector<const SpMat<KmerPos>*> parts;
      for (const auto& sl : slices) parts.push_back(&sl);
      stripe.local(rank) =
          seq_rows ? sparse::vstack(parts) : sparse::hstack(parts);
    }
  });
  return stripes;
}

}  // namespace

std::vector<SpMat<KmerPos>> kmer_matrix_blocks(
    std::span<const Index> seq_bounds,
    const std::function<std::string_view(Index)>& seq_of, int kmer_parts,
    bool transposed, const PastisConfig& cfg, util::ThreadPool* pool) {
  if (seq_bounds.size() < 2 || seq_bounds.front() != 0 ||
      !std::is_sorted(seq_bounds.begin(), seq_bounds.end()) || kmer_parts < 1) {
    throw std::invalid_argument(
        "kmer_matrix_blocks: need sequence bounds from 0 that never decrease "
        "and >= 1 k-mer part");
  }
  const kmer::Alphabet alphabet(cfg.alphabet);
  const kmer::KmerCodec codec(alphabet.size(), cfg.k);
  if (codec.space() > std::uint64_t(Index(-1))) {
    throw std::invalid_argument(
        "kmer_matrix_blocks: k-mer space exceeds 32-bit indices");
  }
  const auto space = static_cast<Index>(codec.space());
  const kmer::NeighborGenerator neighbors(alphabet, codec, cfg.make_scoring(),
                                          cfg.subs_max_loss);

  const Index n_seqs = seq_bounds.back();
  std::vector<std::vector<sparse::Triple<KmerPos>>> rows(n_seqs);
  util::parallel_for(pool, n_seqs, [&](std::size_t i) {
    const auto id = static_cast<Index>(i);
    extract_sequence_kmers(seq_of(id), id, alphabet, codec, neighbors,
                           cfg.subs_kmers, rows[i]);
  });

  // Rows arrive sorted by code with no duplicates, so block (si, kj) takes
  // from each row of sequence part si the contiguous run of codes in k-mer
  // part kj and appends it as a DCSR row: columns ascend and rows arrive in
  // order. The rows are freed before any transpose runs, so the transposes'
  // scratch and output can reuse their memory.
  const std::size_t seq_parts = seq_bounds.size() - 1;
  const auto kp = static_cast<std::size_t>(kmer_parts);
  std::vector<SpMat<KmerPos>> blocks(seq_parts * kp);
  util::parallel_for(pool, blocks.size(), [&](std::size_t b) {
    const std::size_t si = b / kp;
    const int kj = static_cast<int>(b % kp);
    const Index r0 = seq_bounds[si];
    const Index r1 = seq_bounds[si + 1];
    const Index c0 = ProcGrid::split_point(space, kmer_parts, kj);
    const Index c1 = ProcGrid::split_point(space, kmer_parts, kj + 1);
    const auto before = [](const sparse::Triple<KmerPos>& t, Index c) {
      return t.col < c;
    };
    std::vector<std::pair<std::size_t, std::size_t>> runs(r1 - r0);
    std::size_t nnz = 0;
    std::size_t nonempty = 0;
    for (Index i = r0; i < r1; ++i) {
      const auto& row = rows[i];
      const auto lo = std::lower_bound(row.begin(), row.end(), c0, before);
      const auto hi = std::lower_bound(lo, row.end(), c1, before);
      runs[i - r0] = {static_cast<std::size_t>(lo - row.begin()),
                      static_cast<std::size_t>(hi - row.begin())};
      nnz += static_cast<std::size_t>(hi - lo);
      nonempty += lo != hi;
    }
    std::vector<Index> row_ids;
    std::vector<sparse::Offset> row_ptr;
    std::vector<Index> cols;
    std::vector<KmerPos> vals;
    row_ids.reserve(nonempty);
    row_ptr.reserve(nonempty + 1);
    cols.reserve(nnz);
    vals.reserve(nnz);
    row_ptr.push_back(0);
    for (Index i = r0; i < r1; ++i) {
      const auto [lo, hi] = runs[i - r0];
      if (lo == hi) continue;
      for (std::size_t o = lo; o < hi; ++o) {
        cols.push_back(rows[i][o].col - c0);
        vals.push_back(rows[i][o].val);
      }
      row_ids.push_back(i - r0);
      row_ptr.push_back(cols.size());
    }
    blocks[b] = SpMat<KmerPos>::from_sorted_parts(
        r1 - r0, c1 - c0, std::move(row_ids), std::move(row_ptr),
        std::move(cols), std::move(vals));
  });
  rows.clear();
  if (transposed) {
    util::parallel_for(pool, blocks.size(),
                       [&](std::size_t b) { blocks[b] = blocks[b].transposed(); });
  }
  return blocks;
}

KmerStripes kmer_matrix_stripes(sim::SimRuntime& rt, const DistSeqStore& store,
                                int br, int bc, const PastisConfig& cfg,
                                util::ThreadPool* pool) {
  const ProcGrid& grid = rt.grid();
  const int side = grid.side();
  const Index n = store.size();
  std::vector<Index> bounds;
  for (int g = 0; g <= side; ++g) {
    bounds.push_back(ProcGrid::split_point(n, side, g));
  }
  // A's whole grid tiles (block (gi, gj) is rank (gi, gj)'s tile) and Aᵀ's:
  // Aᵀ's tile (gi, gj) is A's tile (gj, gi) transposed.
  const std::vector<SpMat<KmerPos>> a = kmer_matrix_blocks(
      bounds, [&](Index i) { return store.seq(i); }, side,
      /*transposed=*/false, cfg, pool);
  std::vector<SpMat<KmerPos>> at(a.size());
  util::parallel_for(pool, at.size(), [&](std::size_t r) {
    const int rank = static_cast<int>(r);
    at[r] = a[static_cast<std::size_t>(
                  grid.rank_of(grid.col_of(rank), grid.row_of(rank)))]
                .transposed();
  });
  Index space = 0;  // the k-mer columns of A's grid row 0
  for (int gj = 0; gj < side; ++gj) space += a[std::size_t(gj)].ncols();

  // Cost, per rank in set-up order: each step streams the rank's tile out
  // and back in, and the wire carries it once. The build also streams the
  // rank's owned sequences during extraction.
  rt.spmd([&](int rank) {
    auto& clock = rt.clock(rank);
    const auto step = [&](std::uint64_t streamed, std::uint64_t wire) {
      clock.charge(sim::Comp::kSparseOther,
                   rt.model().sparse_stream_time(streamed) +
                       rt.model().p2p_time(wire));
      clock.bytes_sent += wire;
      clock.bytes_recv += wire;
    };
    const std::uint64_t seq_bytes =
        store.range_bytes(ProcGrid::split_point(n, rt.nprocs(), rank),
                          ProcGrid::split_point(n, rt.nprocs(), rank + 1));
    const std::uint64_t a_bytes = a[static_cast<std::size_t>(rank)].bytes();
    const std::uint64_t at_bytes = at[static_cast<std::size_t>(rank)].bytes();
    step(seq_bytes + 2 * a_bytes, a_bytes);    // build
    step(2 * a_bytes, a_bytes);                // transpose
    if (br > 1) step(2 * a_bytes, a_bytes);    // row split
    if (bc > 1) step(2 * at_bytes, at_bytes);  // column split
  });

  return {sequence_stripes(grid, a, n, space, br, /*seq_rows=*/true, pool),
          sequence_stripes(grid, at, n, space, bc, /*seq_rows=*/false, pool)};
}

}  // namespace pastis::core
