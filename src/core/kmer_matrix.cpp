#include "core/kmer_matrix.hpp"

#include <stdexcept>

#include "core/stages.hpp"
#include "kmer/nearest.hpp"

namespace pastis::core {

std::vector<sparse::SpMat<KmerPos>> kmer_matrix_blocks(
    sparse::Index n_seqs,
    const std::function<std::string_view(sparse::Index)>& seq_of,
    int seq_parts, int kmer_parts, bool transposed, const PastisConfig& cfg,
    util::ThreadPool* pool) {
  using sim::ProcGrid;
  if (seq_parts < 1 || kmer_parts < 1) {
    throw std::invalid_argument("kmer_matrix_blocks: need >= 1 part per side");
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

  std::vector<std::vector<sparse::Triple<KmerPos>>> per_seq(n_seqs);
  util::parallel_for(pool, n_seqs, [&](std::size_t i) {
    const auto id = static_cast<Index>(i);
    extract_sequence_kmers(seq_of(id), id, alphabet, codec, neighbors,
                           cfg.subs_kmers, per_seq[i]);
  });

  // Route every nonzero to its block, re-indexed to block-local (and, for
  // Aᵀ, swapped) coordinates. Each sequence part fills only its own row of
  // blocks, in sequence order, so the parts route in parallel.
  const auto kp = static_cast<std::size_t>(kmer_parts);
  std::vector<std::vector<sparse::Triple<KmerPos>>> routed(
      static_cast<std::size_t>(seq_parts) * kp);
  auto route_part = [&](std::size_t si) {
    const int part = static_cast<int>(si);
    const Index r0 = ProcGrid::split_point(n_seqs, seq_parts, part);
    const Index r1 = ProcGrid::split_point(n_seqs, seq_parts, part + 1);
    for (Index i = r0; i < r1; ++i) {
      for (const auto& t : per_seq[i]) {
        const int kj = ProcGrid::part_of(t.col, space, kmer_parts);
        const Index row = t.row - r0;
        const Index col = t.col - ProcGrid::split_point(space, kmer_parts, kj);
        routed[si * kp + static_cast<std::size_t>(kj)].push_back(
            transposed ? sparse::Triple<KmerPos>{col, row, t.val}
                       : sparse::Triple<KmerPos>{row, col, t.val});
      }
      per_seq[i].clear();
      per_seq[i].shrink_to_fit();
    }
  };
  util::parallel_for(pool, static_cast<std::size_t>(seq_parts), route_part);

  std::vector<sparse::SpMat<KmerPos>> blocks(routed.size());
  util::parallel_for(pool, blocks.size(), [&](std::size_t b) {
    const int si = static_cast<int>(b / kp);
    const int kj = static_cast<int>(b % kp);
    const Index rows = ProcGrid::split_point(n_seqs, seq_parts, si + 1) -
                       ProcGrid::split_point(n_seqs, seq_parts, si);
    const Index cols = ProcGrid::split_point(space, kmer_parts, kj + 1) -
                       ProcGrid::split_point(space, kmer_parts, kj);
    blocks[b] = sparse::SpMat<KmerPos>::from_triples(
        transposed ? cols : rows, transposed ? rows : cols,
        std::move(routed[b]),
        [](KmerPos& acc, const KmerPos& v) { keep_min_pos(acc, v); });
  });
  return blocks;
}

dist::DistSpMat<KmerPos> build_kmer_matrix(sim::SimRuntime& rt,
                                           const DistSeqStore& store,
                                           const PastisConfig& cfg,
                                           KmerMatrixInfo* info,
                                           util::ThreadPool* pool) {
  const int side = rt.grid().side();
  auto tiles = kmer_matrix_blocks(
      store.size(), [&](Index i) { return store.seq(i); }, side, side,
      /*transposed=*/false, cfg, pool);
  Index ncols = 0;
  for (int gj = 0; gj < side; ++gj) {
    ncols += tiles[static_cast<std::size_t>(gj)].ncols();
  }
  dist::DistSpMat<KmerPos> A(rt.grid(), store.size(), ncols);
  for (int rank = 0; rank < rt.nprocs(); ++rank) {
    A.local(rank) = std::move(tiles[static_cast<std::size_t>(rank)]);
  }

  // Cost: each rank streams its owned sequences during extraction and its
  // local block during assembly.
  rt.spmd([&](int rank) {
    const Index own_begin =
        sim::ProcGrid::split_point(store.size(), rt.nprocs(), rank);
    const Index own_end =
        sim::ProcGrid::split_point(store.size(), rt.nprocs(), rank + 1);
    const std::uint64_t seq_bytes = store.range_bytes(own_begin, own_end);
    const std::uint64_t local_bytes = A.local(rank).bytes();
    rt.clock(rank).charge(
        sim::Comp::kSparseOther,
        rt.model().sparse_stream_time(seq_bytes + 2 * local_bytes) +
            rt.model().p2p_time(local_bytes));
    rt.clock(rank).bytes_sent += local_bytes;
    rt.clock(rank).bytes_recv += local_bytes;
  });

  if (info != nullptr) {
    info->nnz = A.nnz();
    info->cols = ncols;
  }
  return A;
}

}  // namespace pastis::core
