#include "core/kmer_matrix.hpp"

#include <atomic>
#include <stdexcept>

#include "core/stages.hpp"
#include "kmer/nearest.hpp"

namespace pastis::core {

dist::DistSpMat<KmerPos> build_kmer_matrix(sim::SimRuntime& rt,
                                           const DistSeqStore& store,
                                           const PastisConfig& cfg,
                                           KmerMatrixInfo* info,
                                           util::ThreadPool* pool) {
  const kmer::Alphabet alphabet(cfg.alphabet);
  const kmer::KmerCodec codec(alphabet.size(), cfg.k);
  if (codec.space() > std::uint64_t(sparse::Index(-1))) {
    throw std::invalid_argument(
        "build_kmer_matrix: k-mer space exceeds 32-bit column indices");
  }
  const auto ncols = static_cast<sparse::Index>(codec.space());
  const sparse::Index nrows = store.size();

  const align::Scoring scoring = cfg.make_scoring();
  const kmer::NeighborGenerator neighbors(alphabet, codec, scoring,
                                          cfg.subs_max_loss);

  // Extract per sequence (parallel), then flatten deterministically.
  std::vector<std::vector<sparse::Triple<KmerPos>>> per_seq(nrows);
  std::atomic<std::uint64_t> exact{0}, subs{0};

  auto extract_one = [&](std::size_t i) {
    const auto id = static_cast<sparse::Index>(i);
    const auto [n_exact, n_subs] =
        extract_sequence_kmers(store.seq(id), id, alphabet, codec, neighbors,
                               cfg.subs_kmers, per_seq[i]);
    exact.fetch_add(n_exact, std::memory_order_relaxed);
    subs.fetch_add(n_subs, std::memory_order_relaxed);
  };
  util::parallel_for(pool, nrows, extract_one);

  std::vector<sparse::Triple<KmerPos>> triples;
  std::size_t total = 0;
  for (const auto& v : per_seq) total += v.size();
  triples.reserve(total);
  for (auto& v : per_seq) {
    triples.insert(triples.end(), v.begin(), v.end());
    v.clear();
    v.shrink_to_fit();
  }

  // Duplicate (i, code) entries keep the smallest position (keep_min_pos).
  auto A = dist::DistSpMat<KmerPos>::from_global_triples(
      rt.grid(), nrows, ncols, triples,
      [](KmerPos& acc, const KmerPos& v) { keep_min_pos(acc, v); }, pool);

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
    info->exact_kmers = exact.load();
    info->substitute_kmers = subs.load();
    info->cols = ncols;
  }
  return A;
}

}  // namespace pastis::core
