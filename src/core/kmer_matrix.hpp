// Builds the sequence-by-k-mer matrix A (paper Fig. 1, left):
// A(i, h) = position of k-mer h in sequence i. With substitute k-mers
// enabled, each exact k-mer additionally contributes its m nearest
// neighbours (at the same position), widening the discovery reach (§V).
// kmer_matrix_blocks is its one producer: the pipeline's A tiles, the
// index's Aᵀ_ref shards and the engine's A_query are all blocks of it.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "core/common_kmers.hpp"
#include "core/config.hpp"
#include "core/seq_store.hpp"
#include "dist/distmat.hpp"
#include "sim/runtime.hpp"

namespace pastis::core {

/// A cut into `seq_parts` × `kmer_parts` blocks, row-major (block (i, j) at
/// i * kmer_parts + j). Block (i, j) holds the nonzeros of sequence range
/// [split(n_seqs, seq_parts, i), split(n_seqs, seq_parts, i+1)) ×
/// k-mer range [split(σ^k, kmer_parts, j), split(σ^k, kmer_parts, j+1)) in
/// block-local coordinates — as A, or with `transposed` as Aᵀ (rows =
/// k-mers, columns = sequences). Every sequence is extracted once
/// (extract_sequence_kmers) on `pool`; duplicate (sequence, k-mer) entries
/// keep the smallest position (keep_min_pos). An empty `seq_of(i)` leaves
/// row i empty. Throws std::invalid_argument when σ^k exceeds 32-bit
/// indices or a part count is below 1. Results do not depend on the pool.
[[nodiscard]] std::vector<sparse::SpMat<KmerPos>> kmer_matrix_blocks(
    sparse::Index n_seqs,
    const std::function<std::string_view(sparse::Index)>& seq_of,
    int seq_parts, int kmer_parts, bool transposed, const PastisConfig& cfg,
    util::ThreadPool* pool);

struct KmerMatrixInfo {
  std::uint64_t nnz = 0;
  sparse::Index cols = 0;  // |Σ|^k
};

/// Builds A on the runtime's grid (the side × side blocks of
/// kmer_matrix_blocks are its tiles) and charges the construction to
/// Comp::kSparseOther on every rank (extraction streams each rank's owned
/// sequences; assembly scatters triples to their owners).
[[nodiscard]] dist::DistSpMat<KmerPos> build_kmer_matrix(
    sim::SimRuntime& rt, const DistSeqStore& store, const PastisConfig& cfg,
    KmerMatrixInfo* info = nullptr,
    util::ThreadPool* pool = &util::ThreadPool::global());

}  // namespace pastis::core
