// Builds the sequence-by-k-mer matrix A (paper Fig. 1, left):
// A(i, h) = position of k-mer h in sequence i. With substitute k-mers
// enabled, each exact k-mer additionally contributes its m nearest
// neighbours (at the same position), widening the discovery reach (§V).
// kmer_matrix_blocks is its one producer: the pipeline's A and Aᵀ stripes
// (kmer_matrix_stripes), the index's Aᵀ_ref shards, the engine's A_query
// and the baselines' chunk A and Aᵀ (baseline/chunk_search.cpp) are all
// cut from its blocks.
#pragma once

#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "core/common_kmers.hpp"
#include "core/config.hpp"
#include "core/seq_store.hpp"
#include "dist/distmat.hpp"
#include "sim/runtime.hpp"

namespace pastis::core {

/// A cut into (seq_bounds.size() − 1) × `kmer_parts` blocks, row-major
/// (block (i, j) at i * kmer_parts + j). Block (i, j) holds the nonzeros of
/// sequence range [seq_bounds[i], seq_bounds[i+1]) × k-mer range
/// [split(σ^k, kmer_parts, j), split(σ^k, kmer_parts, j+1)) in block-local
/// coordinates — as A, or with `transposed` as Aᵀ (rows = k-mers, columns
/// = sequences). The sequences are 0 .. seq_bounds.back() − 1; every one is
/// extracted once (extract_sequence_kmers) on `pool` into a code-sorted row
/// whose duplicate (sequence, k-mer) entries kept the smallest position
/// (keep_min_pos). Each block is written directly from the runs of those
/// rows that fall in its k-mer range (no triple sort), one pool task per
/// block; a sequence part's rows are freed once its blocks exist, and Aᵀ
/// blocks are the A blocks through SpMat::transposed(). An empty
/// `seq_of(i)` leaves row i empty. Throws std::invalid_argument when σ^k
/// exceeds 32-bit indices, `kmer_parts` is below 1, or the bounds have
/// fewer than two entries, do not start at 0 or decrease. Results do not
/// depend on the pool.
[[nodiscard]] std::vector<sparse::SpMat<KmerPos>> kmer_matrix_blocks(
    std::span<const sparse::Index> seq_bounds,
    const std::function<std::string_view(sparse::Index)>& seq_of,
    int kmer_parts, bool transposed, const PastisConfig& cfg,
    util::ThreadPool* pool);

/// The blocked SUMMA's operands (§VI-A) on the runtime's grid.
struct KmerStripes {
  std::vector<dist::DistSpMat<KmerPos>> a;  // A's row stripes
  std::vector<dist::DistSpMat<KmerPos>> b;  // Aᵀ's column stripes
};

/// Cuts A into `br` row stripes and Aᵀ into `bc` column stripes: stripe s
/// of nb covers sequences [split(n, nb, s), split(n, nb, s+1)), distributed
/// over the grid like any matrix of its shape. A's whole grid tiles are the
/// side × side blocks of kmer_matrix_blocks, Aᵀ's are their per-tile
/// transposes, and each stripe tile stacks the slices of the whole tiles it
/// overlaps. Charges the set-up to Comp::kSparseOther on every rank, priced
/// from the whole tiles: the build (extraction streams each rank's owned
/// sequences, assembly scatters its tile), the transpose, and the row
/// (br > 1) and column (bc > 1) redistributions. `br` and `bc` must be >= 1.
[[nodiscard]] KmerStripes kmer_matrix_stripes(sim::SimRuntime& rt,
                                              const DistSeqStore& store,
                                              int br, int bc,
                                              const PastisConfig& cfg,
                                              util::ThreadPool* pool);

}  // namespace pastis::core
