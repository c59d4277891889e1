// k-mer extraction: sequence → (k-mer code, position) hits, the nonzeros of
// one row of the sequence-by-k-mer matrix (paper Fig. 1, left matrix).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "kmer/alphabet.hpp"
#include "kmer/codec.hpp"

namespace pastis::kmer {

struct KmerHit {
  std::uint64_t code = 0;  // column index in the k-mer matrix
  std::uint32_t pos = 0;   // 0-based offset of the window in the sequence
};

/// All valid k-length windows of `seq`. Windows containing residues the
/// alphabet cannot encode are skipped (Protein20/Murphy10 ambiguity codes).
/// Hits are emitted in increasing position order.
[[nodiscard]] std::vector<KmerHit> extract_kmers(std::string_view seq,
                                                 const Alphabet& alphabet,
                                                 const KmerCodec& codec);

}  // namespace pastis::kmer
