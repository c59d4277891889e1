// Substitute k-mers: the m nearest neighbours of a k-mer under the
// substitution-score metric (paper §V: "PASTIS has the option to introduce
// substitute k-mers that are m-nearest neighbors of a k-mer ... which can
// enhance the sensitivity").
//
// The distance of a neighbour is its score *loss*: Σ_i S(a_i,a_i) −
// S(a_i,b_i) under BLOSUM62. Neighbours are enumerated best-first with a
// binary heap over partial substitution sets, so the top-m list is exact
// for any m (no single-substitution-only approximation).
#pragma once

#include <cstdint>
#include <vector>

#include "align/scoring.hpp"
#include "kmer/alphabet.hpp"
#include "kmer/codec.hpp"

namespace pastis::kmer {

struct NeighborKmer {
  std::uint64_t code = 0;
  int loss = 0;  // score drop versus the exact k-mer; 0 only for itself
};

class NeighborGenerator {
 public:
  /// `max_loss` caps how dissimilar a substitute may be; neighbours whose
  /// loss exceeds it are never returned regardless of m.
  NeighborGenerator(const Alphabet& alphabet, const KmerCodec& codec,
                    const align::Scoring& scoring, int max_loss = 1 << 20);

  /// Appends the m nearest substitute k-mers of `code` (the k-mer itself
  /// excluded) to `out`, the appended range ordered by (loss, code).
  /// Allocation-free once `out` and the calling thread's heap buffer have
  /// grown. Which neighbours enter is the enumeration's, not the output
  /// order's: when several share the m-th smallest loss, the ones the heap
  /// pops first get in, and that is not always the smallest codes. The
  /// heap's push/pop sequence and its loss-only comparison are therefore
  /// part of the output; changing either changes which k-mers are selected.
  void nearest(std::uint64_t code, std::size_t m,
               std::vector<NeighborKmer>& out) const;

  /// The same neighbours as a fresh vector.
  [[nodiscard]] std::vector<NeighborKmer> nearest(std::uint64_t code,
                                                  std::size_t m) const;

 private:
  struct Candidate {
    int loss;
    std::uint8_t residue;
  };

  const Alphabet& alphabet_;
  const KmerCodec& codec_;
  int max_loss_;
  // cand_[c] = substitutions for residue code c, ascending by loss.
  std::vector<std::vector<Candidate>> cand_;
  // weight_[p] = σ^(k−1−p), the code weight of position p.
  std::vector<std::uint64_t> weight_;
};

}  // namespace pastis::kmer
