#include "kmer/nearest.hpp"

#include <algorithm>
#include <array>

namespace pastis::kmer {

namespace {

/// One substitution set of the best-first enumeration, carried as its
/// result: the substituted code, its total loss, and the last
/// substitution (position, candidate index), the only one a successor
/// changes or extends.
struct State {
  std::uint64_t code;
  int loss;
  std::uint8_t last_pos;
  std::uint8_t last_idx;
};

/// Min-heap on loss alone, as the enumeration has always compared: with
/// the same push/pop sequence, equal-loss states pop in the same order.
bool heap_after(const State& a, const State& b) { return a.loss > b.loss; }

}  // namespace

NeighborGenerator::NeighborGenerator(const Alphabet& alphabet,
                                     const KmerCodec& codec,
                                     const align::Scoring& scoring,
                                     int max_loss)
    : alphabet_(alphabet), codec_(codec), max_loss_(max_loss) {
  const int sigma = alphabet.size();
  cand_.resize(static_cast<std::size_t>(sigma));
  for (int orig = 0; orig < sigma; ++orig) {
    const char orig_char =
        alphabet.representative(static_cast<std::uint8_t>(orig));
    const int self = scoring.score_chars(orig_char, orig_char);
    auto& list = cand_[static_cast<std::size_t>(orig)];
    for (int sub = 0; sub < sigma; ++sub) {
      if (sub == orig) continue;
      const char sub_char =
          alphabet.representative(static_cast<std::uint8_t>(sub));
      // Loss is clamped at zero: for ambiguity residues (X, *) some
      // substitutions score higher than the self-match; treating them as
      // zero-loss keeps the best-first enumeration monotone and matches the
      // intuition that X-positions substitute freely.
      const int loss = std::max(0, self - scoring.score_chars(orig_char, sub_char));
      if (loss <= max_loss_) {
        list.push_back({loss, static_cast<std::uint8_t>(sub)});
      }
    }
    std::sort(list.begin(), list.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.loss != b.loss ? a.loss < b.loss
                                        : a.residue < b.residue;
              });
  }
  weight_.assign(static_cast<std::size_t>(codec.k()), 1);
  for (int p = codec.k() - 2; p >= 0; --p) {
    weight_[static_cast<std::size_t>(p)] =
        weight_[static_cast<std::size_t>(p) + 1] *
        static_cast<std::uint64_t>(sigma);
  }
}

void NeighborGenerator::nearest(std::uint64_t code, std::size_t m,
                                std::vector<NeighborKmer>& out) const {
  if (m == 0) return;
  const int k = codec_.k();
  const auto sigma = static_cast<std::uint64_t>(codec_.sigma());
  // KmerCodec caps σ^k at 2^62 with σ >= 2, so k <= 62.
  std::array<std::uint8_t, 64> residues{};
  std::uint64_t rest = code;
  for (int p = k - 1; p >= 0; --p) {
    residues[static_cast<std::size_t>(p)] =
        static_cast<std::uint8_t>(rest % sigma);
    rest /= sigma;
  }

  // A state is a substitution set {(pos, cand-idx)} with strictly increasing
  // positions. Every state is generated exactly once:
  //   * initial states: one substitution {(p, 0)} for each position p;
  //   * successor (a): advance the LAST substitution's candidate index;
  //   * successor (b): append a substitution (p', 0) at any position p'
  //     after the last one.
  // A set {(p1,i1),...,(pn,in)} has the unique derivation p1 first, indices
  // advanced before each append — so no duplicates. Candidate lists are
  // loss-ascending and losses are >= 0, so both successors never decrease
  // the total loss and the heap pops states in globally sorted order.
  // Replacing candidate `from` by `to` at position p moves the code by
  // weight_[p] · (to − from) (mod 2^64, as KmerCodec::substitute does).
  thread_local std::vector<State> heap;
  heap.clear();
  const auto push = [&](std::uint64_t from_code, int p, std::uint8_t from,
                        std::size_t idx, int loss) {
    const std::uint8_t to = cand_[residues[static_cast<std::size_t>(p)]][idx]
                                .residue;
    heap.push_back({from_code + weight_[static_cast<std::size_t>(p)] *
                                    (static_cast<std::uint64_t>(to) -
                                     static_cast<std::uint64_t>(from)),
                    loss, static_cast<std::uint8_t>(p),
                    static_cast<std::uint8_t>(idx)});
    std::push_heap(heap.begin(), heap.end(), heap_after);
  };
  for (int p = 0; p < k; ++p) {
    const std::uint8_t orig = residues[static_cast<std::size_t>(p)];
    if (!cand_[orig].empty()) push(code, p, orig, 0, cand_[orig][0].loss);
  }

  const std::size_t first = out.size();
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_after);
    const State s = heap.back();
    heap.pop_back();
    if (s.loss > max_loss_) break;
    out.push_back({s.code, s.loss});
    if (out.size() - first == m) break;  // its successors would never pop

    // (a) advance the last substitution to its next-best candidate.
    const auto& last = cand_[residues[s.last_pos]];
    if (std::size_t(s.last_idx) + 1 < last.size()) {
      const Candidate& cur = last[s.last_idx];
      push(s.code, s.last_pos, cur.residue, std::size_t(s.last_idx) + 1,
           s.loss - cur.loss + last[std::size_t(s.last_idx) + 1].loss);
    }
    // (b) append a substitution at every later position.
    for (int p = s.last_pos + 1; p < k; ++p) {
      const std::uint8_t orig = residues[static_cast<std::size_t>(p)];
      if (cand_[orig].empty()) continue;
      push(s.code, p, orig, 0, s.loss + cand_[orig][0].loss);
    }
  }

  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
            [](const NeighborKmer& a, const NeighborKmer& b) {
              return a.loss != b.loss ? a.loss < b.loss : a.code < b.code;
            });
}

std::vector<NeighborKmer> NeighborGenerator::nearest(std::uint64_t code,
                                                     std::size_t m) const {
  std::vector<NeighborKmer> out;
  nearest(code, m, out);
  return out;
}

}  // namespace pastis::kmer
