// Element types of the candidate-discovery semiring (paper Fig. 1/2).
//
// The sequence-by-k-mer matrix A holds KmerPos payloads (where the k-mer
// sits in the sequence). The overlap matrix C = A·Aᵀ holds CommonKmers:
// how many k-mers a pair shares plus up to two seed position pairs for the
// seeded alignment modes. The semiring's multiply pairs positions; its add
// accumulates counts and keeps the lexicographically smallest and largest
// seed pairs — min/max (rather than "first two encountered") makes the add
// commutative AND order-independent, which is what guarantees the paper's
// headline property that results are identical for any grid size, blocking
// factor or stage order.
#pragma once

#include <cstdint>

namespace pastis::core {

/// Payload of A(i,h): position of k-mer h in sequence i. When substitute
/// k-mers are enabled a nonzero may also represent a near-neighbour k-mer
/// occurring at `pos`.
struct KmerPos {
  std::uint32_t pos = 0;

  friend bool operator==(const KmerPos&, const KmerPos&) = default;
};

/// A pair of seed positions: the shared k-mer occurs at `pos_a` in the row
/// sequence and `pos_b` in the column sequence.
struct SeedPair {
  std::uint32_t pos_a = 0;
  std::uint32_t pos_b = 0;

  friend bool operator==(const SeedPair&, const SeedPair&) = default;
  friend bool operator<(const SeedPair& x, const SeedPair& y) {
    return x.pos_a != y.pos_a ? x.pos_a < y.pos_a : x.pos_b < y.pos_b;
  }
};

/// Payload of the overlap matrix C(i,j).
struct CommonKmers {
  std::uint32_t count = 0;  // number of shared k-mers
  SeedPair first;           // smallest seed pair (by position order)
  SeedPair last;            // largest seed pair

  friend bool operator==(const CommonKmers&, const CommonKmers&) = default;
};

/// The overloaded "multiply-add" of candidate discovery.
struct OverlapSemiring {
  using left_type = KmerPos;
  using right_type = KmerPos;
  using value_type = CommonKmers;

  static CommonKmers multiply(const KmerPos& a, const KmerPos& b) {
    CommonKmers c;
    c.count = 1;
    c.first = {a.pos, b.pos};
    c.last = c.first;
    return c;
  }

  static void add(CommonKmers& acc, const CommonKmers& v) {
    if (acc.count == 0) {
      acc = v;
      return;
    }
    acc.count += v.count;
    if (v.first < acc.first) acc.first = v.first;
    if (acc.last < v.last) acc.last = v.last;
  }
};

}  // namespace pastis::core
