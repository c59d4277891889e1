// Symmetry-aware block planning (paper §VI-B, Fig. 6).
//
// The overlap matrix is symmetric: C(i,j) and C(j,i) describe the same
// candidate pair, which must be aligned exactly once. With the output formed
// in br × bc blocks, two schemes decide which blocks to compute and which
// nonzeros to align:
//
//  * Triangularity-based: blocks entirely below the diagonal are *avoidable*
//    (neither computed nor aligned); blocks entirely above are *full* (every
//    nonzero aligned); straddling blocks are *partial* (computed, but only
//    strictly-upper nonzeros aligned). Saves sparse computation, but partial
//    blocks idle the ranks owning lower-triangular slices (Fig. 6 left).
//
//  * Index-based: every block is computed; nonzeros are pruned by a parity
//    rule that preserves the uniform distribution — keep lower-triangular
//    (i,j) iff parity(i) == parity(j), upper-triangular iff parities differ.
//    Exactly one of (i,j)/(j,i) survives for every pair (Fig. 6 right).
//
// Both schemes skip the diagonal (self-alignments).
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "sparse/triple.hpp"

namespace pastis::core {

using sparse::Index;

enum class BlockCategory { kFull, kPartial, kAll };

struct BlockInfo {
  int r = 0;  // row-stripe index
  int c = 0;  // column-stripe index
  Index row0 = 0, row1 = 0;  // global row range [row0, row1)
  Index col0 = 0, col1 = 0;  // global column range [col0, col1)
  BlockCategory category = BlockCategory::kAll;
};

class BlockPlan {
 public:
  /// Plans the blocks of an n×n overlap matrix split br × bc.
  BlockPlan(Index n, int br, int bc, LoadBalanceScheme scheme);

  /// Blocks to compute, in execution order (row-major over (r, c)).
  [[nodiscard]] const std::vector<BlockInfo>& blocks() const { return blocks_; }

  [[nodiscard]] LoadBalanceScheme scheme() const { return scheme_; }
  [[nodiscard]] Index n() const { return n_; }
  [[nodiscard]] int block_rows() const { return br_; }
  [[nodiscard]] int block_cols() const { return bc_; }

  /// How many of the br*bc blocks are computed — the triangularity saving.
  [[nodiscard]] int computed_blocks() const {
    return static_cast<int>(blocks_.size());
  }

  /// The paper's parity rule for the index-based scheme.
  [[nodiscard]] static bool index_based_keep(Index i, Index j) {
    if (i == j) return false;
    const bool same_parity = ((i ^ j) & 1u) == 0;
    return i > j ? same_parity : !same_parity;
  }

  /// Should the nonzero at global (i, j) inside `block` be aligned?
  [[nodiscard]] bool should_align(const BlockInfo& block, Index i,
                                  Index j) const {
    if (scheme_ == LoadBalanceScheme::kIndexBased) {
      return index_based_keep(i, j);
    }
    switch (block.category) {
      case BlockCategory::kFull:
        return true;  // entirely strictly-upper
      case BlockCategory::kPartial:
        return i < j;
      case BlockCategory::kAll:
        return i < j;  // unblocked degenerate case
    }
    return false;
  }

 private:
  Index n_;
  int br_, bc_;
  LoadBalanceScheme scheme_;
  std::vector<BlockInfo> blocks_;
};

}  // namespace pastis::core
