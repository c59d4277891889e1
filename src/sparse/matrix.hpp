// Local sparse matrix in DCSR (doubly-compressed sparse rows) layout.
//
// CombBLAS stores hypersparse local blocks in DCSC [Buluç & Gilbert, IPDPS
// 2008] because a 2D-partitioned matrix on p processes has ~nnz/p nonzeros
// but n/√p rows/columns — a dense pointer array per local block would
// dominate memory (the transposed k-mer matrix here has 244M rows split
// across the grid). We keep a directory of *nonempty* rows only, so local
// storage is Θ(nnz), never Θ(dimension).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sparse/triple.hpp"

namespace pastis::sparse {

template <typename T>
class SpMat {
  static_assert(!std::is_same_v<T, bool>,
                "SpMat<bool> would inherit std::vector<bool>'s proxy "
                "references; use std::uint8_t (see BoolOrAnd)");

 public:
  using value_type = T;

  SpMat() = default;
  SpMat(Index nrows, Index ncols) : nrows_(nrows), ncols_(ncols) {}

  /// Builds from triples, combining duplicate (row, col) entries with
  /// `add(acc, v)`. Triples may arrive in any order.
  template <typename AddOp>
  static SpMat from_triples(Index nrows, Index ncols,
                            std::vector<Triple<T>> triples, AddOp add) {
    SpMat m(nrows, ncols);
    if (triples.empty()) return m;
    sort_triples(triples);
    combine_duplicates(triples, add);
    m.reserve_nnz(triples.size());
    Index current_row = triples.front().row;
    m.row_ids_.push_back(current_row);
    m.row_ptr_.push_back(0);
    for (const auto& t : triples) {
      if (t.row >= nrows || t.col >= ncols) {
        throw std::out_of_range("SpMat::from_triples: index out of bounds");
      }
      if (t.row != current_row) {
        current_row = t.row;
        m.row_ids_.push_back(current_row);
        m.row_ptr_.push_back(static_cast<Offset>(m.col_ids_.size()));
      }
      m.col_ids_.push_back(t.col);
      m.vals_.push_back(t.val);
    }
    m.row_ptr_.push_back(static_cast<Offset>(m.col_ids_.size()));
    return m;
  }

  /// Overload keeping the last duplicate (for payloads without a natural +).
  static SpMat from_triples(Index nrows, Index ncols,
                            std::vector<Triple<T>> triples) {
    return from_triples(nrows, ncols, std::move(triples),
                        [](T& acc, const T& v) { acc = v; });
  }

  /// Trusted direct build from ready-made DCSR arrays — the fast path the
  /// two-phase SpGEMM and the transpose/prune/extract rewrites use to skip
  /// from_triples's sort + dedup when ordering is guaranteed by
  /// construction. The caller promises (checked by asserts in debug
  /// builds): `row_ids` strictly increasing with no empty rows, `row_ptr`
  /// of size row_ids.size()+1 strictly increasing from 0 to col_ids.size(),
  /// and columns strictly increasing within each row.
  static SpMat from_sorted_parts(Index nrows, Index ncols,
                                 std::vector<Index> row_ids,
                                 std::vector<Offset> row_ptr,
                                 std::vector<Index> col_ids,
                                 std::vector<T> vals) {
    SpMat m(nrows, ncols);
    if (col_ids.empty()) return m;  // normalized empty form (as from_triples)
    assert(row_ptr.size() == row_ids.size() + 1);
    assert(row_ptr.front() == 0);
    assert(row_ptr.back() == col_ids.size());
    assert(col_ids.size() == vals.size());
#ifndef NDEBUG
    for (std::size_t k = 0; k < row_ids.size(); ++k) {
      assert(row_ids[k] < nrows);
      assert(row_ptr[k] < row_ptr[k + 1]);  // no empty rows in the directory
      if (k > 0) assert(row_ids[k - 1] < row_ids[k]);
      for (Offset o = row_ptr[k]; o < row_ptr[k + 1]; ++o) {
        assert(col_ids[o] < ncols);
        if (o > row_ptr[k]) assert(col_ids[o - 1] < col_ids[o]);
      }
    }
#endif
    m.row_ids_ = std::move(row_ids);
    m.row_ptr_ = std::move(row_ptr);
    m.col_ids_ = std::move(col_ids);
    m.vals_ = std::move(vals);
    return m;
  }

  [[nodiscard]] Index nrows() const { return nrows_; }
  [[nodiscard]] Index ncols() const { return ncols_; }
  [[nodiscard]] Offset nnz() const { return col_ids_.size(); }
  [[nodiscard]] bool empty() const { return col_ids_.empty(); }
  [[nodiscard]] std::size_t n_nonempty_rows() const { return row_ids_.size(); }

  /// Logical bytes this matrix would occupy on the simulated machine.
  [[nodiscard]] std::uint64_t bytes() const {
    return row_ids_.size() * sizeof(Index) + row_ptr_.size() * sizeof(Offset) +
           col_ids_.size() * sizeof(Index) + vals_.size() * sizeof(T);
  }

  /// Directory access (k-th nonempty row and its nonzero range).
  [[nodiscard]] std::span<const Index> row_ids() const { return row_ids_; }
  [[nodiscard]] Index row_id(std::size_t k) const { return row_ids_[k]; }
  [[nodiscard]] Offset row_begin(std::size_t k) const { return row_ptr_[k]; }
  [[nodiscard]] Offset row_end(std::size_t k) const { return row_ptr_[k + 1]; }
  [[nodiscard]] Index col(Offset o) const { return col_ids_[o]; }
  [[nodiscard]] const T& val(Offset o) const { return vals_[o]; }
  [[nodiscard]] T& val(Offset o) { return vals_[o]; }
  /// Raw pointers into the column/value arrays starting at nonzero `o` —
  /// for callers that process a whole row as contiguous spans (the fused
  /// epilogue takes pointer+length, not an accessor object).
  [[nodiscard]] const Index* col_data(Offset o) const {
    return col_ids_.data() + o;
  }
  [[nodiscard]] const T* val_data(Offset o) const { return vals_.data() + o; }

  /// Moves the four DCSR arrays out into the given receivers (swap: the
  /// receivers' old storage lands in this — now emptied — matrix and is
  /// freed with it). Lets an iterative caller donate a dying matrix's
  /// capacity to the next iteration's builder instead of reallocating.
  /// The matrix is left empty; its shape is unchanged.
  void release_parts(std::vector<Index>& row_ids, std::vector<Offset>& row_ptr,
                     std::vector<Index>& col_ids, std::vector<T>& vals) {
    row_ids.swap(row_ids_);
    row_ptr.swap(row_ptr_);
    col_ids.swap(col_ids_);
    vals.swap(vals_);
    row_ids_.clear();
    row_ptr_.clear();
    col_ids_.clear();
    vals_.clear();
  }

  /// Binary-searches the row directory; returns the directory slot of row
  /// `r` or npos if the row is empty.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t find_row(Index r) const {
    auto it = std::lower_bound(row_ids_.begin(), row_ids_.end(), r);
    if (it == row_ids_.end() || *it != r) return npos;
    return static_cast<std::size_t>(it - row_ids_.begin());
  }

  /// Calls fn(row, col, val) for every nonzero in row-major order.
  template <typename Fn>
  void for_each(Fn fn) const {
    for (std::size_t k = 0; k < row_ids_.size(); ++k) {
      for (Offset o = row_ptr_[k]; o < row_ptr_[k + 1]; ++o) {
        fn(row_ids_[k], col_ids_[o], vals_[o]);
      }
    }
  }

  /// Exports to triples (row-major sorted).
  [[nodiscard]] std::vector<Triple<T>> to_triples() const {
    std::vector<Triple<T>> out;
    out.reserve(nnz());
    for_each([&](Index i, Index j, const T& v) { out.push_back({i, j, v}); });
    return out;
  }

  /// Transposes via a counting pass over the distinct columns
  /// (dimension-independent; safe for hypersparse). Row-major input order
  /// means that, within any output row, the original row ids arrive
  /// strictly increasing — so the transpose assembles directly into sorted
  /// DCSR arrays with no triple sort and no dedup.
  [[nodiscard]] SpMat transposed() const {
    if (col_ids_.empty()) return SpMat(ncols_, nrows_);
    // Distinct columns of this matrix = nonempty rows of the transpose.
    std::vector<Index> out_rows(col_ids_);
    std::sort(out_rows.begin(), out_rows.end());
    out_rows.erase(std::unique(out_rows.begin(), out_rows.end()),
                   out_rows.end());
    // Slot of each nonzero's column in the output directory (computed once,
    // reused by the scatter pass below).
    std::vector<Index> slot(col_ids_.size());
    std::vector<Offset> counts(out_rows.size(), 0);
    for (std::size_t o = 0; o < col_ids_.size(); ++o) {
      const auto it =
          std::lower_bound(out_rows.begin(), out_rows.end(), col_ids_[o]);
      slot[o] = static_cast<Index>(it - out_rows.begin());
      ++counts[slot[o]];
    }
    std::vector<Offset> ptr(out_rows.size() + 1, 0);
    for (std::size_t k = 0; k < out_rows.size(); ++k) {
      ptr[k + 1] = ptr[k] + counts[k];
    }
    std::vector<Offset> cursor(ptr.begin(), ptr.end() - 1);
    std::vector<Index> out_cols(col_ids_.size());
    std::vector<T> out_vals(col_ids_.size());
    for (std::size_t k = 0; k < row_ids_.size(); ++k) {
      for (Offset o = row_ptr_[k]; o < row_ptr_[k + 1]; ++o) {
        const Offset at = cursor[slot[o]]++;
        out_cols[at] = row_ids_[k];
        out_vals[at] = vals_[o];
      }
    }
    return from_sorted_parts(ncols_, nrows_, std::move(out_rows),
                             std::move(ptr), std::move(out_cols),
                             std::move(out_vals));
  }

  /// Keeps nonzeros for which pred(row, col, val) holds. A row-major scan
  /// preserves sorted order, so the survivors build directly.
  template <typename Pred>
  [[nodiscard]] SpMat pruned(Pred pred) const {
    std::vector<Index> out_rows;
    std::vector<Offset> ptr;
    std::vector<Index> out_cols;
    std::vector<T> out_vals;
    for (std::size_t k = 0; k < row_ids_.size(); ++k) {
      const std::size_t row_start = out_cols.size();
      for (Offset o = row_ptr_[k]; o < row_ptr_[k + 1]; ++o) {
        if (pred(row_ids_[k], col_ids_[o], vals_[o])) {
          out_cols.push_back(col_ids_[o]);
          out_vals.push_back(vals_[o]);
        }
      }
      if (out_cols.size() > row_start) {
        out_rows.push_back(row_ids_[k]);
        ptr.push_back(static_cast<Offset>(row_start));
      }
    }
    ptr.push_back(static_cast<Offset>(out_cols.size()));
    return from_sorted_parts(nrows_, ncols_, std::move(out_rows),
                             std::move(ptr), std::move(out_cols),
                             std::move(out_vals));
  }

  /// Extracts the sub-matrix [r0, r1) × [c0, c1), re-indexed to local
  /// coordinates (direct build, same ordering argument as pruned). Used to
  /// split stripes for the blocked SUMMA.
  [[nodiscard]] SpMat extract(Index r0, Index r1, Index c0, Index c1) const {
    assert(r0 <= r1 && r1 <= nrows_ && c0 <= c1 && c1 <= ncols_);
    std::vector<Index> out_rows;
    std::vector<Offset> ptr;
    std::vector<Index> out_cols;
    std::vector<T> out_vals;
    for (std::size_t k = 0; k < row_ids_.size(); ++k) {
      const Index i = row_ids_[k];
      if (i < r0 || i >= r1) continue;
      const std::size_t row_start = out_cols.size();
      for (Offset o = row_ptr_[k]; o < row_ptr_[k + 1]; ++o) {
        if (col_ids_[o] >= c0 && col_ids_[o] < c1) {
          out_cols.push_back(col_ids_[o] - c0);
          out_vals.push_back(vals_[o]);
        }
      }
      if (out_cols.size() > row_start) {
        out_rows.push_back(i - r0);
        ptr.push_back(static_cast<Offset>(row_start));
      }
    }
    ptr.push_back(static_cast<Offset>(out_cols.size()));
    return from_sorted_parts(r1 - r0, c1 - c0, std::move(out_rows),
                             std::move(ptr), std::move(out_cols),
                             std::move(out_vals));
  }

  /// Structural + value equality (same shape, same nonzeros).
  friend bool operator==(const SpMat& a, const SpMat& b) {
    return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ &&
           a.row_ids_ == b.row_ids_ && a.row_ptr_ == b.row_ptr_ &&
           a.col_ids_ == b.col_ids_ && a.vals_ == b.vals_;
  }

 private:
  void reserve_nnz(std::size_t nnz) {
    col_ids_.reserve(nnz);
    vals_.reserve(nnz);
  }

  Index nrows_ = 0;
  Index ncols_ = 0;
  std::vector<Index> row_ids_;   // sorted ids of nonempty rows
  std::vector<Offset> row_ptr_;  // size row_ids_+1; offsets into col/val
  std::vector<Index> col_ids_;   // column of each nonzero (row-major)
  std::vector<T> vals_;          // payloads
};

/// Concatenates `parts` left to right: part p's columns are offset by the
/// widths of parts 0..p−1. Each output row takes its segments in part
/// order, so columns ascend and the DCSR arrays assemble directly (no sort,
/// values bit-exact). Merging the row directories costs Θ(nnz + parts ×
/// nonempty rows) and allocates nothing of size nrows, so hypersparse parts
/// (index shards over 244M k-mer rows) stay cheap. Parts are read, not
/// consumed, and must share a row count (std::invalid_argument otherwise);
/// no parts give a 0 × 0 matrix.
template <typename T>
[[nodiscard]] SpMat<T> hstack(const std::vector<const SpMat<T>*>& parts) {
  if (parts.empty()) return {};
  const Index nrows = parts.front()->nrows();
  Index ncols = 0;
  Offset nnz = 0;
  for (const auto* m : parts) {
    if (m->nrows() != nrows) {
      throw std::invalid_argument("sparse::hstack: parts differ in row count");
    }
    ncols += m->ncols();
    nnz += m->nnz();
  }
  std::vector<Index> row_ids;
  std::vector<Offset> row_ptr{0};
  std::vector<Index> cols;
  std::vector<T> vals;
  cols.reserve(nnz);
  vals.reserve(nnz);
  constexpr Index kNoRow = static_cast<Index>(-1);  // above every row id
  std::vector<std::size_t> next(parts.size(), 0);   // directory cursors
  for (;;) {
    Index row = kNoRow;
    for (std::size_t p = 0; p < parts.size(); ++p) {
      if (next[p] < parts[p]->n_nonempty_rows()) {
        row = std::min(row, parts[p]->row_id(next[p]));
      }
    }
    if (row == kNoRow) break;
    Index c0 = 0;
    for (std::size_t p = 0; p < parts.size(); ++p) {
      const auto& m = *parts[p];
      if (next[p] < m.n_nonempty_rows() && m.row_id(next[p]) == row) {
        for (Offset o = m.row_begin(next[p]); o < m.row_end(next[p]); ++o) {
          cols.push_back(m.col(o) + c0);
          vals.push_back(m.val(o));
        }
        ++next[p];
      }
      c0 += m.ncols();
    }
    row_ids.push_back(row);
    row_ptr.push_back(cols.size());
  }
  return SpMat<T>::from_sorted_parts(nrows, ncols, std::move(row_ids),
                                     std::move(row_ptr), std::move(cols),
                                     std::move(vals));
}

/// Concatenates `parts` top to bottom: part p's rows are offset by the
/// heights of parts 0..p−1, so the directories append in order (Θ(nnz +
/// nonempty rows), no sort, values bit-exact). Parts are read, not
/// consumed, and must share a column count (std::invalid_argument
/// otherwise); no parts give a 0 × 0 matrix.
template <typename T>
[[nodiscard]] SpMat<T> vstack(const std::vector<const SpMat<T>*>& parts) {
  if (parts.empty()) return {};
  const Index ncols = parts.front()->ncols();
  std::vector<Index> row_ids;
  std::vector<Offset> row_ptr{0};
  std::vector<Index> cols;
  std::vector<T> vals;
  Index r0 = 0;
  for (const auto* m : parts) {
    if (m->ncols() != ncols) {
      throw std::invalid_argument(
          "sparse::vstack: parts differ in column count");
    }
    const Offset base = cols.size();
    for (std::size_t k = 0; k < m->n_nonempty_rows(); ++k) {
      row_ids.push_back(m->row_id(k) + r0);
      row_ptr.push_back(base + m->row_end(k));
    }
    cols.insert(cols.end(), m->col_data(0), m->col_data(m->nnz()));
    vals.insert(vals.end(), m->val_data(0), m->val_data(m->nnz()));
    r0 += m->nrows();
  }
  return SpMat<T>::from_sorted_parts(r0, ncols, std::move(row_ids),
                                     std::move(row_ptr), std::move(cols),
                                     std::move(vals));
}

}  // namespace pastis::sparse
