// Semiring SpGEMM kernels (one rank's local work).
//
// One kernel runs in the library and two serial kernels stay as its
// oracles, mirroring the CPU SpGEMM literature the paper builds on
// [Nagasaka et al., ICPP'18; CombBLAS 2.0]:
//   * hash2p — two-phase symbolic/numeric hash kernel (the library's): a
//              count-only symbolic pass computes exact per-row output
//              sizes, an exact prefix sum pre-sizes the DCSR arrays, and
//              the numeric pass writes columns/values into their final
//              positions — no triple intermediary, no global sort, no
//              per-row allocations. One body (spgemm_hash2p_fused) serves
//              plain products (a copy-through epilogue) and the fused MCL
//              iteration (inflate/prune per row). Both passes run parallel
//              over flop-balanced row ranges on a util::ThreadPool. Each
//              nonzero of A looks up its B row once, through a per-call
//              B-row directory: a table, or a binary search of B's row ids
//              when A has too few nonzeros to pay for one. Output is
//              bit-identical to the serial kernels for any thread count.
//   * hash   — serial open-addressing accumulator per output row (the
//              cross-check oracle the two-phase kernel must match).
//   * heap   — serial k-way merge of B rows (predictable memory; second
//              oracle and ablation kernel).
// All are exact over any semiring; tests assert they agree. Tests and the
// ablation benches call the serial kernels directly.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sparse/matrix.hpp"
#include "sparse/semiring.hpp"
#include "util/thread_pool.hpp"

namespace pastis::sparse {

/// Work counters for one or more SpGEMM calls. `products` is the number of
/// semiring multiplies (the "flops" of the paper's cost discussion); the
/// compression factor products/out_nnz is the intermediate-to-output ratio
/// §V-B says drives the memory pressure of candidate discovery.
struct SpGemmStats {
  std::uint64_t products = 0;
  std::uint64_t out_nnz = 0;
  std::uint64_t calls = 0;

  [[nodiscard]] double compression_factor() const {
    return out_nnz == 0 ? 0.0
                        : static_cast<double>(products) /
                              static_cast<double>(out_nnz);
  }
  void merge(const SpGemmStats& o) {
    products += o.products;
    out_nnz += o.out_nnz;
    calls += o.calls;
  }
};

namespace detail {

/// Open-addressing map col -> accumulated value, reused across output rows.
template <typename V>
class HashAccumulator {
 public:
  void begin_row(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    if (cap > keys_.size()) {
      keys_.assign(cap, kEmpty);
      vals_.resize(cap);
    } else if (keys_.size() > kShrinkMin && keys_.size() / 8 >= cap) {
      // High-water release: one skewed row must not pin a huge table for
      // the rest of the call. Swap-allocate so capacity actually returns.
      std::vector<Index>(cap, kEmpty).swap(keys_);
      std::vector<V>(cap).swap(vals_);
    }
    used_.clear();
  }

  template <typename SR>
  void add(Index key, const V& v) {
    if ((used_.size() + 1) * 2 > keys_.size()) grow<SR>();
    const std::size_t mask = keys_.size() - 1;
    std::size_t slot = (static_cast<std::size_t>(key) * 0x9e3779b1u) & mask;
    for (;;) {
      if (keys_[slot] == kEmpty) {
        keys_[slot] = key;
        vals_[slot] = v;
        used_.push_back(slot);
        return;
      }
      if (keys_[slot] == key) {
        SR::add(vals_[slot], v);
        return;
      }
      slot = (slot + 1) & mask;
    }
  }

  /// Count-only insertion for the symbolic pass: records the key's
  /// presence, never touches values.
  void insert(Index key) {
    if ((used_.size() + 1) * 2 > keys_.size()) grow_keys();
    const std::size_t mask = keys_.size() - 1;
    std::size_t slot = (static_cast<std::size_t>(key) * 0x9e3779b1u) & mask;
    for (;;) {
      if (keys_[slot] == kEmpty) {
        keys_[slot] = key;
        used_.push_back(slot);
        return;
      }
      if (keys_[slot] == key) return;
      slot = (slot + 1) & mask;
    }
  }

  /// Resets the table without extracting (symbolic-pass row end).
  void clear_row() {
    for (std::size_t slot : used_) keys_[slot] = kEmpty;
    used_.clear();
  }

  /// Appends this row's entries sorted by column and resets the table.
  void extract_sorted(std::vector<Index>& cols, std::vector<V>& vals) {
    sort_used();
    for (std::size_t slot : used_) {
      cols.push_back(keys_[slot]);
      vals.push_back(vals_[slot]);
      keys_[slot] = kEmpty;
    }
    used_.clear();
  }

  /// Writes this row's entries sorted by column into pre-sized storage
  /// (the numeric pass's direct DCSR assembly) and resets the table.
  void extract_sorted_to(Index* cols, V* vals) {
    sort_used();
    for (std::size_t t = 0; t < used_.size(); ++t) {
      const std::size_t slot = used_[t];
      cols[t] = keys_[slot];
      vals[t] = vals_[slot];
      keys_[slot] = kEmpty;
    }
    used_.clear();
  }

  [[nodiscard]] std::size_t row_size() const { return used_.size(); }

  /// Current storage footprint (table + slot list capacities) — the number
  /// the MCL scratch high-water accounting tracks across iterations.
  [[nodiscard]] std::uint64_t capacity_bytes() const {
    return static_cast<std::uint64_t>(keys_.capacity()) * sizeof(Index) +
           static_cast<std::uint64_t>(vals_.capacity()) * sizeof(V) +
           static_cast<std::uint64_t>(used_.capacity()) * sizeof(std::size_t);
  }

 private:
  void sort_used() {
    std::sort(used_.begin(), used_.end(),
              [&](std::size_t a, std::size_t b) { return keys_[a] < keys_[b]; });
  }

  template <typename SR>
  void grow() {
    std::vector<Index> old_keys = std::move(keys_);
    std::vector<V> old_vals = std::move(vals_);
    std::vector<std::size_t> old_used = std::move(used_);
    keys_.assign(old_keys.size() * 2, kEmpty);
    vals_.resize(old_keys.size() * 2);
    used_.clear();
    for (std::size_t slot : old_used) {
      add<SR>(old_keys[slot], old_vals[slot]);
    }
  }

  void grow_keys() {
    std::vector<Index> old_keys = std::move(keys_);
    std::vector<std::size_t> old_used = std::move(used_);
    keys_.assign(old_keys.size() * 2, kEmpty);
    vals_.resize(old_keys.size() * 2);
    used_.clear();
    for (std::size_t slot : old_used) insert(old_keys[slot]);
  }

  static constexpr Index kEmpty = static_cast<Index>(-1);
  /// Tables at or below this size are never shrunk (re-touching a few KB
  /// costs more than it saves).
  static constexpr std::size_t kShrinkMin = 1u << 12;
  std::vector<Index> keys_;
  std::vector<V> vals_;
  std::vector<std::size_t> used_;
};

/// Row-id -> directory-slot lookup over B's nonempty rows, built once per
/// SpGEMM call and shared (read-only) by every thread. `lookups` bounds how
/// many lookups the call will make (nnz of A). When they are too few to pay
/// for a table — lookups · ⌈log2 n⌉ < n for n nonempty rows, as when a
/// serving batch's few hundred query k-mers meet an index shard — lookups
/// binary-search B's sorted row ids in place and nothing is built.
/// Otherwise a flat array over the inner dimension is used when that
/// dimension is small enough to be worth the memory, and hypersparse
/// operands (the 244M-row transposed k-mer matrix) get an open-addressing
/// table over the nonempty rows only, so the directory stays Θ(nonempty
/// rows), never Θ(dimension). Every mode resolves the same slots.
class RowDirectory {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// `row_ids` must outlive the directory.
  RowDirectory(Index nrows, std::span<const Index> row_ids,
               std::uint64_t lookups) {
    const std::size_t n = row_ids.size();
    if (n == 0) return;
    if (lookups * static_cast<std::uint64_t>(std::bit_width(n - 1)) < n) {
      sorted_ = row_ids;
      return;
    }
    if (static_cast<std::size_t>(nrows) <=
        std::max<std::size_t>(kFlatMin, 4 * n)) {
      flat_.assign(nrows, kMiss);
      for (std::size_t k = 0; k < n; ++k) {
        flat_[row_ids[k]] = static_cast<std::uint32_t>(k);
      }
      return;
    }
    std::size_t cap = 16;
    while (cap < n * 2) cap <<= 1;
    hash_keys_.assign(cap, kEmptyKey);
    hash_slots_.resize(cap);
    const std::size_t mask = cap - 1;
    for (std::size_t k = 0; k < n; ++k) {
      const Index key = row_ids[k];
      std::size_t slot = (static_cast<std::size_t>(key) * 0x9e3779b1u) & mask;
      while (hash_keys_[slot] != kEmptyKey) slot = (slot + 1) & mask;
      hash_keys_[slot] = key;
      hash_slots_[slot] = static_cast<std::uint32_t>(k);
    }
  }

  /// Directory slot of row `r`, or npos if the row is empty.
  [[nodiscard]] std::size_t lookup(Index r) const {
    if (!sorted_.empty()) {
      const auto it = std::lower_bound(sorted_.begin(), sorted_.end(), r);
      return it != sorted_.end() && *it == r
                 ? static_cast<std::size_t>(it - sorted_.begin())
                 : npos;
    }
    if (!flat_.empty()) {
      const std::uint32_t s = flat_[r];
      return s == kMiss ? npos : s;
    }
    if (hash_keys_.empty()) return npos;
    const std::size_t mask = hash_keys_.size() - 1;
    std::size_t slot = (static_cast<std::size_t>(r) * 0x9e3779b1u) & mask;
    for (;;) {
      if (hash_keys_[slot] == kEmptyKey) return npos;
      if (hash_keys_[slot] == r) return hash_slots_[slot];
      slot = (slot + 1) & mask;
    }
  }

 private:
  static constexpr std::uint32_t kMiss = static_cast<std::uint32_t>(-1);
  static constexpr Index kEmptyKey = static_cast<Index>(-1);
  static constexpr std::size_t kFlatMin = 1u << 16;
  std::span<const Index> sorted_;     // B's row ids (few lookups)
  std::vector<std::uint32_t> flat_;   // dimension-indexed (small dims only)
  std::vector<Index> hash_keys_;      // open addressing (hypersparse dims)
  std::vector<std::uint32_t> hash_slots_;
};

/// Splits `prefix` (a cumulative-flops array of size n+1, prefix[0] == 0)
/// into at most `parts` contiguous ranges of roughly equal flops. Returns
/// the boundary list (size n_chunks + 1). Deterministic in the inputs only,
/// and output-invariant anyway: chunking decides scheduling, not results.
inline std::vector<std::size_t> flop_chunks(
    const std::vector<std::uint64_t>& prefix, std::size_t parts) {
  const std::size_t n = prefix.size() - 1;
  std::vector<std::size_t> bounds;
  bounds.push_back(0);
  const std::uint64_t total = prefix.back();
  if (parts <= 1 || n <= 1 || total == 0) {
    bounds.push_back(n);
    return bounds;
  }
  for (std::size_t c = 1; c < parts; ++c) {
    const std::uint64_t target =
        total / parts * c + (total % parts) * c / parts;
    auto it = std::lower_bound(prefix.begin(), prefix.end(), target);
    std::size_t b = static_cast<std::size_t>(it - prefix.begin());
    b = std::min(b, n);
    if (b > bounds.back()) bounds.push_back(b);
  }
  if (bounds.back() < n) bounds.push_back(n);
  return bounds;
}

}  // namespace detail

/// C = A ·_SR B with a serial hash accumulator. A is M×K, B is K×N; C is
/// M×N. Kept as the primary cross-check oracle for the two-phase kernel.
template <SemiringLike SR>
[[nodiscard]] SpMat<typename SR::value_type> spgemm_hash(
    const SpMat<typename SR::left_type>& A,
    const SpMat<typename SR::right_type>& B, SpGemmStats* stats = nullptr) {
  using V = typename SR::value_type;
  if (A.ncols() != B.nrows()) {
    throw std::invalid_argument("spgemm: inner dimensions disagree");
  }

  std::vector<Triple<V>> out;  // row-major by construction
  detail::HashAccumulator<V> acc;
  std::vector<Index> cols;  // per-row drain buffers, reused across rows
  std::vector<V> vals;

  for (std::size_t ka = 0; ka < A.n_nonempty_rows(); ++ka) {
    const Index i = A.row_id(ka);
    // Upper bound on the row's intermediate products, for table sizing.
    std::size_t expected = 0;
    for (Offset o = A.row_begin(ka); o < A.row_end(ka); ++o) {
      const std::size_t kb = B.find_row(A.col(o));
      if (kb != SpMat<typename SR::right_type>::npos) {
        expected += static_cast<std::size_t>(B.row_end(kb) - B.row_begin(kb));
      }
    }
    if (expected == 0) continue;
    acc.begin_row(expected);

    std::uint64_t row_products = 0;
    for (Offset o = A.row_begin(ka); o < A.row_end(ka); ++o) {
      const Index k = A.col(o);
      const std::size_t kb = B.find_row(k);
      if (kb == SpMat<typename SR::right_type>::npos) continue;
      const auto& aval = A.val(o);
      for (Offset ob = B.row_begin(kb); ob < B.row_end(kb); ++ob) {
        acc.template add<SR>(B.col(ob), SR::multiply(aval, B.val(ob)));
        ++row_products;
      }
    }

    // Drain the accumulator into triples for this row.
    cols.clear();
    vals.clear();
    acc.extract_sorted(cols, vals);
    for (std::size_t t = 0; t < cols.size(); ++t) {
      out.push_back({i, cols[t], vals[t]});
    }
    if (stats != nullptr) stats->products += row_products;
  }
  if (stats != nullptr) {
    stats->out_nnz += out.size();
    ++stats->calls;
  }
  // Triples are already (row, col)-sorted and unique; build directly.
  return SpMat<V>::from_triples(A.nrows(), B.ncols(), std::move(out));
}

/// Reusable cross-call scratch for spgemm_hash2p_fused: the B-row slot
/// cache, flop/schedule prefixes, per-row nnz/offset arrays, per-chunk hash
/// accumulators and row-extraction buffers, and the output DCSR arrays.
/// An iterative caller (the MCL loop) keeps one workspace alive so every
/// allocation hits its high water once and is then recycled; donating a
/// dying matrix's storage back via SpMat::release_parts into out_* closes
/// the loop. Purely an allocation cache: reusing a workspace across calls
/// never changes any result.
template <typename V>
struct SpGemmWorkspace {
  std::vector<std::uint32_t> kb_of;
  std::vector<std::uint64_t> flops;  // cumulative flops (symbolic balance)
  std::vector<std::uint64_t> sched;  // flops + epilogue weight (numeric)
  std::vector<Offset> row_nnz;
  std::vector<Offset> row_off;   // padded output offsets
  std::vector<Offset> kept_nnz;  // per-row epilogue survivors
  std::vector<Index> out_row_ids;
  std::vector<Offset> out_row_ptr;
  std::vector<Index> out_cols;
  std::vector<V> out_vals;
  std::vector<detail::HashAccumulator<V>> sym_accs;
  std::vector<detail::HashAccumulator<V>> num_accs;
  std::vector<std::vector<Index>> row_cols;  // per-chunk extracted row
  std::vector<std::vector<V>> row_vals;

  [[nodiscard]] std::uint64_t capacity_bytes() const {
    auto vec = [](const auto& v) {
      return static_cast<std::uint64_t>(v.capacity()) *
             sizeof(typename std::decay_t<decltype(v)>::value_type);
    };
    std::uint64_t b = vec(kb_of) + vec(flops) + vec(sched) + vec(row_nnz) +
                      vec(row_off) + vec(kept_nnz) + vec(out_row_ids) +
                      vec(out_row_ptr) + vec(out_cols) + vec(out_vals);
    for (const auto& a : sym_accs) b += a.capacity_bytes();
    for (const auto& a : num_accs) b += a.capacity_bytes();
    for (const auto& v : row_cols) b += vec(v);
    for (const auto& v : row_vals) b += vec(v);
    return b;
  }
};

/// Relative cost of one output entry's epilogue work (pow + select + write)
/// vs one semiring product, used to re-balance the numeric-phase chunks.
/// Scheduling only — never affects results.
inline constexpr std::uint64_t kFusedEpilogueWeight = 16;

/// C = A ·_SR B with the two-phase kernel and a per-row epilogue fused into
/// the numeric phase (prune-during-accumulate).
///
/// After a row of A·B is accumulated and extracted column-sorted into
/// chunk-local scratch, the epilogue rewrites it in place of the plain
/// copy-out:
///
///   kept = epilogue(chunk, row_id, cols, vals, nnz, out_cols, out_vals)
///
/// where (cols, vals, nnz) are the row's sorted pre-epilogue entries and
/// (out_cols, out_vals) point at the row's final DCSR slice, pre-sized to
/// min(nnz, max_row_out) (max_row_out == 0 means nnz). The epilogue writes
/// its survivors column-ascending and returns how many it kept (<= the
/// slice size); rows that keep 0 entries drop from the output directory.
/// `chunk` identifies the scheduling chunk for per-chunk caller scratch; it
/// is scheduling-only, so determinism requires the epilogue's OUTPUT be a
/// pure function of (row_id, cols, vals, nnz). Under that contract the
/// result is bit-identical for any pool size or workspace reuse — the MCL
/// inflate/prune/chaos pass satisfies it by construction.
///
/// `on_symbolic(pre_rows, pre_nnz)` is invoked exactly once per call —
/// after the symbolic pass, before any epilogue runs (with zeros on the
/// trivially-empty early returns) — and returns max_row_out. This is the
/// hook the MCL loop uses to make its memory-budget / column-cap decision
/// from the pre-epilogue shape of the expansion, before any row is pruned.
///
/// `skip_rows` (optional; indexed by GLOBAL row id, so size >= A.nrows())
/// marks rows to exclude entirely: they cost no flops and emit nothing
/// (the MCL converged-column dropout mask).
///
/// Scheduling: the symbolic pass balances chunks by flops; the numeric
/// pass re-balances by
/// flops + kFusedEpilogueWeight * row_nnz, since the fused epilogue's
/// per-entry work rivals several hash adds (the "column-balanced"
/// schedule — A rows are flow-matrix columns in the transposed layout).
///
/// `stats->out_nnz` counts PRE-epilogue nnz (what the plain product would
/// report), so the stats equal the serial kernels' on A·B; the kept nnz is
/// visible on the returned matrix.
template <SemiringLike SR, typename Epilogue, typename OnSymbolic>
[[nodiscard]] SpMat<typename SR::value_type> spgemm_hash2p_fused(
    const SpMat<typename SR::left_type>& A,
    const SpMat<typename SR::right_type>& B, Epilogue&& epilogue,
    OnSymbolic&& on_symbolic, const std::uint8_t* skip_rows = nullptr,
    SpGemmWorkspace<typename SR::value_type>* ws = nullptr,
    SpGemmStats* stats = nullptr,
    util::ThreadPool* pool = nullptr, const obs::Telemetry& telem = {}) {
  using V = typename SR::value_type;
  if (A.ncols() != B.nrows()) {
    throw std::invalid_argument("spgemm: inner dimensions disagree");
  }
  SpGemmWorkspace<V> local_ws;
  SpGemmWorkspace<V>& w = ws != nullptr ? *ws : local_ws;
  const std::size_t nka = A.n_nonempty_rows();

  // Flop/nnz totals land in the registry rather than on SpGemmStats:
  // SpGemmStats instances are compared across kernels/schedules in the
  // cross-check tests, so it must not grow measured-time fields.
  auto finish_stats = [&](std::uint64_t products, std::uint64_t out_nnz) {
    if (stats != nullptr) {
      stats->products += products;
      stats->out_nnz += out_nnz;
      ++stats->calls;
    }
    if (telem.metrics != nullptr) {
      telem.metrics->counter("spgemm.calls_total").add(1.0);
      telem.metrics->counter("spgemm.flops_total")
          .add(static_cast<double>(products));
      telem.metrics->counter("spgemm.out_nnz_total")
          .add(static_cast<double>(out_nnz));
    }
  };
  // Runs one kernel phase under a measured span + a latency histogram
  // named "<name>_seconds"; telemetry off is a plain call.
  auto timed_phase = [&](const char* name, auto&& fn) {
    if (!telem.enabled()) {
      fn();
      return;
    }
    obs::Span span(telem.tracer, name);
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    if (telem.metrics != nullptr) {
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      telem.metrics->histogram(std::string(name) + "_seconds").observe(s);
    }
  };
  auto empty_result = [&] {
    (void)on_symbolic(0, 0);
    finish_stats(0, 0);
    return SpMat<V>(A.nrows(), B.ncols());
  };
  if (nka == 0 || B.n_nonempty_rows() == 0) return empty_result();

  const detail::RowDirectory dir(B.nrows(), B.row_ids(), A.nnz());

  // One directory pass over A's nonzeros: cache each nonzero's B-row slot
  // (so the symbolic and numeric passes do zero lookups) and accumulate
  // the per-row flops (= exactly the products the row will perform) whose
  // prefix sum balances the row ranges. Skip-masked rows are charged zero
  // flops so both the schedule and the passes ignore them.
  constexpr std::uint32_t kMissSlot = static_cast<std::uint32_t>(-1);
  w.kb_of.resize(A.nnz());
  w.flops.resize(nka + 1);
  w.flops[0] = 0;
  for (std::size_t ka = 0; ka < nka; ++ka) {
    std::uint64_t f = 0;
    if (skip_rows == nullptr || skip_rows[A.row_id(ka)] == 0) {
      for (Offset o = A.row_begin(ka); o < A.row_end(ka); ++o) {
        const std::size_t kb = dir.lookup(A.col(o));
        if (kb != detail::RowDirectory::npos) {
          w.kb_of[o] = static_cast<std::uint32_t>(kb);
          f += static_cast<std::uint64_t>(B.row_end(kb) - B.row_begin(kb));
        } else {
          w.kb_of[o] = kMissSlot;
        }
      }
    }
    w.flops[ka + 1] = w.flops[ka] + f;
  }
  const std::uint64_t total_flops = w.flops[nka];
  if (total_flops == 0) return empty_result();

  std::size_t threads = pool != nullptr ? pool->size() : 1;
  if (total_flops < (1u << 14)) threads = 1;

  auto run_chunks = [&](const std::vector<std::size_t>& bounds,
                        const std::function<void(std::size_t)>& chunk_fn) {
    const std::size_t n = bounds.size() - 1;
    if (pool == nullptr || n <= 1) {
      for (std::size_t c = 0; c < n; ++c) chunk_fn(c);
    } else {
      pool->parallel_for(n, chunk_fn);
    }
  };

  // ---- symbolic pass: exact pre-epilogue nnz of every output row -----------
  // The table-size hint is capped: high-compression rows (many products,
  // few distinct columns — the §V-B genomics regime) would otherwise pay
  // cold-cache probes in a needlessly huge table; rows that really do
  // exceed the cap just rehash a few times (keys only, cheap).
  constexpr std::size_t kSymbolicSizeCap = 4096;
  const std::vector<std::size_t> sym_bounds =
      detail::flop_chunks(w.flops, threads);
  const std::size_t n_sym = sym_bounds.size() - 1;
  if (w.sym_accs.size() < n_sym) w.sym_accs.resize(n_sym);
  w.row_nnz.assign(nka, 0);
  timed_phase("spgemm.symbolic", [&] {
    run_chunks(sym_bounds, [&](std::size_t c) {
      detail::HashAccumulator<V>& acc = w.sym_accs[c];
      for (std::size_t ka = sym_bounds[c]; ka < sym_bounds[c + 1]; ++ka) {
        const std::uint64_t f = w.flops[ka + 1] - w.flops[ka];
        if (f == 0) continue;
        acc.begin_row(std::min(static_cast<std::size_t>(f), kSymbolicSizeCap));
        for (Offset o = A.row_begin(ka); o < A.row_end(ka); ++o) {
          const std::uint32_t kb = w.kb_of[o];
          if (kb == kMissSlot) continue;
          for (Offset ob = B.row_begin(kb); ob < B.row_end(kb); ++ob) {
            acc.insert(B.col(ob));
          }
        }
        w.row_nnz[ka] = static_cast<Offset>(acc.row_size());
        acc.clear_row();
      }
    });
  });

  // ---- pre-epilogue shape → caller's budget decision -----------------------
  std::uint64_t pre_rows = 0;
  std::uint64_t pre_nnz = 0;
  for (std::size_t ka = 0; ka < nka; ++ka) {
    pre_rows += w.row_nnz[ka] != 0;
    pre_nnz += w.row_nnz[ka];
  }
  const std::uint32_t max_row_out = on_symbolic(pre_rows, pre_nnz);

  // ---- padded offsets + recycled output arrays -----------------------------
  w.row_off.resize(nka + 1);
  w.row_off[0] = 0;
  for (std::size_t ka = 0; ka < nka; ++ka) {
    const Offset bound =
        max_row_out == 0
            ? w.row_nnz[ka]
            : std::min<Offset>(w.row_nnz[ka], max_row_out);
    w.row_off[ka + 1] = w.row_off[ka] + bound;
  }
  const Offset padded_nnz = w.row_off[nka];
  std::vector<Index> out_cols = std::move(w.out_cols);
  std::vector<V> out_vals = std::move(w.out_vals);
  out_cols.clear();
  out_vals.clear();
  out_cols.resize(padded_nnz);
  out_vals.resize(padded_nnz);
  w.kept_nnz.assign(nka, 0);

  // ---- numeric pass, epilogue fused ----------------------------------------
  // Re-balanced: a fused chunk's cost is its products plus its epilogue
  // entries, so the schedule weighs both (the symbolic flop split would
  // starve high-compression chunks of their epilogue time).
  w.sched.resize(nka + 1);
  w.sched[0] = 0;
  for (std::size_t ka = 0; ka < nka; ++ka) {
    w.sched[ka + 1] = w.sched[ka] + (w.flops[ka + 1] - w.flops[ka]) +
                      kFusedEpilogueWeight * w.row_nnz[ka];
  }
  const std::vector<std::size_t> num_bounds =
      detail::flop_chunks(w.sched, threads);
  const std::size_t n_num = num_bounds.size() - 1;
  if (w.num_accs.size() < n_num) w.num_accs.resize(n_num);
  if (w.row_cols.size() < n_num) {
    w.row_cols.resize(n_num);
    w.row_vals.resize(n_num);
  }
  timed_phase("spgemm.numeric", [&] {
    run_chunks(num_bounds, [&](std::size_t c) {
      detail::HashAccumulator<V>& acc = w.num_accs[c];
      std::vector<Index>& rc = w.row_cols[c];
      std::vector<V>& rv = w.row_vals[c];
      for (std::size_t ka = num_bounds[c]; ka < num_bounds[c + 1]; ++ka) {
        const Offset rn = w.row_nnz[ka];
        if (rn == 0) continue;
        acc.begin_row(static_cast<std::size_t>(rn));
        for (Offset o = A.row_begin(ka); o < A.row_end(ka); ++o) {
          const std::uint32_t kb = w.kb_of[o];
          if (kb == kMissSlot) continue;
          const auto& aval = A.val(o);
          for (Offset ob = B.row_begin(kb); ob < B.row_end(kb); ++ob) {
            acc.template add<SR>(B.col(ob), SR::multiply(aval, B.val(ob)));
          }
        }
        if (rc.size() < static_cast<std::size_t>(rn)) {
          rc.resize(static_cast<std::size_t>(rn));
          rv.resize(static_cast<std::size_t>(rn));
        }
        acc.extract_sorted_to(rc.data(), rv.data());
        const std::size_t kept =
            epilogue(c, A.row_id(ka), rc.data(), rv.data(),
                     static_cast<std::size_t>(rn),
                     out_cols.data() + w.row_off[ka],
                     out_vals.data() + w.row_off[ka]);
        w.kept_nnz[ka] = static_cast<Offset>(kept);
      }
    });
  });

  // ---- compact the padded slices left, build the directory -----------------
  // Serial by design: destinations always trail sources within a left-to-
  // right sweep, but a parallel sweep's chunk could overwrite an earlier
  // chunk's still-unread source region. The pass moves only the kept
  // (pruned) entries — a small fraction of the numeric work.
  std::vector<Index> out_row_ids = std::move(w.out_row_ids);
  std::vector<Offset> out_row_ptr = std::move(w.out_row_ptr);
  out_row_ids.clear();
  out_row_ptr.clear();
  Offset dst = 0;
  for (std::size_t ka = 0; ka < nka; ++ka) {
    const Offset kept = w.kept_nnz[ka];
    if (kept == 0) continue;
    const Offset src = w.row_off[ka];
    if (dst != src) {
      std::copy(out_cols.begin() + static_cast<std::ptrdiff_t>(src),
                out_cols.begin() + static_cast<std::ptrdiff_t>(src + kept),
                out_cols.begin() + static_cast<std::ptrdiff_t>(dst));
      std::copy(out_vals.begin() + static_cast<std::ptrdiff_t>(src),
                out_vals.begin() + static_cast<std::ptrdiff_t>(src + kept),
                out_vals.begin() + static_cast<std::ptrdiff_t>(dst));
    }
    out_row_ids.push_back(A.row_id(ka));
    out_row_ptr.push_back(dst);
    dst += kept;
  }
  out_row_ptr.push_back(dst);
  finish_stats(total_flops, pre_nnz);
  if (dst == 0) {
    // Return the recycled arrays so their capacity survives the miss.
    w.out_cols = std::move(out_cols);
    w.out_vals = std::move(out_vals);
    w.out_row_ids = std::move(out_row_ids);
    w.out_row_ptr = std::move(out_row_ptr);
    return SpMat<V>(A.nrows(), B.ncols());
  }
  out_cols.resize(dst);
  out_vals.resize(dst);
  return SpMat<V>::from_sorted_parts(A.nrows(), B.ncols(),
                                     std::move(out_row_ids),
                                     std::move(out_row_ptr),
                                     std::move(out_cols), std::move(out_vals));
}

/// C = A ·_SR B with the two-phase symbolic/numeric hash kernel.
///
/// Phase 1 (symbolic) runs the hash accumulator in count-only mode to get
/// the exact nnz of every output row; an exact prefix sum then pre-sizes
/// the output DCSR arrays. Phase 2 (numeric) recomputes the products with
/// values and copies each row's sorted entries into its final
/// [offset, offset + nnz) slice — no Triple intermediary, no global
/// re-sort, no per-row allocations. Both phases are parallelized over
/// `pool` in contiguous row ranges balanced by accumulated flops; every
/// range writes disjoint state, so the result is bit-identical to
/// spgemm_hash for ANY pool size, including pool == nullptr (serial). This is
/// spgemm_hash2p_fused with a copy-through epilogue: one two-phase body
/// serves both the discovery multiplies and the MCL expansion.
template <SemiringLike SR>
[[nodiscard]] SpMat<typename SR::value_type> spgemm_hash2p(
    const SpMat<typename SR::left_type>& A,
    const SpMat<typename SR::right_type>& B, SpGemmStats* stats = nullptr,
    util::ThreadPool* pool = nullptr, const obs::Telemetry& telem = {}) {
  using V = typename SR::value_type;
  auto copy_row = [](std::size_t, Index, const Index* cols, const V* vals,
                     std::size_t n, Index* out_cols, V* out_vals) {
    std::copy_n(cols, n, out_cols);
    std::copy_n(vals, n, out_vals);
    return n;
  };
  return spgemm_hash2p_fused<SR>(
      A, B, copy_row, [](std::uint64_t, std::uint64_t) { return 0u; },
      nullptr, nullptr, stats, pool, telem);
}

/// C = A ·_SR B with a k-way heap merge per output row.
template <SemiringLike SR>
[[nodiscard]] SpMat<typename SR::value_type> spgemm_heap(
    const SpMat<typename SR::left_type>& A,
    const SpMat<typename SR::right_type>& B, SpGemmStats* stats = nullptr) {
  using V = typename SR::value_type;
  if (A.ncols() != B.nrows()) {
    throw std::invalid_argument("spgemm: inner dimensions disagree");
  }

  struct Cursor {
    Offset pos;
    Offset end;
    Offset a_off;  // nonzero of A providing the left operand
  };

  std::vector<Triple<V>> out;
  std::vector<Cursor> cursors;
  std::vector<std::size_t> heap;  // reused across rows

  for (std::size_t ka = 0; ka < A.n_nonempty_rows(); ++ka) {
    const Index i = A.row_id(ka);
    cursors.clear();
    for (Offset o = A.row_begin(ka); o < A.row_end(ka); ++o) {
      const std::size_t kb = B.find_row(A.col(o));
      if (kb == SpMat<typename SR::right_type>::npos) continue;
      if (B.row_begin(kb) < B.row_end(kb)) {
        cursors.push_back({B.row_begin(kb), B.row_end(kb), o});
      }
    }
    if (cursors.empty()) continue;

    auto heap_less = [&](std::size_t x, std::size_t y) {
      return B.col(cursors[x].pos) > B.col(cursors[y].pos);  // min-heap
    };
    heap.resize(cursors.size());
    for (std::size_t h = 0; h < heap.size(); ++h) heap[h] = h;
    std::make_heap(heap.begin(), heap.end(), heap_less);

    std::uint64_t row_products = 0;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), heap_less);
      const std::size_t c = heap.back();
      heap.pop_back();
      Cursor& cur = cursors[c];
      const Index j = B.col(cur.pos);
      const V v = SR::multiply(A.val(cur.a_off), B.val(cur.pos));
      ++row_products;
      if (!out.empty() && out.back().row == i && out.back().col == j) {
        SR::add(out.back().val, v);
      } else {
        out.push_back({i, j, v});
      }
      if (++cur.pos < cur.end) {
        heap.push_back(c);
        std::push_heap(heap.begin(), heap.end(), heap_less);
      }
    }
    if (stats != nullptr) stats->products += row_products;
  }
  if (stats != nullptr) {
    stats->out_nnz += out.size();
    ++stats->calls;
  }
  return SpMat<V>::from_triples(A.nrows(), B.ncols(), std::move(out));
}

/// Merges partial results (e.g. the √p SUMMA stage outputs) into one matrix,
/// combining duplicates with the semiring add *in part order*: when several
/// parts carry the same (row, col), the accumulation folds them left to
/// right by part index. For the order-independent adds of the discovery
/// semirings this is indistinguishable from any other order; for
/// order-sensitive adds (PlusTimes<float>) it keeps a staged merge
/// deterministic, though its sums can differ in the last bits from one
/// ascending-k accumulation. All parts must share shape.
template <typename V, typename AddOp>
[[nodiscard]] SpMat<V> add_merge(const std::vector<SpMat<V>>& parts,
                                 Index nrows, Index ncols, AddOp add) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.nnz();
  std::vector<Triple<V>> t;
  t.reserve(total);
  for (const auto& p : parts) {
    p.for_each([&](Index i, Index j, const V& v) { t.push_back({i, j, v}); });
  }
  if (t.empty()) return SpMat<V>(nrows, ncols);
  // Stable sort keeps duplicates in part order (each part is row-major
  // sorted already), so combine_duplicates folds them by part index.
  std::stable_sort(t.begin(), t.end(),
                   [](const Triple<V>& a, const Triple<V>& b) {
                     return a.row != b.row ? a.row < b.row : a.col < b.col;
                   });
  combine_duplicates(t, add);
  // Sorted and deduplicated: assemble the DCSR arrays directly instead of
  // paying from_triples' second sort.
  std::vector<Index> row_ids;
  std::vector<Offset> row_ptr;
  std::vector<Index> cols;
  std::vector<V> vals;
  cols.reserve(t.size());
  vals.reserve(t.size());
  for (const auto& x : t) {
    if (x.row >= nrows || x.col >= ncols) {
      throw std::out_of_range("add_merge: index out of bounds");
    }
    if (row_ids.empty() || x.row != row_ids.back()) {
      row_ids.push_back(x.row);
      row_ptr.push_back(static_cast<Offset>(cols.size()));
    }
    cols.push_back(x.col);
    vals.push_back(x.val);
  }
  row_ptr.push_back(static_cast<Offset>(cols.size()));
  return SpMat<V>::from_sorted_parts(nrows, ncols, std::move(row_ids),
                                     std::move(row_ptr), std::move(cols),
                                     std::move(vals));
}

}  // namespace pastis::sparse
