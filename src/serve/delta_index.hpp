// LSM-style incremental index: a base KmerIndex plus an ordered list of
// delta segments, each itself a KmerIndex built over only the references
// added by one `add_references()` call.
//
// The segment format IS the v2 shard stripe format, reused verbatim: a
// segment is built with the base's shard count and discovery parameters,
// so shard s of every segment covers exactly the same contiguous k-mer
// code range [shard_begin(s), shard_begin(s+1)) as shard s of the base —
// a query batch multiplies the base stripe and every segment stripe of a
// shard and merges with the same semiring add, which is associative and
// order-independent, so folded results are bit-identical to a from-scratch
// rebuild over the union reference set (tested, and hard-gated by
// bench_serving_soak at every epoch).
//
// Global reference ids are assignment-stable: segment g's local reference
// j is global id segment_ref_base(g) + j, i.e. references keep the order
// in which they arrived. Compaction preserves this order, which is what
// lets a compaction run without bumping the epoch — it changes the
// physical layout, never the logical index.
//
//   epoch      == number of add_references() calls ever applied — the
//                 ResultCache key component and the QueryEngine refresh
//                 trigger. Compaction does NOT bump it.
//   compaction == merge every segment's postings into the base stripes
//                 (column-shifted by the segment's ref base) and clear the
//                 segment list; triggered when delta bytes reach a
//                 size-ratio threshold of the base (the classic LSM
//                 trigger). Runs as a StreamPipeline over shards so it
//                 overlaps and is admission-gated exactly like serving.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "index/kmer_index.hpp"
#include "sim/machine_model.hpp"
#include "util/thread_pool.hpp"

namespace pastis::serve {

struct AddStats {
  std::uint64_t epoch = 0;          // epoch after this add
  std::uint64_t refs_added = 0;
  std::uint64_t segment_nnz = 0;    // postings in the new segment
  std::uint64_t segment_bytes = 0;  // logical bytes of the new segment
  double build_wall_seconds = 0.0;
};

struct CompactionStats {
  std::uint64_t segments_merged = 0;
  std::uint64_t postings_merged = 0;  // delta postings folded into base
  std::uint64_t bytes_in = 0;         // base + delta stripe bytes read
  std::uint64_t bytes_out = 0;        // merged stripe bytes written
  double wall_seconds = 0.0;
  /// Modeled per-shard merge seconds (sparse streaming over bytes in+out)
  /// — what QueryEngine::charge_compaction spreads over the rank clocks.
  std::vector<double> shard_modeled_seconds;
};

class DeltaIndex {
 public:
  /// Takes ownership of the base (and optional pre-built segments, e.g.
  /// restored from a v3 file — epoch resumes at segments.size()). Throws
  /// std::invalid_argument when a segment's params, shard count, or k-mer
  /// space disagree with the base, or when cfg doesn't match the base
  /// params.
  DeltaIndex(index::KmerIndex base, core::PastisConfig cfg,
             std::vector<index::KmerIndex> segments = {});

  [[nodiscard]] const index::KmerIndex& base() const { return base_; }
  [[nodiscard]] int n_shards() const { return base_.n_shards(); }
  [[nodiscard]] int n_segments() const {
    return static_cast<int>(segments_.size());
  }
  [[nodiscard]] const index::KmerIndex& segment(int g) const {
    return segments_[static_cast<std::size_t>(g)];
  }
  [[nodiscard]] const std::vector<index::KmerIndex>& segments() const {
    return segments_;
  }
  /// Global id of segment g's first reference.
  [[nodiscard]] sparse::Index segment_ref_base(int g) const {
    return ref_bases_[static_cast<std::size_t>(g)];
  }

  [[nodiscard]] sparse::Index total_refs() const;
  /// Reference sequence by GLOBAL id (base refs first, then each segment's
  /// refs in arrival order).
  [[nodiscard]] std::string_view ref(sparse::Index id) const;

  /// Mutation count: bumped by every add_references(), never by compact().
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Logical bytes across all delta segments (the compaction trigger's
  /// numerator).
  [[nodiscard]] std::uint64_t delta_bytes() const;
  /// Per-shard bytes folded across base + segments — the load vector the
  /// placement (and the grid residency ledger) sees.
  [[nodiscard]] std::vector<std::uint64_t> shard_total_bytes() const;

  /// Appends a delta segment over `refs` (they get the next global ids)
  /// and bumps the epoch. New references are searchable immediately.
  AddStats add_references(
      std::vector<std::string> refs,
      util::ThreadPool* pool = &util::ThreadPool::global());

  /// True when delta bytes have reached `trigger_ratio` x base bytes (and
  /// at least one segment exists). ratio <= 0 disables the trigger.
  [[nodiscard]] bool compaction_due(double trigger_ratio) const;

  /// Merges every segment into the base stripes and clears the segment
  /// list. Runs shard merges through a StreamPipeline ("compact.*" spans,
  /// cfg's depth / memory budget / pool / telemetry) so compaction is
  /// overlapped and admission-gated like any other exec stage. The merged
  /// base is bit-identical to KmerIndex::build over the union reference
  /// set. Epoch unchanged; &base() stays valid (replaced in place).
  CompactionStats compact(
      const sim::MachineModel& model,
      util::ThreadPool* pool = &util::ThreadPool::global());

 private:
  void rebuild_ref_bases();

  index::KmerIndex base_;
  core::PastisConfig cfg_;
  std::vector<index::KmerIndex> segments_;
  std::vector<sparse::Index> ref_bases_;  // per segment: first global id
  std::uint64_t epoch_ = 0;
};

}  // namespace pastis::serve
