// Persistent sharded inverted k-mer index — the reusable half of the
// many-against-many search, built once per reference set.
//
// Paper mapping:
//   * §III (use case 1): "identifying sequences in one set by using another
//     set whose functions are already known" — the reference set is the
//     known side; this index is its k-mer matrix, kept.
//   * Fig. 1 / §V: the index stores Aᵀ_ref — for every k-mer h, the postings
//     list of (reference sequence, position) pairs, i.e. the nonzeros of row
//     h of the transposed sequence-by-k-mer matrix. This is exactly the
//     operand the SpGEMM of candidate discovery consumes, pre-transposed so
//     serving skips the distributed transpose of the full pipeline.
//   * §V-A / §VI-A: shards split the k-mer space [0, σ^k) into contiguous
//     code ranges (the hypersparse stripes a rank grid would own), so a
//     query batch multiplies shard-by-shard and merges with the semiring
//     add — associative and order-independent (core/common_kmers.hpp),
//     which makes results invariant to the shard count and process count.
//   * §V (sensitivity): substitute k-mers are baked in at build time — each
//     reference k-mer also posts its m nearest neighbours, so the serving
//     path inherits the sensitivity knob without rebuilding queries' side.
//
// The index outlives the process via index_io.{hpp,cpp}; the serving loop
// lives in query_engine.{hpp,cpp}.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/common_kmers.hpp"
#include "core/config.hpp"
#include "kmer/codec.hpp"
#include "sim/machine_model.hpp"
#include "sparse/matrix.hpp"
#include "util/thread_pool.hpp"

namespace pastis::index {

using core::KmerPos;
using sparse::Index;

/// Discovery parameters frozen into an index. A query engine may only serve
/// configurations whose discovery side matches — mixing k or alphabets
/// would silently change the candidate set.
struct IndexParams {
  int k = 6;
  kmer::Alphabet::Kind alphabet = kmer::Alphabet::Kind::kProtein25;
  int subs_kmers = 0;
  int subs_max_loss = 3;
  // The substitute-k-mer neighbour metric is the substitution matrix.
  align::Scoring::Matrix matrix = align::Scoring::Matrix::kBlosum62;
  int gap_open = 11;
  int gap_extend = 2;

  [[nodiscard]] static IndexParams from_config(const core::PastisConfig& cfg) {
    return {cfg.k,      cfg.alphabet, cfg.subs_kmers, cfg.subs_max_loss,
            cfg.matrix, cfg.gap_open, cfg.gap_extend};
  }
  [[nodiscard]] bool matches(const core::PastisConfig& cfg) const {
    return *this == from_config(cfg);
  }
  friend bool operator==(const IndexParams&, const IndexParams&) = default;
};

class KmerIndex {
 public:
  KmerIndex() = default;

  /// Builds the index from a reference set: the shards are the 1 ×
  /// n_shards blocks of core::kmer_matrix_blocks in the Aᵀ orientation.
  /// Shard s owns k-mer codes [shard_begin(s), shard_begin(s+1)); postings
  /// are deduplicated per (k-mer, reference) keeping the smallest position
  /// — the pipeline's k-mer matrix construction, which is what makes
  /// serving results bit-identical to the concatenated many-against-many
  /// search.
  [[nodiscard]] static KmerIndex build(
      std::vector<std::string> refs, const core::PastisConfig& cfg,
      int n_shards, util::ThreadPool* pool = &util::ThreadPool::global());

  /// Reassembles an index from deserialized parts (index_io). Validates
  /// shard shapes against the params; throws std::invalid_argument.
  [[nodiscard]] static KmerIndex from_parts(
      IndexParams params, int n_shards, std::vector<std::string> refs,
      std::vector<sparse::SpMat<KmerPos>> shards);

  [[nodiscard]] const IndexParams& params() const { return params_; }
  [[nodiscard]] int n_shards() const { return static_cast<int>(shards_.size()); }
  [[nodiscard]] Index n_refs() const { return static_cast<Index>(refs_.size()); }
  /// σ^k — the shared inner dimension of the discovery SpGEMM.
  [[nodiscard]] Index kmer_space() const { return kmer_space_; }

  /// First k-mer code of shard s (s = n_shards gives σ^k).
  [[nodiscard]] Index shard_begin(int s) const;
  /// Shard s as the Aᵀ stripe: rows = shard-local k-mer codes, cols = refs.
  [[nodiscard]] const sparse::SpMat<KmerPos>& shard(int s) const {
    return shards_[static_cast<std::size_t>(s)];
  }

  [[nodiscard]] std::string_view ref(Index id) const { return refs_[id]; }
  [[nodiscard]] const std::vector<std::string>& refs() const { return refs_; }
  [[nodiscard]] std::uint64_t ref_residues() const { return ref_residues_; }

  /// Minhash sketch of one sequence under this codec: slot j holds the
  /// minimum over the sequence's distinct exact k-mer codes of
  /// splitmix64(code ^ seed_j). Sequences with no valid k-mer fill every
  /// slot with the all-ones sentinel. The slot-wise match count between two
  /// sketches is an unbiased Jaccard estimator over k-mer sets — the
  /// index-side Tier-0 screen of the alignment cascade (align/cascade.hpp).
  [[nodiscard]] static std::vector<std::uint64_t> sketch_of(
      std::string_view seq, const kmer::Alphabet& alphabet,
      const kmer::KmerCodec& codec, int sketch_len);

  /// Builds (or rebuilds) the per-reference sketch table with `sketch_len`
  /// slots per reference; 0 drops the table. Deterministic per reference.
  void build_sketches(int sketch_len,
                      util::ThreadPool* pool = &util::ThreadPool::global());

  /// Installs a deserialized sketch table (index_io, format v4). The table
  /// must hold exactly n_refs × sketch_len values; throws otherwise.
  void set_sketches(int sketch_len, std::vector<std::uint64_t> table);

  [[nodiscard]] int sketch_len() const { return sketch_len_; }
  [[nodiscard]] const std::vector<std::uint64_t>& sketches() const {
    return sketches_;
  }
  /// Sketch of reference `id` (sketch_len() consecutive slots); only valid
  /// when sketch_len() > 0.
  [[nodiscard]] const std::uint64_t* sketch(Index id) const {
    return sketches_.data() +
           static_cast<std::size_t>(id) * static_cast<std::size_t>(sketch_len_);
  }
  /// Slot-wise match count of two sketches of equal length.
  [[nodiscard]] static int sketch_overlap(const std::uint64_t* a,
                                          const std::uint64_t* b,
                                          int sketch_len);

  [[nodiscard]] std::uint64_t nnz() const;
  /// Logical bytes of the index on the simulated machine: the postings
  /// shards plus the reference residues (both are needed to serve).
  [[nodiscard]] std::uint64_t bytes() const;
  /// Per-shard postings bytes — the load vector a ShardPlacement balances.
  [[nodiscard]] std::vector<std::uint64_t> shard_bytes() const;

  /// Modeled one-time construction cost on `nprocs` ranks: every rank
  /// streams its share of the references and assembles/ships its shard
  /// slice (the same accounting as the pipeline's k-mer matrix + transpose
  /// setup it replaces).
  [[nodiscard]] double modeled_build_seconds(const sim::MachineModel& model,
                                             int nprocs) const;

  /// Deep equality (params, references, shard contents) — the round-trip
  /// property index_io's tests assert.
  friend bool operator==(const KmerIndex& a, const KmerIndex& b) {
    return a.params_ == b.params_ && a.kmer_space_ == b.kmer_space_ &&
           a.refs_ == b.refs_ && a.shards_ == b.shards_ &&
           a.sketch_len_ == b.sketch_len_ && a.sketches_ == b.sketches_;
  }

 private:
  IndexParams params_;
  Index kmer_space_ = 0;
  std::vector<std::string> refs_;
  std::uint64_t ref_residues_ = 0;
  std::vector<sparse::SpMat<KmerPos>> shards_;
  /// Optional minhash table: n_refs × sketch_len_ slots, row-major.
  int sketch_len_ = 0;
  std::vector<std::uint64_t> sketches_;
};

}  // namespace pastis::index
