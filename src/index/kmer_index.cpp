#include "index/kmer_index.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/kmer_matrix.hpp"
#include "kmer/codec.hpp"
#include "kmer/extract.hpp"
#include "sim/grid.hpp"
#include "util/rng.hpp"

namespace pastis::index {

Index KmerIndex::shard_begin(int s) const {
  return sim::ProcGrid::split_point(kmer_space_, n_shards(), s);
}

std::uint64_t KmerIndex::nnz() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s.nnz();
  return total;
}

std::uint64_t KmerIndex::bytes() const {
  std::uint64_t total = ref_residues_;
  for (const auto& s : shards_) total += s.bytes();
  total += sketches_.size() * sizeof(std::uint64_t);
  return total;
}

std::vector<std::uint64_t> KmerIndex::shard_bytes() const {
  std::vector<std::uint64_t> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) out.push_back(s.bytes());
  return out;
}

double KmerIndex::modeled_build_seconds(const sim::MachineModel& model,
                                        int nprocs) const {
  const auto p = static_cast<std::uint64_t>(nprocs);
  std::uint64_t shard_bytes = 0;
  for (const auto& s : shards_) shard_bytes += s.bytes();
  // Per rank: stream its reference share during extraction, stream its
  // shard slice twice during assembly (scatter + build), ship it once.
  return model.sparse_stream_time((ref_residues_ + 2 * shard_bytes) / p) +
         model.p2p_time(shard_bytes / p);
}

namespace {

/// Slot seeds are a fixed splitmix64 stream — sketches are a persisted
/// format (index v4), so these must never change.
std::uint64_t sketch_slot_seed(int slot) {
  return util::splitmix64(0x736b65746368ULL + static_cast<std::uint64_t>(slot));
}

}  // namespace

std::vector<std::uint64_t> KmerIndex::sketch_of(std::string_view seq,
                                                const kmer::Alphabet& alphabet,
                                                const kmer::KmerCodec& codec,
                                                int sketch_len) {
  std::vector<std::uint64_t> out(
      static_cast<std::size_t>(std::max(0, sketch_len)),
      ~std::uint64_t{0});
  // Every window, repeats included: a slot's minimum over them is its
  // minimum over the distinct codes.
  for (const auto& h : kmer::extract_kmers(seq, alphabet, codec)) {
    for (int j = 0; j < sketch_len; ++j) {
      const auto v = util::splitmix64(h.code ^ sketch_slot_seed(j));
      auto& slot = out[static_cast<std::size_t>(j)];
      if (v < slot) slot = v;
    }
  }
  return out;
}

int KmerIndex::sketch_overlap(const std::uint64_t* a, const std::uint64_t* b,
                              int sketch_len) {
  int n = 0;
  for (int j = 0; j < sketch_len; ++j) n += (a[j] == b[j]) ? 1 : 0;
  return n;
}

void KmerIndex::build_sketches(int sketch_len, util::ThreadPool* pool) {
  if (sketch_len <= 0) {
    sketch_len_ = 0;
    sketches_.clear();
    return;
  }
  sketch_len_ = sketch_len;
  const auto n = static_cast<std::size_t>(n_refs());
  sketches_.assign(n * static_cast<std::size_t>(sketch_len), 0);
  const kmer::Alphabet alphabet(params_.alphabet);
  const kmer::KmerCodec codec(alphabet.size(), params_.k);
  auto sketch_one = [&](std::size_t i) {
    const auto s = sketch_of(refs_[i], alphabet, codec, sketch_len);
    std::copy(s.begin(), s.end(),
              sketches_.begin() +
                  static_cast<std::ptrdiff_t>(i * std::size_t(sketch_len)));
  };
  util::parallel_for(pool, n, sketch_one);
}

void KmerIndex::set_sketches(int sketch_len, std::vector<std::uint64_t> table) {
  if (sketch_len < 0 ||
      table.size() != static_cast<std::size_t>(n_refs()) *
                          static_cast<std::size_t>(sketch_len)) {
    throw std::invalid_argument(
        "KmerIndex::set_sketches: table size != n_refs * sketch_len");
  }
  sketch_len_ = sketch_len;
  sketches_ = std::move(table);
}

KmerIndex KmerIndex::build(std::vector<std::string> refs,
                           const core::PastisConfig& cfg, int n_shards,
                           util::ThreadPool* pool) {
  const std::array<Index, 2> ref_bounds{0, static_cast<Index>(refs.size())};
  auto shards = core::kmer_matrix_blocks(
      ref_bounds, [&](Index i) { return std::string_view(refs[i]); },
      n_shards, /*transposed=*/true, cfg, pool);
  return from_parts(IndexParams::from_config(cfg), n_shards, std::move(refs),
                    std::move(shards));
}

KmerIndex KmerIndex::from_parts(IndexParams params, int n_shards,
                                std::vector<std::string> refs,
                                std::vector<sparse::SpMat<KmerPos>> shards) {
  if (n_shards < 1 || shards.size() != static_cast<std::size_t>(n_shards)) {
    throw std::invalid_argument("KmerIndex::from_parts: shard count mismatch");
  }
  KmerIndex idx;
  idx.params_ = params;
  const kmer::Alphabet alphabet(params.alphabet);
  const kmer::KmerCodec codec(alphabet.size(), params.k);
  idx.kmer_space_ = static_cast<Index>(codec.space());
  idx.refs_ = std::move(refs);
  for (const auto& s : idx.refs_) idx.ref_residues_ += s.size();
  idx.shards_ = std::move(shards);
  for (int s = 0; s < n_shards; ++s) {
    const auto& m = idx.shards_[static_cast<std::size_t>(s)];
    if (m.nrows() != idx.shard_begin(s + 1) - idx.shard_begin(s) ||
        m.ncols() != idx.n_refs()) {
      throw std::invalid_argument("KmerIndex::from_parts: shard shape mismatch");
    }
  }
  return idx;
}

}  // namespace pastis::index
