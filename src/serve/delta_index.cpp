#include "serve/delta_index.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "exec/stream_pipeline.hpp"

namespace pastis::serve {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void check_segment_compatible(const index::KmerIndex& base,
                              const index::KmerIndex& seg) {
  if (!(seg.params() == base.params())) {
    throw std::invalid_argument(
        "DeltaIndex: segment discovery params do not match the base");
  }
  if (seg.n_shards() != base.n_shards()) {
    throw std::invalid_argument(
        "DeltaIndex: segment shard count does not match the base");
  }
  if (seg.kmer_space() != base.kmer_space()) {
    throw std::invalid_argument(
        "DeltaIndex: segment k-mer space does not match the base");
  }
}

}  // namespace

DeltaIndex::DeltaIndex(index::KmerIndex base, core::PastisConfig cfg,
                       std::vector<index::KmerIndex> segments)
    : base_(std::move(base)), cfg_(std::move(cfg)),
      segments_(std::move(segments)) {
  if (!base_.params().matches(cfg_)) {
    throw std::invalid_argument(
        "DeltaIndex: config discovery params do not match the base index");
  }
  for (const auto& seg : segments_) check_segment_compatible(base_, seg);
  rebuild_ref_bases();
  epoch_ = segments_.size();  // restored segments count as applied epochs
}

void DeltaIndex::rebuild_ref_bases() {
  ref_bases_.clear();
  ref_bases_.reserve(segments_.size());
  sparse::Index next = base_.n_refs();
  for (const auto& seg : segments_) {
    ref_bases_.push_back(next);
    next += seg.n_refs();
  }
}

sparse::Index DeltaIndex::total_refs() const {
  sparse::Index n = base_.n_refs();
  for (const auto& seg : segments_) n += seg.n_refs();
  return n;
}

std::string_view DeltaIndex::ref(sparse::Index id) const {
  if (id < base_.n_refs()) return base_.ref(id);
  for (std::size_t g = 0; g < segments_.size(); ++g) {
    const sparse::Index b = ref_bases_[g];
    if (id < b + segments_[g].n_refs()) return segments_[g].ref(id - b);
  }
  throw std::out_of_range("DeltaIndex::ref: id out of range");
}

std::uint64_t DeltaIndex::delta_bytes() const {
  std::uint64_t b = 0;
  for (const auto& seg : segments_) b += seg.bytes();
  return b;
}

std::vector<std::uint64_t> DeltaIndex::shard_total_bytes() const {
  std::vector<std::uint64_t> out = base_.shard_bytes();
  for (const auto& seg : segments_) {
    const auto sb = seg.shard_bytes();
    for (std::size_t s = 0; s < out.size(); ++s) out[s] += sb[s];
  }
  return out;
}

AddStats DeltaIndex::add_references(std::vector<std::string> refs,
                                    util::ThreadPool* pool) {
  if (refs.empty()) {
    throw std::invalid_argument("DeltaIndex::add_references: empty set");
  }
  const auto t0 = Clock::now();
  auto seg =
      index::KmerIndex::build(std::move(refs), cfg_, base_.n_shards(), pool);
  AddStats st;
  st.refs_added = seg.n_refs();
  st.segment_nnz = seg.nnz();
  st.segment_bytes = seg.bytes();
  ref_bases_.push_back(total_refs());
  segments_.push_back(std::move(seg));
  ++epoch_;
  st.epoch = epoch_;
  st.build_wall_seconds = seconds_since(t0);
  return st;
}

bool DeltaIndex::compaction_due(double trigger_ratio) const {
  if (trigger_ratio <= 0.0 || segments_.empty()) return false;
  return static_cast<double>(delta_bytes()) >=
         trigger_ratio * static_cast<double>(base_.bytes());
}

CompactionStats DeltaIndex::compact(const sim::MachineModel& model,
                                    util::ThreadPool* pool) {
  CompactionStats st;
  if (segments_.empty()) return st;
  const auto t0 = Clock::now();
  const int n_shards = base_.n_shards();
  st.segments_merged = segments_.size();
  st.shard_modeled_seconds.assign(static_cast<std::size_t>(n_shards), 0.0);

  std::vector<sparse::SpMat<index::KmerPos>> merged(
      static_cast<std::size_t>(n_shards));

  exec::StreamPipeline* pipe_ptr = nullptr;

  // Stage "merge": the base stripe and every segment stripe of one shard
  // side by side. Every source covers the shard's k-mer rows, and segment
  // g's columns land at its ref base (the widths before it): disjoint
  // columns, so the stack is the from-scratch KmerIndex::build stripe.
  exec::Stage merge_stage{
      "merge", [&](std::size_t item, std::size_t) {
        const int s = static_cast<int>(item);
        std::vector<const sparse::SpMat<index::KmerPos>*> parts{
            &base_.shard(s)};
        for (const auto& seg : segments_) parts.push_back(&seg.shard(s));
        merged[item] = sparse::hstack(parts);
        if (pipe_ptr != nullptr) {
          pipe_ptr->set_resident_bytes(item, merged[item].bytes());
        }
      }};

  // Stage "install": serial in-order accounting (retirement order is the
  // executor's guarantee, so the shared stats need no lock).
  std::uint64_t bytes_in = 0, bytes_out = 0, postings = 0;
  exec::Stage install_stage{
      "install", [&](std::size_t item, std::size_t) {
        const int s = static_cast<int>(item);
        std::uint64_t in = base_.shard(s).bytes();
        std::uint64_t delta_nnz = 0;
        for (const auto& seg : segments_) {
          in += seg.shard(s).bytes();
          delta_nnz += seg.shard(s).nnz();
        }
        const std::uint64_t out = merged[item].bytes();
        bytes_in += in;
        bytes_out += out;
        postings += delta_nnz;
        st.shard_modeled_seconds[item] = model.sparse_stream_time(in + out);
      }};

  exec::StreamOptions sopt;
  sopt.depth = std::max(1, cfg_.pipeline_depth);
  sopt.memory_budget_bytes = cfg_.exec_memory_budget_bytes;
  sopt.pool = pool;
  sopt.telemetry = cfg_.telemetry;
  sopt.trace_prefix = "compact";
  exec::StreamPipeline pipe(static_cast<std::size_t>(n_shards),
                            {merge_stage, install_stage}, sopt);
  pipe_ptr = &pipe;
  pipe.run();

  // Swap the merged stripes in without moving base_ itself: the engine
  // holds &base_, which must stay valid across compactions.
  std::vector<std::string> all_refs = base_.refs();
  all_refs.reserve(total_refs());
  for (auto& seg : segments_) {
    for (const auto& r : seg.refs()) all_refs.push_back(r);
  }
  base_ = index::KmerIndex::from_parts(base_.params(), n_shards,
                                       std::move(all_refs), std::move(merged));
  segments_.clear();
  rebuild_ref_bases();

  st.postings_merged = postings;
  st.bytes_in = bytes_in;
  st.bytes_out = bytes_out;
  st.wall_seconds = seconds_since(t0);
  return st;
}

}  // namespace pastis::serve
