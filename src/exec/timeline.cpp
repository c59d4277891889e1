#include "exec/timeline.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/trace.hpp"

namespace pastis::exec {

OverlapTimeline::OverlapTimeline(int nranks, int depth)
    : nranks_(nranks), depth_(std::max(1, depth)) {
  const auto n = static_cast<std::size_t>(nranks_);
  if (depth_ == 1) {
    serial_.assign(n, 0.0);
  } else {
    disc_end_.assign(n, 0.0);
    align_end_.assign(n * static_cast<std::size_t>(depth_), 0.0);
  }
  last_disc_begin_.assign(n, 0.0);
  last_disc_end_.assign(n, 0.0);
}

void OverlapTimeline::set_tracer(obs::Tracer* tracer,
                                 std::string span_prefix) {
  tracer_ = tracer;
  span_prefix_ = std::move(span_prefix);
}

void OverlapTimeline::add(std::span<const double> sparse_s,
                          std::span<const double> align_s) {
  assert(sparse_s.size() == static_cast<std::size_t>(nranks_));
  assert(align_s.size() == static_cast<std::size_t>(nranks_));
  const std::size_t b = items_;
  const auto emit = [&](int rank, double disc_begin, double disc_end,
                        double align_begin, double align_end) {
    if (tracer_ == nullptr) return;
    const double item = static_cast<double>(b);
    tracer_->record_modeled(span_prefix_ + "discover", rank, disc_begin,
                            disc_end, {{"item", item}});
    tracer_->record_modeled(span_prefix_ + "align", rank, align_begin,
                            align_end, {{"item", item}});
  };
  for (int r = 0; r < nranks_; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    if (depth_ == 1) {
      // Accumulated exactly like the serial loop's own timer: += S + A.
      const double disc_begin = serial_[ri];
      serial_[ri] += sparse_s[ri] + align_s[ri];
      last_disc_begin_[ri] = disc_begin;
      last_disc_end_[ri] = disc_begin + sparse_s[ri];
      emit(r, disc_begin, disc_begin + sparse_s[ri],
           disc_begin + sparse_s[ri], serial_[ri]);
      continue;
    }
    const auto d = static_cast<std::size_t>(depth_);
    auto ring = [&](std::size_t item) -> double& {
      return align_end_[ri * d + item % d];
    };
    const double prev_align = b > 0 ? ring(b - 1) : 0.0;
    const double gate = b >= d ? ring(b - d) : 0.0;
    const double disc_begin = std::max(disc_end_[ri], gate);
    const double disc = disc_begin + sparse_s[ri];
    const double align_begin = std::max(disc, prev_align);
    const double align = align_begin + align_s[ri];
    disc_end_[ri] = disc;
    ring(b) = align;
    last_disc_begin_[ri] = disc_begin;
    last_disc_end_[ri] = disc;
    emit(r, disc_begin, disc, align_begin, align);
  }
  ++items_;
}

std::pair<double, double> OverlapTimeline::last_disc_interval(int rank) const {
  const auto ri = static_cast<std::size_t>(rank);
  return {last_disc_begin_[ri], last_disc_end_[ri]};
}

double OverlapTimeline::makespan(int rank) const {
  if (items_ == 0) return 0.0;
  const auto ri = static_cast<std::size_t>(rank);
  if (depth_ == 1) return serial_[ri];
  const auto d = static_cast<std::size_t>(depth_);
  return align_end_[ri * d + (items_ - 1) % d];
}

double OverlapTimeline::max_makespan() const {
  double m = 0.0;
  for (int r = 0; r < nranks_; ++r) m = std::max(m, makespan(r));
  return m;
}

std::vector<double> OverlapTimeline::makespans() const {
  std::vector<double> out(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) out[static_cast<std::size_t>(r)] = makespan(r);
  return out;
}

double pipelined_makespan(std::span<const double> sparse_s,
                          std::span<const double> align_s, int depth) {
  OverlapTimeline t(1, depth);
  for (std::size_t b = 0; b < sparse_s.size(); ++b) {
    t.add({&sparse_s[b], 1}, {&align_s[b], 1});
  }
  return t.makespan(0);
}

ResidentWindow::ResidentWindow(int nranks, int depth)
    : nranks_(nranks), depth_(std::max(1, depth)) {
  const auto n = static_cast<std::size_t>(nranks_);
  ring_.assign(n * static_cast<std::size_t>(depth_), 0);
  sum_.assign(n, 0);
  peak_.assign(n, 0);
}

void ResidentWindow::add(std::span<const std::uint64_t> bytes) {
  assert(bytes.size() == static_cast<std::size_t>(nranks_));
  const auto d = static_cast<std::size_t>(depth_);
  for (int r = 0; r < nranks_; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    auto& cell = ring_[ri * d + items_ % d];
    sum_[ri] += bytes[ri] - cell;  // evict the block leaving the window
    cell = bytes[ri];
    peak_[ri] = std::max(peak_[ri], sum_[ri]);
  }
  ++items_;
}

std::uint64_t ResidentWindow::peak(int rank) const {
  return peak_[static_cast<std::size_t>(rank)];
}

}  // namespace pastis::exec
