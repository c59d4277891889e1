#include "obs/trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"

namespace pastis::obs {

namespace {

/// Trace-event `ts` and `dur` must be numbers: non-finite values export as 0.
void append_number(std::ostringstream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  std::ostringstream n;
  n.precision(17);
  n << v;
  os << n.str();
}

}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::thread_track() {
  // Caller holds mutex_.
  const auto id = std::this_thread::get_id();
  const auto it = thread_ids_.find(id);
  if (it != thread_ids_.end()) return it->second;
  const int track = static_cast<int>(thread_ids_.size());
  thread_ids_.emplace(id, track);
  return track;
}

void Tracer::record_measured(std::string name, double ts_us, double dur_us,
                             std::vector<TraceArg> args) {
  std::lock_guard lock(mutex_);
  events_.push_back({std::move(name), kMeasuredPid, thread_track(), ts_us,
                     dur_us, std::move(args)});
}

void Tracer::record_modeled(std::string name, int rank, double t0_s,
                            double t1_s, std::vector<TraceArg> args) {
  const double ts_us = t0_s * 1e6;
  const double dur_us = (t1_s - t0_s) * 1e6;
  std::lock_guard lock(mutex_);
  events_.push_back(
      {std::move(name), kModeledPid, rank, ts_us, dur_us, std::move(args)});
  max_rank_track_ = std::max(max_rank_track_, rank);
  modeled_end_us_ = std::max(modeled_end_us_, ts_us + dur_us);
}

std::size_t Tracer::event_count() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

double Tracer::modeled_end_seconds() const {
  std::lock_guard lock(mutex_);
  return modeled_end_us_ / 1e6;
}

std::string Tracer::to_json() const {
  std::lock_guard lock(mutex_);
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";

  bool first = true;
  const auto meta = [&](int pid, int tid, const char* what,
                        const std::string& value) {
    os << (first ? "" : ",\n");
    first = false;
    os << "{\"name\": \"" << what << "\", \"ph\": \"M\", \"pid\": " << pid;
    if (tid >= 0) os << ", \"tid\": " << tid;
    os << ", \"args\": {\"name\": ";
    append_json_string(os, value);
    os << "}}";
  };
  meta(kMeasuredPid, -1, "process_name", "measured (host threads)");
  meta(kModeledPid, -1, "process_name", "modeled (simulated ranks)");
  for (const auto& [id, track] : thread_ids_) {
    (void)id;
    meta(kMeasuredPid, track, "thread_name",
         "host thread " + std::to_string(track));
  }
  for (int r = 0; r <= max_rank_track_; ++r) {
    meta(kModeledPid, r, "thread_name", "rank " + std::to_string(r));
  }

  for (const auto& e : events_) {
    os << (first ? "" : ",\n");
    first = false;
    os << "{\"name\": ";
    append_json_string(os, e.name);
    os << ", \"ph\": \"X\", \"cat\": "
       << (e.pid == kMeasuredPid ? "\"measured\"" : "\"modeled\"")
       << ", \"pid\": " << e.pid << ", \"tid\": " << e.tid << ", \"ts\": ";
    append_number(os, e.ts_us);
    os << ", \"dur\": ";
    append_number(os, e.dur_us);
    if (!e.args.empty()) {
      os << ", \"args\": {";
      for (std::size_t a = 0; a < e.args.size(); ++a) {
        if (a > 0) os << ", ";
        append_json_string(os, e.args[a].key);
        os << ": ";
        append_number(os, e.args[a].value);
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
  return os.str();
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << to_json();
}

}  // namespace pastis::obs
