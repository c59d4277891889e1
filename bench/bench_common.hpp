// Shared harness code for the paper-reproduction benches.
//
// Every bench binary:
//   * runs with defaults sized for tens of seconds on a laptop and accepts
//     --key=value flags to scale up (--seqs, --seed, ...);
//   * prints the paper artifact's rows/series as a text table;
//   * ends with a "shape-check" section asserting the *qualitative* claims
//     of the paper (who wins, growth direction, rough factors). Checks
//     print [shape OK]/[shape WARN] and never abort: the point is a
//     readable comparison, recorded in EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "pastis.hpp"

namespace pastis::bench {

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg] = "1";
      } else {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
  }

  [[nodiscard]] long i(const std::string& key, long def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : std::atol(it->second.c_str());
  }
  [[nodiscard]] double d(const std::string& key, double def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : std::atof(it->second.c_str());
  }
  [[nodiscard]] std::string s(const std::string& key,
                              const std::string& def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) != 0;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// The validation dataset family used across benches (a scaled Metaclust
/// stand-in; see gen/protein_gen.hpp for what it preserves).
inline gen::Dataset make_dataset(std::uint32_t n, std::uint64_t seed = 7,
                                 double mean_length = 250.0) {
  gen::GenConfig g;
  g.n_sequences = n;
  g.seed = seed;
  g.mean_length = mean_length;
  g.max_length = 2000;
  g.mean_family_size = 12;       // metagenome-like candidate density
  g.low_complexity_prob = 0.3;   // repeat-driven false candidates
  g.low_complexity_motifs = 16;
  g.shuffle_order = true;        // inputs are never family-sorted
  return gen::generate_proteins(g);
}

/// Most-square factorisation br x bc of a block count (used to sweep the
/// paper's "number of blocks" axis: the production run's 400 blocks were a
/// 20x20 blocking).
inline std::pair<int, int> factor_blocks(int blocks) {
  int best_r = 1;
  for (int r = 1; r * r <= blocks; ++r) {
    if (blocks % r == 0) best_r = r;
  }
  return {blocks / best_r, best_r};
}

/// Shape-check bookkeeping.
class ShapeChecks {
 public:
  void check(bool ok, const std::string& what) {
    std::printf("[shape %s] %s\n", ok ? "OK  " : "WARN", what.c_str());
    ++total_;
    ok_ += ok ? 1 : 0;
  }
  void summary() const {
    std::printf("shape checks: %d/%d hold\n", ok_, total_);
  }
  [[nodiscard]] bool all_hold() const { return ok_ == total_; }

 private:
  int ok_ = 0;
  int total_ = 0;
};

/// The machine model for a bench that scales a paper experiment down: the
/// paper ran `paper_seqs`, we run `our_seqs`; work scales quadratically.
inline sim::MachineModel scaled_model(double paper_seqs, double our_seqs) {
  const double ratio = paper_seqs / our_seqs;
  return sim::MachineModel::summit_scaled(ratio * ratio, ratio);
}

/// One fully-configured search run.
inline core::SearchResult run_search(const std::vector<std::string>& seqs,
                                     core::PastisConfig cfg, int nprocs,
                                     sim::MachineModel model = {}) {
  core::SimilaritySearch search(cfg, model, nprocs);
  return search.run(seqs);
}

inline std::string f2(double v) { return util::fixed(v, 2); }
inline std::string f4(double v) { return util::fixed(v, 4); }

/// Default location for bench/example artifacts: a gitignored out/
/// directory next to the working directory (created on demand), so runs
/// never strew JSON/TSV files over the repo root.
inline std::string out_path(const std::string& name) {
  std::filesystem::create_directories("out");
  return (std::filesystem::path("out") / name).string();
}

/// Caller-owned telemetry sinks for one bench run, with the standard
/// artifact emission: METRICS_<tag>.json (pastis.metrics.v1) and
/// TRACE_<tag>.json (Chrome trace-event format, chrome://tracing /
/// Perfetto) under out/. Wire `telemetry()` into PastisConfig::telemetry
/// (or the per-layer options) before the run and call write_artifacts()
/// after it.
class BenchTelemetry {
 public:
  explicit BenchTelemetry(std::string tag) : tag_(std::move(tag)) {}

  [[nodiscard]] obs::Telemetry telemetry() {
    return obs::Telemetry{&metrics_, &tracer_};
  }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] obs::Tracer& tracer() { return tracer_; }

  void write_artifacts() {
    const std::string mpath = out_path("METRICS_" + tag_ + ".json");
    const std::string tpath = out_path("TRACE_" + tag_ + ".json");
    metrics_.write_json(mpath);
    tracer_.write(tpath);
    std::printf("telemetry: %s (%zu trace events), %s\n", tpath.c_str(),
                tracer_.event_count(), mpath.c_str());
  }

 private:
  std::string tag_;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
};

}  // namespace pastis::bench
