// bench_e2e — the measured end-to-end and per-layer benchmark.
//
// One process runs one workload on a single util::ThreadPool of 4 threads
// with 4 simulated ranks, as a closed loop: one client sends the next
// operation only after the previous one returned. Two modes:
//
//   end-to-end (default)  operations run through the library's public
//                         entry points, telemetry off, for --seconds, then
//                         repetitions of the set-up are timed. Prints
//                         set-up time (median), operation latency p50/p90,
//                         throughput and peak RSS.
//   traced (--traced)     a fixed prefix of the workload runs untraced,
//                         then is replayed layer by layer: each layer's
//                         public function is called in turn under a
//                         bench-side obs::Span, which gives per-layer wall
//                         time and work counters. The replay must produce
//                         the output and the deterministic counters of the
//                         untraced run (the work agreement check), so the
//                         per-layer numbers describe the same work.
//
// Both modes check outputs: an input served twice gives the same output,
// structural invariants hold, and in end-to-end mode the layer replay of a
// prefix is an oracle the public entry point must match bit for bit.
// run.py compares the printed digest with the one recorded for the
// reference seeds.
//
// Output, one item per line, parsed by run.py:
//   metric <name> <value> <unit>
//   attempted <n> / failed <n> / samples <n>
//   digest <16 hex digits>
//   check <name> ok|FAIL [detail]
#include <malloc.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "pastis.hpp"

using namespace pastis;
namespace fs = std::filesystem;

namespace {

using sparse::Index;

constexpr std::size_t kThreads = 4;
constexpr int kRanks = 4;
// Set-ups timed per run; setup_s is their median.
constexpr int kSetupReps = 15;

// ---------------------------------------------------------------------------
// Command line, reporting and measurement helpers
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool traced = false;
  double scale = 1.0;    // input-size factor; run.py --smoke passes 0.125
  std::string work_dir;  // generated input files, removed on exit
  std::string out_dir;   // trace artifacts
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--traced") {
      o.traced = true;
    } else if (key == "--scale") {
      o.scale = std::stod(val);
    } else if (key == "--work-dir") {
      o.work_dir = val;
    } else if (key == "--out-dir") {
      o.out_dir = val;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (o.workload.empty() || o.work_dir.empty() || o.out_dir.empty()) {
    throw std::invalid_argument(
        "--workload, --work-dir and --out-dir are required");
  }
  if (!(o.seconds > 0.0) || !(o.scale > 0.0 && o.scale <= 1.0)) {
    throw std::invalid_argument("need --seconds > 0 and --scale in (0, 1]");
  }
  return o;
}

/// Set-ups a run times: kSetupReps at full scale, fewer in a smoke run,
/// none in a traced run.
int setup_reps(const Options& o) {
  if (o.traced) return 0;
  return std::max(3, static_cast<int>(std::lround(kSetupReps * o.scale)));
}

/// 64-bit FNV-1a over the canonical fields of an output.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const std::vector<io::SimilarityEdge>& edges) {
    add(edges.size());
    for (const auto& e : edges) {
      add(e.seq_a);
      add(e.seq_b);
      add(std::bit_cast<std::uint32_t>(e.ani));
      add(std::bit_cast<std::uint32_t>(e.cov));
      add(static_cast<std::uint32_t>(e.score));
    }
  }
  void add(const cluster::Clustering& c) {
    add(c.assignment.size());
    for (const auto a : c.assignment) add(a);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Everything one run reports.
class Outcome {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    std::printf("metric %s %.17g %s\n", name.c_str(), value, unit.c_str());
  }
  void check(const std::string& name, bool ok, const std::string& detail = "") {
    std::printf("check %s %s%s%s\n", name.c_str(), ok ? "ok" : "FAIL",
                detail.empty() ? "" : " ", detail.c_str());
    all_ok_ = all_ok_ && ok;
  }
  /// Agreement of a replayed counter with the public entry point's.
  void agree(const std::string& what, double replay, double untraced) {
    check("agree." + what, replay == untraced,
          std::to_string(replay) + " vs " + std::to_string(untraced));
  }
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  Digest& digest() { return digest_; }

  /// Prints the totals; returns whether the run is correct.
  bool finish(bool with_digest) {
    std::printf("attempted %" PRIu64 "\nfailed %" PRIu64 "\n", attempted_,
                failed_);
    if (with_digest) std::printf("digest %016" PRIx64 "\n", digest_.value());
    return all_ok_ && failed_ == 0 && attempted_ > 0;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool all_ok_ = true;
  Digest digest_;
};

/// Runs one operation. It fails when it throws or when `op` reports a
/// wrong output.
template <typename Op>
void attempt(Outcome& out, Op&& op) {
  try {
    out.attempt(op());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "operation failed: %s\n", e.what());
    out.attempt(false);
  }
}

/// Linear interpolation between the closest ranks.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Peak resident set of the process since the last reset_peak_rss(), in
/// MiB: VmHWM of /proc/self/status.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

/// Resets the process's peak resident set to its current resident set.
void reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr || std::fputs("5", f) < 0 || std::fclose(f) != 0) {
    throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
  }
}

/// One closed-loop measurement window: operation latencies and the
/// process's peak resident set over the operations, then the set-up time.
///
/// `setup` builds a throw-away copy of what the workload's set-up builds
/// and `release` frees it; close() times `setup_reps` of them after the
/// operations, each after 0.2 s idle. Run back to back, warm, set-ups
/// switch between two speeds about 2x apart every few seconds on a shared
/// host, so the median of a run follows whichever speed held; started from
/// idle, as a process's one set-up is, they agree from run to run.
class Window {
 public:
  std::vector<double> latency_s;  // per measured operation
  double busy_s = 0.0;            // every operation, mutations included
  std::uint64_t items = 0;        // sequences, queries or vertices done

  Window(double seconds, int setup_reps, std::function<void()> setup,
         std::function<void()> release)
      : seconds_(seconds), setup_reps_(setup_reps), setup_(std::move(setup)),
        release_(std::move(release)) {
    // Hand the heap pages that input generation freed back to the kernel
    // first, so the peak starts from what is live.
    malloc_trim(0);
    reset_peak_rss();
  }

  /// Whether the window's seconds are still running.
  [[nodiscard]] bool open() const { return clock_.seconds() < seconds_; }

  /// Closed loop: op(i) for i = 0, 1, ... while the window is open and
  /// until at least `min_ops` operations ran.
  template <typename Op>
  void run(std::size_t min_ops, Op&& op) {
    for (std::size_t i = 0; i < min_ops || open(); ++i) op(i);
  }

  /// Ends the window before any post-window check runs: reads the peak
  /// resident set, then times the set-ups.
  void close() {
    peak_mb_ = peak_rss_mb();
    for (int r = 0; r < setup_reps_; ++r) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      const util::Timer t;
      setup_();
      setup_s_.push_back(t.seconds());
      release_();
    }
  }

  void report(Outcome& out) const {
    out.metric("setup_s", percentile(setup_s_, 0.5), "s");
    out.metric("latency_p50_ms", 1e3 * percentile(latency_s, 0.5), "ms");
    out.metric("latency_p90_ms", 1e3 * percentile(latency_s, 0.9), "ms");
    out.metric("throughput_per_s",
               busy_s > 0.0 ? static_cast<double>(items) / busy_s : 0.0,
               "1/s");
    out.metric("peak_rss_mb", peak_mb_, "MiB");
    std::printf("samples %zu\n", latency_s.size());
  }

 private:
  const util::Timer clock_;
  double seconds_;
  int setup_reps_;
  std::function<void()> setup_;
  std::function<void()> release_;
  std::vector<double> setup_s_;
  double peak_mb_ = 0.0;
};

/// Per-layer wall time and work counters of the traced replay. Each layer
/// call runs under an obs::Span (the Chrome trace) and adds its duration
/// to the layer's total. A null tracer still times, without spans.
class Ledger {
 public:
  explicit Ledger(obs::Tracer* tracer) : tracer_(tracer) {}

  template <typename Fn>
  void time(const std::string& layer, Fn&& fn) {
    const obs::Span span(tracer_, layer);
    const util::Timer t;
    fn();
    seconds_[layer] += t.seconds();
  }
  void add(const std::string& counter, double v) { counts_[counter] += v; }

  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }
  [[nodiscard]] double seconds(const std::string& layer) const {
    const auto it = seconds_.find(layer);
    return it == seconds_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double count(const std::string& counter) const {
    const auto it = counts_.find(counter);
    return it == counts_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, double>& layers() const {
    return seconds_;
  }
  [[nodiscard]] bool has_count(const std::string& counter) const {
    return counts_.count(counter) != 0;
  }

 private:
  obs::Tracer* tracer_;
  std::map<std::string, double> seconds_;
  std::map<std::string, double> counts_;
};

/// Prints the per-layer metrics the replay exercised. run.py reports 0
/// for layers a workload does not call.
void report_layers(Outcome& out, const Ledger& L, double untraced_s,
                   double traced_s) {
  for (const auto& [layer, s] : L.layers()) out.metric(layer + "_s", s, "s");
  for (const char* c :
       {"kmer.nnz", "sparse.products", "sparse.candidates", "core.tasks",
        "align.pairs", "align.cells", "cascade.tier1_cells",
        "cluster.mcl_iterations", "cluster.mcl_products",
        "serve.compactions"}) {
    if (L.has_count(c)) out.metric(c, L.count(c), "count");
  }
  const auto rate = [&](const std::string& name, const std::string& counter,
                        const std::string& layer) {
    if (L.seconds(layer) > 0.0) {
      out.metric(name, L.count(counter) / L.seconds(layer), "1/s");
    }
  };
  rate("kmer.nnz_per_s", "kmer.nnz", "kmer.extract");
  rate("sparse.products_per_s", "sparse.products", "sparse.spgemm");
  rate("align.cells_per_s", "align.cells", "align.batch");
  rate("cascade.tier1_cells_per_s", "cascade.tier1_cells", "cascade.tier1");
  rate("cluster.mcl_products_per_s", "cluster.mcl_products", "cluster.mcl");
  const auto frac = [&](const std::string& name, const std::string& num,
                        const std::string& den) {
    if (L.count(den) > 0.0) {
      out.metric(name, L.count(num) / L.count(den), "ratio");
    }
  };
  frac("core.filter_pass_frac", "core.edges", "align.pairs");
  frac("cascade.tier0_pass_frac", "cascade.tier0_out", "cascade.tier0_in");
  frac("cascade.tier1_pass_frac", "cascade.tier1_out", "cascade.tier1_in");
  frac("serve.cache_hit_frac", "serve.cache_hits", "serve.queries");
  out.metric("trace.overhead_frac", (traced_s - untraced_s) / untraced_s,
             "ratio");
}

void write_trace(const obs::Tracer& tracer, const Options& o) {
  fs::create_directories(o.out_dir);
  tracer.write((fs::path(o.out_dir) / ("TRACE_" + o.workload + ".json"))
                   .string());
}

// ---------------------------------------------------------------------------
// Inputs. Every input derives from --seed; the library sees only the
// generated sequences, queries and graphs.
// ---------------------------------------------------------------------------

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt,
                       std::uint64_t draw = 0) {
  return util::splitmix64(util::splitmix64(util::splitmix64(seed) ^ salt) ^
                          draw);
}

std::uint32_t scaled(std::uint32_t full, double scale, std::uint32_t floor) {
  return std::max(floor, static_cast<std::uint32_t>(
                             std::lround(static_cast<double>(full) * scale)));
}

/// The repository's metagenome-like validation family: Zipf families of
/// mean size 12, gamma lengths around 250, 30% low-complexity repeats,
/// shuffled order.
gen::Dataset generate(std::uint32_t n, std::uint64_t seed) {
  gen::GenConfig g;
  g.n_sequences = n;
  g.seed = seed;
  g.mean_length = 250.0;
  g.max_length = 2000;
  g.mean_family_size = 12;
  g.low_complexity_prob = 0.3;
  g.low_complexity_motifs = 16;
  g.shuffle_order = true;
  return gen::generate_proteins(g);
}

/// Of 25 datasets generated from sub_seed(seed, salt, 0..24), the one of
/// median `size`. Single draws are heavy-tailed in their few largest and
/// longest families: they move the alignment work of a 200-sequence
/// search input several-fold between seeds, and the residues that size a
/// search's k-mer matrix or a reference index less so but visibly. The
/// median of 25 keeps inputs of different seeds at a like size, so a run
/// on another seed measures comparable work.
template <typename Size>
gen::Dataset median_draw(std::uint32_t n, std::uint64_t seed,
                         std::uint64_t salt, const Size& size) {
  constexpr std::uint64_t kDraws = 25;
  std::vector<std::pair<double, std::uint64_t>> sizes;
  for (std::uint64_t t = 0; t < kDraws; ++t) {
    sizes.emplace_back(size(generate(n, sub_seed(seed, salt, t))), t);
  }
  std::nth_element(sizes.begin(), sizes.begin() + kDraws / 2, sizes.end());
  return generate(n, sub_seed(seed, salt, sizes[kDraws / 2].second));
}

/// Σ len_a·len_b over same-family pairs a < b: the full Smith-Waterman
/// cells of the family pairs, most of a full-SW search's alignment work.
double family_cells(const gen::Dataset& d) {
  std::map<std::uint32_t, std::pair<double, double>> fam;  // Σ len, Σ len²
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d.family[i] == gen::Dataset::kBackground) continue;
    const auto len = static_cast<double>(d.seqs[i].size());
    fam[d.family[i]].first += len;
    fam[d.family[i]].second += len * len;
  }
  double cells = 0.0;
  for (const auto& [f, s] : fam) cells += (s.first * s.first - s.second) / 2.0;
  return cells;
}

double residues(const gen::Dataset& d) {
  return static_cast<double>(d.total_residues());
}

void write_sequences(const std::string& path,
                     const std::vector<std::string>& seqs) {
  std::vector<io::FastaRecord> records(seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    records[i].id = "s" + std::to_string(i);
    records[i].seq = seqs[i];
  }
  io::write_fasta(path, records);
}

std::vector<std::string> read_sequences(const std::string& path) {
  std::vector<std::string> seqs;
  for (auto& r : io::read_fasta(path)) seqs.push_back(std::move(r.seq));
  return seqs;
}

/// Structural invariants of a similarity-edge output: strictly increasing
/// (seq_a, seq_b) pairs with seq_a < seq_b, seq_a < a_end and
/// b_begin <= seq_b < b_end, every edge clearing the ANI/coverage filter.
bool valid_edges(const std::vector<io::SimilarityEdge>& edges, Index a_end,
                 Index b_begin, Index b_end, const core::PastisConfig& cfg) {
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto& e = edges[i];
    if (e.seq_a >= e.seq_b || e.seq_a >= a_end || e.seq_b < b_begin ||
        e.seq_b >= b_end) {
      return false;
    }
    if (e.ani < cfg.ani_threshold - 1e-6 || e.cov < cfg.cov_threshold - 1e-6) {
      return false;
    }
    if (i > 0 && std::tie(edges[i - 1].seq_a, edges[i - 1].seq_b) >=
                     std::tie(e.seq_a, e.seq_b)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Layer replay, shared tail: alignment and the edge filter
// ---------------------------------------------------------------------------

/// Every task aligned on the pool one pair per iteration (the flattened
/// schedule the pipeline and the engine use), then the ANI/coverage filter
/// and the canonical sort.
std::vector<io::SimilarityEdge> align_and_filter(
    const std::vector<align::AlignTask>& tasks,
    const align::BatchAligner::SeqAccessor& seq_of,
    const core::PastisConfig& cfg, const align::BatchAligner& aligner,
    util::ThreadPool& pool, Ledger& L) {
  std::vector<align::AlignResult> results(tasks.size());
  L.time("align.batch", [&] {
    pool.parallel_for(tasks.size(), [&](std::size_t t) {
      results[t] = aligner.align_one_task(seq_of, tasks[t]);
    });
  });
  std::uint64_t cells = 0;
  for (const auto& r : results) cells += r.cells;
  L.add("align.pairs", static_cast<double>(tasks.size()));
  L.add("align.cells", static_cast<double>(cells));

  std::vector<io::SimilarityEdge> edges;
  L.time("core.filter", [&] {
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (auto e = core::edge_if_similar(tasks[t], results[t],
                                         seq_of(tasks[t].q_id).size(),
                                         seq_of(tasks[t].r_id).size(), cfg)) {
        edges.push_back(*e);
      }
    }
    io::sort_edges(edges);
  });
  L.add("core.edges", static_cast<double>(edges.size()));
  return edges;
}

// ---------------------------------------------------------------------------
// search_sw / search_subs: SimilaritySearch::run over generated inputs
// ---------------------------------------------------------------------------

struct SearchSpec {
  bool subs = false;           // x-drop alignment + 2 substitute k-mers
  std::uint32_t n_seqs = 0;    // sequences per input
  std::uint32_t n_inputs = 0;  // inputs the closed loop cycles over
};

core::PastisConfig search_config(const SearchSpec& spec) {
  // Table IV defaults (k = 6, common-k-mer threshold 2, BLOSUM62 11/2,
  // ANI 0.30, coverage 0.70, cascade off), 2x2 blocks, depth 2.
  core::PastisConfig cfg;
  cfg.block_rows = 2;
  cfg.block_cols = 2;
  cfg.pipeline_depth = 2;
  if (spec.subs) {
    cfg.align_kind = align::AlignKind::kXDrop;
    cfg.subs_kmers = 2;
  }
  return cfg;
}

/// The discovery half of a search as layer calls: k-mer extraction, A, Aᵀ
/// and the overlap SpGEMM C = A·Aᵀ.
sparse::SpMat<core::CommonKmers> discover_overlaps(
    const std::vector<std::string>& seqs, const core::PastisConfig& cfg,
    util::ThreadPool& pool, Ledger& L) {
  const auto n = static_cast<Index>(seqs.size());
  const kmer::Alphabet alphabet(cfg.alphabet);
  const kmer::KmerCodec codec(alphabet.size(), cfg.k);

  std::vector<std::vector<sparse::Triple<core::KmerPos>>> per_seq(seqs.size());
  L.time("kmer.extract", [&] {
    const kmer::NeighborGenerator neighbors(alphabet, codec,
                                            cfg.make_scoring(),
                                            cfg.subs_max_loss);
    pool.parallel_for(seqs.size(), [&](std::size_t i) {
      (void)core::extract_sequence_kmers(seqs[i], static_cast<Index>(i),
                                         alphabet, codec, neighbors,
                                         cfg.subs_kmers, per_seq[i]);
    });
  });

  sparse::SpMat<core::KmerPos> A;
  L.time("sparse.build", [&] {
    std::vector<sparse::Triple<core::KmerPos>> triples;
    for (auto& v : per_seq) triples.insert(triples.end(), v.begin(), v.end());
    A = sparse::SpMat<core::KmerPos>::from_triples(
        n, static_cast<Index>(codec.space()), std::move(triples),
        [](core::KmerPos& acc, const core::KmerPos& v) {
          core::keep_min_pos(acc, v);
        });
  });
  L.add("kmer.nnz", static_cast<double>(A.nnz()));

  sparse::SpMat<core::KmerPos> At;
  L.time("sparse.transpose", [&] { At = A.transposed(); });

  sparse::SpMat<core::CommonKmers> C;
  sparse::SpGemmStats sst;
  L.time("sparse.spgemm", [&] {
    C = core::discovery_spgemm<core::OverlapSemiring>(A, At, cfg, &sst, &pool);
  });
  L.add("sparse.products", static_cast<double>(sst.products));
  L.add("sparse.candidates", static_cast<double>(C.nnz()));
  return C;
}

/// One search replayed layer by layer: a single unblocked A·Aᵀ with the
/// configured load-balance rule — the output the blocked, streamed
/// pipeline reproduces bit for bit.
std::vector<io::SimilarityEdge> replay_search(
    const std::vector<std::string>& seqs, const core::PastisConfig& cfg,
    const align::BatchAligner& aligner, util::ThreadPool& pool, Ledger& L) {
  const obs::Span op_span(L.tracer(), "search");
  const auto n = static_cast<Index>(seqs.size());
  const sparse::SpMat<core::CommonKmers> C =
      discover_overlaps(seqs, cfg, pool, L);

  std::vector<align::AlignTask> tasks;
  L.time("core.tasks", [&] {
    const core::BlockPlan plan(n, 1, 1, cfg.load_balance);
    const core::BlockInfo& whole = plan.blocks().front();
    C.for_each([&](Index i, Index j, const core::CommonKmers& ck) {
      if (ck.count >= cfg.common_kmer_threshold &&
          plan.should_align(whole, i, j)) {
        tasks.push_back(core::canonical_task(i, j, ck));
      }
    });
  });
  L.add("core.tasks", static_cast<double>(tasks.size()));

  const align::BatchAligner::SeqAccessor seq_of =
      [&](std::uint32_t id) -> std::string_view { return seqs[id]; };
  return align_and_filter(tasks, seq_of, cfg, aligner, pool, L);
}

void run_search(const Options& o, const SearchSpec& spec,
                util::ThreadPool& pool, Outcome& out) {
  const core::PastisConfig cfg = search_config(spec);
  const sim::MachineModel model;
  const align::BatchAligner aligner = core::make_batch_aligner(cfg, model);
  const std::uint32_t n = scaled(spec.n_seqs, o.scale, 64);
  const std::size_t k = scaled(spec.n_inputs, o.scale, 2);
  // Full-SW time follows the family pairs' cells; the discovery-bound
  // substitute search follows the residue count.
  const auto size = [subs = spec.subs](const gen::Dataset& d) {
    return subs ? residues(d) : family_cells(d);
  };
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < k; ++i) {
    paths.push_back(o.work_dir + "/input" + std::to_string(i) + ".fasta");
    write_sequences(paths.back(), median_draw(n, o.seed, i, size).seqs);
  }
  const core::SimilaritySearch search(cfg, model, kRanks, &pool);

  if (o.traced) {
    // Prefix: the first two inputs. Untraced through the entry point...
    const std::size_t prefix = std::min<std::size_t>(2, k);
    std::vector<std::vector<std::string>> inputs;
    for (std::size_t d = 0; d < prefix; ++d) {
      inputs.push_back(read_sequences(paths[d]));
    }
    std::vector<std::vector<io::SimilarityEdge>> want(prefix);
    core::SearchStats sum;
    double untraced_s = 0.0, model_s = 0.0;
    for (std::size_t d = 0; d < prefix; ++d) {
      attempt(out, [&] {
        const util::Timer t;
        core::SearchResult r = search.run(inputs[d]);
        untraced_s += t.seconds();
        model_s += r.stats.t_total;
        sum.kmer_nnz += r.stats.kmer_nnz;
        sum.spgemm.merge(r.stats.spgemm);
        sum.candidates += r.stats.candidates;
        sum.aligned_pairs += r.stats.aligned_pairs;
        sum.align_cells += r.stats.align_cells;
        want[d] = std::move(r.edges);
        return true;
      });
    }
    // ...then replayed layer by layer.
    obs::Tracer tracer;
    Ledger L(&tracer);
    L.time("io.fasta", [&] {
      for (std::size_t d = 0; d < prefix; ++d) {
        inputs[d] = read_sequences(paths[d]);
      }
    });
    const util::Timer t;
    bool same = true;
    for (std::size_t d = 0; d < prefix; ++d) {
      same = replay_search(inputs[d], cfg, aligner, pool, L) == want[d] && same;
    }
    const double traced_s = t.seconds();
    out.check("replay_edges_identical", same);
    out.agree("kmer.nnz", L.count("kmer.nnz"),
              static_cast<double>(sum.kmer_nnz));
    out.agree("sparse.products", L.count("sparse.products"),
              static_cast<double>(sum.spgemm.products));
    out.agree("sparse.candidates", L.count("sparse.candidates"),
              static_cast<double>(sum.candidates));
    out.agree("align.pairs", L.count("align.pairs"),
              static_cast<double>(sum.aligned_pairs));
    out.agree("align.cells", L.count("align.cells"),
              static_cast<double>(sum.align_cells));
    report_layers(out, L, untraced_s, traced_s);
    out.metric("model.search_s", model_s, "s");
    write_trace(tracer, o);
    return;
  }

  // Set-up: parse every input file.
  const auto parse = [&] {
    std::vector<std::vector<std::string>> seqs;
    for (const auto& p : paths) seqs.push_back(read_sequences(p));
    return seqs;
  };
  const std::vector<std::vector<std::string>> inputs = parse();
  std::vector<std::vector<std::string>> probe;
  Window w(o.seconds, setup_reps(o), [&] { probe = parse(); },
           [&] { probe = {}; });
  std::vector<std::vector<io::SimilarityEdge>> first(k);
  std::vector<char> seen(k, 0);
  core::SearchStats stats0;
  bool valid = true;
  w.run(k, [&](std::size_t i) {
    const std::size_t d = i % k;
    attempt(out, [&] {
      const util::Timer t;
      core::SearchResult r = search.run(inputs[d]);
      const double s = t.seconds();
      w.latency_s.push_back(s);
      w.busy_s += s;
      w.items += n;
      if (seen[d] != 0) return r.edges == first[d];
      seen[d] = 1;
      valid = valid && valid_edges(r.edges, n, 0, n, cfg);
      if (d == 0) stats0 = r.stats;
      first[d] = std::move(r.edges);
      return true;
    });
  });
  w.close();
  for (const auto& e : first) out.digest().add(e);
  out.check("edges_valid", valid);

  // Oracle: the layer replay of input 0.
  Ledger L(nullptr);
  out.check("oracle_replay_identical",
            replay_search(inputs[0], cfg, aligner, pool, L) == first[0]);
  out.agree("align.pairs", L.count("align.pairs"),
            static_cast<double>(stats0.aligned_pairs));
  out.agree("align.cells", L.count("align.cells"),
            static_cast<double>(stats0.align_cells));
  w.report(out);
}

// ---------------------------------------------------------------------------
// Serving: traffic, the per-batch layer replay, serve_cascade, serve_mutate
// ---------------------------------------------------------------------------

constexpr char kResidues[] = "ARNDCQEGHILKMFPSTWYV";

/// Query traffic against a reference set. A related query copies one of
/// the 128 references whose query cost lies nearest `target`, with 8%
/// point substitutions; a decoy is a random sequence of 120-319 residues.
/// A reference's query cost is the alignment work a copy of it meets: its
/// row of the reference set's own overlap matrix (family members and
/// low-complexity look-alikes), summed over candidates at the common-k-mer
/// threshold, |q|·|r| for full Smith-Waterman and |q| + |r| for the banded
/// kernels. Their quartiles lie 17- to 25-fold apart and move with each
/// seed's largest families and shared repeats, so sources drawn from every
/// reference, or from the set's own middle, would make a run's work follow
/// the seed; a fixed target does not.
class Traffic {
 public:
  Traffic(const std::vector<std::string>& refs, const core::PastisConfig& cfg,
          double target, util::ThreadPool& pool)
      : refs_(refs) {
    Ledger untimed(nullptr);
    const auto C = discover_overlaps(refs, cfg, pool, untimed);
    const bool banded = cfg.align_kind != align::AlignKind::kFullSW;
    std::vector<double> cost(refs.size(), 0.0);
    C.for_each([&](Index i, Index j, const core::CommonKmers& ck) {
      if (i == j || ck.count < cfg.common_kmer_threshold) return;
      const auto li = static_cast<double>(refs[i].size());
      const auto lj = static_cast<double>(refs[j].size());
      cost[i] += banded ? li + lj : li * lj;
    });
    sources_.resize(refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i) sources_[i] = i;
    std::stable_sort(sources_.begin(), sources_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return std::abs(cost[a] - target) <
                              std::abs(cost[b] - target);
                     });
    sources_.resize(std::min<std::size_t>(128, sources_.size()));
  }

  [[nodiscard]] std::string related(util::Xoshiro256& rng) const {
    std::string q = refs_[sources_[rng.below(sources_.size())]];
    for (auto& c : q) {
      if (rng.chance(0.08)) c = kResidues[rng.below(20)];
    }
    return q;
  }
  [[nodiscard]] static std::string decoy(util::Xoshiro256& rng) {
    std::string q(120 + rng.below(200), 'A');
    for (auto& c : q) c = kResidues[rng.below(20)];
    return q;
  }

 private:
  const std::vector<std::string>& refs_;
  std::vector<std::size_t> sources_;
};

/// Zipf(s) over [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = acc;
    }
    for (auto& c : cdf_) c /= acc;
  }
  [[nodiscard]] std::size_t operator()(util::Xoshiro256& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Replays served batches layer by layer against a DeltaIndex view (base
/// plus delta segments, the structure the serving tier mutates). With a
/// cache lag it also applies the result cache's rule: a query is served
/// from cache iff its (content, epoch, parity) key was first served at
/// least `lag` batch ordinals earlier; its stored hits are replayed with
/// the query id rebased.
class ServeReplay {
 public:
  ServeReplay(const serve::DeltaIndex& view, const core::PastisConfig& cfg,
              const sim::MachineModel& model, util::ThreadPool& pool,
              int cache_lag)
      : view_(view), cfg_(cfg), pool_(pool),
        aligner_(core::make_batch_aligner(cfg, model)),
        alphabet_(cfg.alphabet), codec_(alphabet_.size(), cfg.k),
        neighbors_(alphabet_, codec_, cfg.make_scoring(), cfg.subs_max_loss),
        cache_lag_(cache_lag) {}
  ServeReplay(const ServeReplay&) = delete;
  ServeReplay& operator=(const ServeReplay&) = delete;

  /// One batch whose first query has id `base` at stream ordinal `ordinal`.
  std::vector<io::SimilarityEdge> batch(const std::vector<std::string>& queries,
                                        Index base, std::uint64_t ordinal,
                                        Ledger& L) {
    const obs::Span op_span(L.tracer(), "serve.batch");
    const Index n_refs = view_.total_refs();
    const int n_shards = view_.n_shards();
    const auto ns = static_cast<std::size_t>(n_shards);
    const index::KmerIndex& idx = view_.base();
    const std::size_t nq = queries.size();
    const bool parity_scheme =
        cfg_.load_balance == core::LoadBalanceScheme::kIndexBased;
    const auto key_of = [&](std::size_t i) {
      const unsigned parity =
          parity_scheme ? ((base + static_cast<Index>(i)) & 1u) : 0u;
      return CacheKey{queries[i], view_.epoch(), parity};
    };

    std::vector<char> cached(nq, 0);
    if (cache_lag_ > 0) {
      for (std::size_t i = 0; i < nq; ++i) {
        const auto it = cache_.find(key_of(i));
        if (it != cache_.end() &&
            it->second.ordinal + static_cast<std::uint64_t>(cache_lag_) <=
                ordinal) {
          cached[i] = 1;
          L.add("serve.cache_hits", 1.0);
        }
      }
    }
    L.add("serve.queries", static_cast<double>(nq));

    std::vector<std::vector<sparse::Triple<core::KmerPos>>> per_query(nq);
    L.time("kmer.extract", [&] {
      pool_.parallel_for(nq, [&](std::size_t i) {
        if (cached[i] != 0) return;
        (void)core::extract_sequence_kmers(queries[i], static_cast<Index>(i),
                                           alphabet_, codec_, neighbors_,
                                           cfg_.subs_kmers, per_query[i]);
      });
    });

    // A_query, one matrix per k-mer-range shard.
    std::vector<sparse::SpMat<core::KmerPos>> a_query(ns);
    L.time("sparse.build", [&] {
      std::vector<std::vector<sparse::Triple<core::KmerPos>>> per_shard(ns);
      for (const auto& v : per_query) {
        for (const auto& t : v) {
          const int s =
              sim::ProcGrid::part_of(t.col, idx.kmer_space(), n_shards);
          per_shard[static_cast<std::size_t>(s)].push_back(
              {t.row, t.col - idx.shard_begin(s), t.val});
        }
      }
      pool_.parallel_for(ns, [&](std::size_t s) {
        const int si = static_cast<int>(s);
        a_query[s] = sparse::SpMat<core::KmerPos>::from_triples(
            static_cast<Index>(nq),
            idx.shard_begin(si + 1) - idx.shard_begin(si),
            std::move(per_shard[s]),
            [](core::KmerPos& acc, const core::KmerPos& v) {
              core::keep_min_pos(acc, v);
            });
      });
    });
    for (const auto& a : a_query) {
      L.add("kmer.nnz", static_cast<double>(a.nnz()));
    }

    // Per (source, shard) multiplies; segment columns lifted to global ids.
    const int n_src = 1 + view_.n_segments();
    std::vector<sparse::SpMat<index::CrossKmers>> parts(
        static_cast<std::size_t>(n_src) * ns);
    std::vector<sparse::SpGemmStats> stats(parts.size());
    L.time("sparse.spgemm", [&] {
      pool_.parallel_for(ns, [&](std::size_t s) {
        for (int src = 0; src < n_src; ++src) {
          const std::size_t cell = static_cast<std::size_t>(src) * ns + s;
          const int si = static_cast<int>(s);
          const auto& B =
              src == 0 ? idx.shard(si) : view_.segment(src - 1).shard(si);
          if (a_query[s].empty() || B.empty()) continue;
          parts[cell] = core::discovery_spgemm<index::CrossSemiring>(
              a_query[s], B, cfg_, &stats[cell], &pool_);
          if (src > 0 && parts[cell].nnz() > 0) {
            std::vector<Index> rows, cols;
            std::vector<sparse::Offset> ptr;
            std::vector<index::CrossKmers> vals;
            parts[cell].release_parts(rows, ptr, cols, vals);
            for (auto& c : cols) c += view_.segment_ref_base(src - 1);
            parts[cell] = sparse::SpMat<index::CrossKmers>::from_sorted_parts(
                static_cast<Index>(nq), n_refs, std::move(rows), std::move(ptr),
                std::move(cols), std::move(vals));
          }
        }
      });
    });
    for (const auto& st : stats) {
      L.add("sparse.products", static_cast<double>(st.products));
    }

    sparse::SpMat<index::CrossKmers> C;
    L.time("sparse.merge", [&] {
      C = sparse::add_merge(
          parts, static_cast<Index>(nq), n_refs,
          [](index::CrossKmers& acc, const index::CrossKmers& v) {
            index::CrossSemiring::add(acc, v);
          });
    });
    L.add("sparse.candidates", static_cast<double>(C.nnz()));

    // Candidates above the k-mer threshold, in the orientation the
    // concatenated run's load-balance rule picks (it fixes the seeds).
    std::vector<core::ScreenCandidate> cands;
    L.time("core.tasks", [&] {
      C.for_each([&](Index qi, Index rj, const index::CrossKmers& ck) {
        if (ck.count < cfg_.common_kmer_threshold) return;
        const Index q_global = base + qi;
        core::CommonKmers eq;
        eq.count = ck.count;
        core::ScreenCandidate c;
        if (!parity_scheme || core::BlockPlan::index_based_keep(rj, q_global)) {
          eq.first = ck.first_rq;
          c.task = core::canonical_task(rj, q_global, eq);
        } else {
          eq.first = ck.first_qr;
          c.task = core::canonical_task(q_global, rj, eq);
        }
        c.count = ck.count;
        c.seeds[0] = {ck.first_rq.pos_a, ck.first_rq.pos_b};
        c.n_seeds = 1;
        const align::Seed alt{ck.first_qr.pos_b, ck.first_qr.pos_a};
        if (alt.q != c.seeds[0].q || alt.r != c.seeds[0].r) {
          c.seeds[c.n_seeds++] = alt;
        }
        cands.push_back(c);
      });
    });
    L.add("core.tasks", static_cast<double>(cands.size()));

    const align::BatchAligner::SeqAccessor seq_of =
        [&](std::uint32_t id) -> std::string_view {
      return id < n_refs ? view_.ref(id) : std::string_view(queries[id - base]);
    };
    if (cfg_.cascade.tier0_enabled) screen(0, cands, seq_of, L);
    if (cfg_.cascade.tier1_enabled) screen(1, cands, seq_of, L);
    std::vector<align::AlignTask> tasks;
    tasks.reserve(cands.size());
    for (const auto& c : cands) tasks.push_back(c.task);
    std::vector<io::SimilarityEdge> hits =
        align_and_filter(tasks, seq_of, cfg_, aligner_, pool_, L);

    if (cache_lag_ > 0) {
      std::vector<std::vector<io::SimilarityEdge>> fresh(nq);
      for (const auto& e : hits) fresh[e.seq_b - base].push_back(e);
      for (std::size_t i = 0; i < nq; ++i) {
        if (cached[i] != 0) {
          for (auto e : cache_.at(key_of(i)).hits) {
            e.seq_b = base + static_cast<Index>(i);
            hits.push_back(e);
          }
        } else {
          // emplace keeps an existing entry: a re-insert keeps its first
          // ordinal, as the cache does.
          cache_.emplace(key_of(i), Cached{ordinal, std::move(fresh[i])});
        }
      }
      io::sort_edges(hits);
    }
    return hits;
  }

 private:
  using CacheKey = std::tuple<std::string, std::uint64_t, unsigned>;
  struct Cached {
    std::uint64_t ordinal = 0;
    std::vector<io::SimilarityEdge> hits;
  };

  /// One cascade tier over the staged candidates, compacted in order.
  void screen(int tier, std::vector<core::ScreenCandidate>& cands,
              const align::BatchAligner::SeqAccessor& seq_of, Ledger& L) {
    constexpr std::size_t kChunks = 64;
    std::vector<align::TierStats> ts(kChunks);
    std::vector<char> keep(cands.size(), 0);
    const std::string name = tier == 0 ? "cascade.tier0" : "cascade.tier1";
    L.time(name, [&] {
      pool_.parallel_for(kChunks, [&](std::size_t c) {
        const std::size_t lo = cands.size() * c / kChunks;
        const std::size_t hi = cands.size() * (c + 1) / kChunks;
        for (std::size_t i = lo; i < hi; ++i) {
          const auto& x = cands[i];
          const std::string_view q = seq_of(x.task.q_id);
          const std::string_view r = seq_of(x.task.r_id);
          keep[i] = tier == 0
                        ? align::tier0_keep(
                              q, r,
                              std::span<const align::Seed>(
                                  x.seeds, static_cast<std::size_t>(x.n_seeds)),
                              x.count, x.sketch_overlap, aligner_,
                              cfg_.cascade, ts[c])
                        : align::tier1_keep(q, r, x.task, aligner_,
                                            cfg_.cascade, ts[c]);
        }
      });
      std::size_t w = 0;
      for (std::size_t i = 0; i < cands.size(); ++i) {
        if (keep[i] != 0) cands[w++] = cands[i];
      }
      cands.resize(w);
    });
    align::TierStats total;
    for (const auto& t : ts) total.merge(t);
    L.add(name + "_in", static_cast<double>(total.pairs_in));
    L.add(name + "_out", static_cast<double>(total.pairs_out));
    L.add(name + "_cells", static_cast<double>(total.cells));
  }

  const serve::DeltaIndex& view_;
  const core::PastisConfig& cfg_;
  util::ThreadPool& pool_;
  const align::BatchAligner aligner_;
  const kmer::Alphabet alphabet_;
  const kmer::KmerCodec codec_;
  const kmer::NeighborGenerator neighbors_;
  const int cache_lag_;  // 0 = no result cache
  std::map<CacheKey, Cached> cache_;
};

/// Sums of the engine's per-batch counters over a served prefix, for the
/// work agreement check.
struct ServedWork {
  double candidates = 0.0, aligned_pairs = 0.0, cache_hits = 0.0;
  double tier0_in = 0.0, tier0_out = 0.0, tier1_in = 0.0, tier1_out = 0.0;
  double model_s = 0.0;

  void add(const index::ServeStats& st) {
    for (const auto& b : st.batches) {
      candidates += static_cast<double>(b.candidates);
      aligned_pairs += static_cast<double>(b.aligned_pairs);
      cache_hits += static_cast<double>(b.cache_hits);
      tier0_in += static_cast<double>(b.cascade.tier0.pairs_in);
      tier0_out += static_cast<double>(b.cascade.tier0.pairs_out);
      tier1_in += static_cast<double>(b.cascade.tier1.pairs_in);
      tier1_out += static_cast<double>(b.cascade.tier1.pairs_out);
    }
    model_s += st.t_serve;
  }
};

void agree_serving(Outcome& out, const Ledger& L, const ServedWork& w,
                   const core::PastisConfig& cfg) {
  out.agree("sparse.candidates", L.count("sparse.candidates"), w.candidates);
  out.agree("align.pairs", L.count("align.pairs"), w.aligned_pairs);
  out.agree("core.tasks", L.count("core.tasks"),
            cfg.cascade.tier0_enabled ? w.tier0_in : w.aligned_pairs);
  out.agree("cascade.tier0_out", L.count("cascade.tier0_out"), w.tier0_out);
  out.agree("cascade.tier1_out", L.count("cascade.tier1_out"), w.tier1_out);
  out.agree("serve.cache_hits", L.count("serve.cache_hits"), w.cache_hits);
}

/// Builds the reference index and saves it (offline steps, reported only
/// by the traced run) and returns the index file.
std::string build_index(const Options& o, const std::vector<std::string>& refs,
                        const core::PastisConfig& cfg, int n_shards,
                        util::ThreadPool& pool, Ledger& L) {
  const std::string path = o.work_dir + "/refs.pidx";
  index::KmerIndex idx;
  L.time("index.build",
         [&] { idx = index::KmerIndex::build(refs, cfg, n_shards, &pool); });
  L.time("index.save", [&] { index::save_index(path, idx); });
  return path;
}

void report_index_file(Outcome& out, const std::string& path) {
  out.metric("index.file_mb",
             static_cast<double>(fs::file_size(path)) / (1024.0 * 1024.0),
             "MiB");
}

// serve_cascade: KmerIndex (16 shards) -> QueryEngine at grid side 2,
// depth 2, banded alignment behind the fast() cascade; batches of 24 fresh
// queries after 8 warm-up batches from a disjoint stream.
void run_serve_cascade(const Options& o, util::ThreadPool& pool,
                       Outcome& out) {
  constexpr int kShards = 16;
  constexpr std::size_t kBatch = 24;
  constexpr std::size_t kWarmup = 8;
  constexpr std::size_t kPrefix = 16;  // digest and traced prefix
  constexpr std::size_t kOracle = 4;   // batches the e2e oracle replays
  core::PastisConfig cfg;
  cfg.align_kind = align::AlignKind::kBanded;
  cfg.cascade = align::CascadeOptions::fast();
  const sim::MachineModel model;
  index::QueryEngine::Options eopt;
  eopt.grid_side = 2;
  eopt.pipeline_depth = 2;

  const std::uint32_t n_refs = scaled(4000, o.scale, 200);
  // The residues size the index; Traffic sizes the queries.
  const std::vector<std::string> refs =
      median_draw(n_refs, o.seed, 100, residues).seqs;
  // About the median banded query cost of a 4000-reference set.
  const Traffic traffic(refs, cfg, 1.05e4 * o.scale, pool);
  obs::Tracer tracer;
  Ledger L(o.traced ? &tracer : nullptr);
  const std::string path = build_index(o, refs, cfg, kShards, pool, L);

  // The engine points at its index, so the two live together.
  struct Served {
    index::KmerIndex index;
    std::unique_ptr<index::QueryEngine> engine;
  };
  const auto load = [&] {
    auto s = std::make_unique<Served>();
    s->index = index::load_index(path);
    s->engine =
        std::make_unique<index::QueryEngine>(s->index, cfg, model, eopt, &pool);
    return s;
  };
  const std::unique_ptr<Served> served = load();
  index::QueryEngine& engine = *served->engine;

  // 80% related queries, 20% decoys.
  util::Xoshiro256 warm_rng(sub_seed(o.seed, 101));
  util::Xoshiro256 rng(sub_seed(o.seed, 102));
  const auto next_batch = [&](util::Xoshiro256& g) {
    std::vector<std::vector<std::string>> one(1);
    for (std::size_t i = 0; i < kBatch; ++i) {
      one[0].push_back(g.chance(0.8) ? traffic.related(g) : Traffic::decoy(g));
    }
    return one;
  };
  for (std::size_t b = 0; b < kWarmup; ++b) {
    (void)engine.serve(next_batch(warm_rng));
  }
  const auto base_of = [&](std::size_t b) {
    return static_cast<Index>(n_refs + (kWarmup + b) * kBatch);
  };

  std::vector<std::vector<std::string>> kept(kPrefix);
  std::vector<std::vector<io::SimilarityEdge>> kept_hits(kPrefix);
  std::unique_ptr<Served> probe;
  Window w(o.traced ? 0.0 : o.seconds, setup_reps(o),
           [&] { probe = load(); }, [&] { probe.reset(); });
  ServedWork served_work;
  bool valid = true;
  w.run(kPrefix, [&](std::size_t b) {
    auto one = next_batch(rng);
    if (b < kPrefix) kept[b] = one[0];
    attempt(out, [&] {
      const util::Timer t;
      auto res = engine.serve(one);
      const double s = t.seconds();
      w.latency_s.push_back(s);
      w.busy_s += s;
      w.items += kBatch;
      valid = valid && valid_edges(res.hits, n_refs, base_of(b),
                                   base_of(b + 1), cfg);
      if (b < kPrefix) {
        served_work.add(res.stats);
        kept_hits[b] = std::move(res.hits);
      }
      return true;
    });
  });
  w.close();
  out.check("hits_valid", valid);

  // The layer replay of the prefix (all of it traced, kOracle as oracle).
  const std::size_t n_replay = o.traced ? kPrefix : kOracle;
  std::unique_ptr<serve::DeltaIndex> view;
  L.time("index.load", [&] {
    view = std::make_unique<serve::DeltaIndex>(index::load_index(path), cfg);
  });
  ServeReplay replay(*view, cfg, model, pool, 0);
  const util::Timer t;
  bool same = true;
  for (std::size_t b = 0; b < n_replay; ++b) {
    same = replay.batch(kept[b], base_of(b), kWarmup + b, L) == kept_hits[b] &&
           same;
  }
  const double replay_s = t.seconds();
  out.check(o.traced ? "replay_hits_identical" : "oracle_replay_identical",
            same);

  if (o.traced) {
    double untraced_s = 0.0;
    for (const double s : w.latency_s) untraced_s += s;
    agree_serving(out, L, served_work, cfg);
    report_layers(out, L, untraced_s, replay_s);
    report_index_file(out, path);
    out.metric("model.serve_s", served_work.model_s, "s");
    write_trace(tracer, o);
    return;
  }
  for (const auto& h : kept_hits) out.digest().add(h);
  w.report(out);
}

// serve_mutate: a shared-memory ServingTier (full SW, 64 MiB result
// cache, compaction at delta/base >= 0.3) serving episodes of 40 batches
// x 8 Zipf(1.1) draws from a 200-query pool, with add_references (400
// new references) before every 10th batch. Every episode starts from the
// loaded index, so the measured window is stationary.
void run_serve_mutate(const Options& o, util::ThreadPool& pool,
                      Outcome& out) {
  constexpr int kShards = 8;
  constexpr std::size_t kBatch = 8;
  constexpr std::size_t kPool = 200;
  constexpr std::size_t kBatches = 40;  // per episode
  constexpr std::size_t kAddEvery = 10;
  const std::size_t n_streams = scaled(8, o.scale, 1);  // episode streams
  constexpr int kDepth = 2;
  const core::PastisConfig cfg;
  const sim::MachineModel model;
  serve::TierOptions topt;
  topt.engine.pipeline_depth = kDepth;
  topt.cache_capacity_bytes = 64ull << 20;
  topt.compaction_trigger_ratio = 0.3;

  const std::uint32_t n_refs = scaled(2000, o.scale, 200);
  const std::uint32_t n_add = scaled(400, o.scale, 40);
  // The residues size the index and its deltas. Each add grows the index
  // by ~20%, so the compaction trigger fires at the second add of every
  // episode.
  const std::vector<std::string> refs =
      median_draw(n_refs, o.seed, 200, residues).seqs;
  std::vector<std::vector<std::string>> adds;
  for (std::size_t a = 0; a + 1 < kBatches / kAddEvery; ++a) {
    adds.push_back(median_draw(n_add, o.seed, 210 + a, residues).seqs);
  }

  // Episode streams, each over its own query pool. The Zipf rank
  // sequence is the same for every seed and stream, so cache hits fall on
  // the same positions; the seed and the stream decide what the ranks
  // point at. Every fifth rank is a decoy.
  std::vector<std::vector<std::vector<std::string>>> streams(n_streams);
  {
    // About the median full-SW query cost of a 2000-reference set.
    const Traffic traffic(refs, cfg, 9e5 * o.scale, pool);
    const Zipf zipf(kPool, 1.1);
    util::Xoshiro256 rank_rng(sub_seed(0, 202));
    std::vector<std::size_t> ranks(kBatches * kBatch);
    for (auto& r : ranks) r = zipf(rank_rng);
    for (std::size_t s = 0; s < n_streams; ++s) {
      util::Xoshiro256 rng(sub_seed(o.seed, 201, s));
      std::vector<std::string> qpool(kPool);
      for (std::size_t r = 0; r < kPool; ++r) {
        qpool[r] = r % 5 == 4 ? Traffic::decoy(rng) : traffic.related(rng);
      }
      streams[s].resize(kBatches);
      for (std::size_t q = 0; q < ranks.size(); ++q) {
        streams[s][q / kBatch].push_back(qpool[ranks[q]]);
      }
    }
  }
  obs::Tracer tracer;
  Ledger L(o.traced ? &tracer : nullptr);
  const std::string path = build_index(o, refs, cfg, kShards, pool, L);

  // Set-up: load the index and construct the tier.
  const auto load = [&] {
    return std::make_unique<serve::ServingTier>(index::load_index(path), cfg,
                                                model, topt, &pool);
  };
  std::unique_ptr<serve::ServingTier> tier = load();

  // Episodes cycle over the streams, each on a freshly loaded tier; a
  // stream served again must return the hits it returned the first time.
  std::unique_ptr<serve::ServingTier> probe;
  Window w(o.traced ? 0.0 : o.seconds, setup_reps(o),
           [&] { probe = load(); }, [&] { probe.reset(); });
  ServedWork served_work;
  std::vector<std::vector<std::vector<io::SimilarityEdge>>> first(
      n_streams, std::vector<std::vector<io::SimilarityEdge>>(kBatches));
  double first_compactions = 0.0;
  bool valid = true;
  const std::size_t min_episodes = o.traced ? 1 : n_streams;
  for (std::size_t ep = 0; ep < min_episodes || w.open(); ++ep) {
    const std::size_t s = ep % n_streams;
    if (ep > 0) {
      tier.reset();
      tier = load();
    }
    for (std::size_t b = 0; b < kBatches; ++b) {
      if (b > 0 && b % kAddEvery == 0) {
        auto batch_refs = adds[b / kAddEvery - 1];
        attempt(out, [&] {
          const util::Timer t;
          (void)tier->add_references(std::move(batch_refs));
          w.busy_s += t.seconds();
          return true;
        });
      }
      attempt(out, [&] {
        const Index total = tier->engine().total_refs();
        const util::Timer t;
        auto res = tier->serve({streams[s][b]});
        const double sec = t.seconds();
        w.latency_s.push_back(sec);
        w.busy_s += sec;
        w.items += kBatch;
        valid = valid && valid_edges(res.hits, total, total,
                                     total + kBatches * kBatch, cfg);
        if (ep >= n_streams) return res.hits == first[s][b];
        if (ep == 0) served_work.add(res.stats);
        first[s][b] = std::move(res.hits);
        return true;
      });
    }
    // Every stream gets the same adds, so the same compactions.
    if (ep == 0) {
      first_compactions = static_cast<double>(tier->stats().compactions);
    } else if (static_cast<double>(tier->stats().compactions) !=
               first_compactions) {
      out.check("episode_compactions_stable", false);
    }
  }
  w.close();
  out.check("hits_valid", valid);

  // The layer replay of the first episode: the same adds and compactions
  // on a DeltaIndex view, the cache rule at the tier's depth.
  std::unique_ptr<serve::DeltaIndex> view;
  L.time("index.load", [&] {
    view = std::make_unique<serve::DeltaIndex>(index::load_index(path), cfg);
  });
  ServeReplay replay(*view, cfg, model, pool, kDepth);
  const util::Timer t;
  bool same = true;
  Index next_id = view->total_refs();
  for (std::size_t b = 0; b < kBatches; ++b) {
    if (b > 0 && b % kAddEvery == 0) {
      L.time("serve.add", [&] {
        (void)view->add_references(adds[b / kAddEvery - 1], &pool);
        if (view->compaction_due(topt.compaction_trigger_ratio)) {
          (void)view->compact(model, &pool);
          L.add("serve.compactions", 1.0);
        }
      });
      next_id = view->total_refs();
    }
    same = replay.batch(streams[0][b], next_id, b, L) == first[0][b] && same;
    next_id += static_cast<Index>(kBatch);
  }
  const double replay_s = t.seconds() - L.seconds("serve.add");
  out.check(o.traced ? "replay_hits_identical" : "oracle_replay_identical",
            same);
  out.agree("serve.compactions", L.count("serve.compactions"),
            first_compactions);

  if (o.traced) {
    // The untraced episode's batch latencies; add_references is timed in
    // the replay as the serve layer, so it is outside both walls.
    double untraced_s = 0.0;
    for (const double s : w.latency_s) untraced_s += s;
    agree_serving(out, L, served_work, cfg);
    report_layers(out, L, untraced_s, replay_s);
    report_index_file(out, path);
    out.metric("model.serve_s", served_work.model_s, "s");
    write_trace(tracer, o);
    return;
  }
  for (const auto& stream_hits : first) {
    for (const auto& h : stream_hits) out.digest().add(h);
  }
  w.report(out);
}

// ---------------------------------------------------------------------------
// cluster_mcl: markov_cluster over planted-partition similarity graphs
// ---------------------------------------------------------------------------

struct PlantedGraph {
  std::vector<io::SimilarityEdge> edges;
  std::vector<std::uint32_t> blocks;  // planted cluster of every vertex
};

/// Zipf-skewed blocks (mean size ~32) with intra-block edge probability
/// 0.5 and ANI-like weights, plus one uniform noise edge per vertex.
PlantedGraph planted_graph(Index n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  PlantedGraph g;
  g.blocks.resize(n);
  std::uint32_t block = 0;
  for (Index v = 0; v < n; ++block) {
    const auto size = static_cast<Index>(std::min<std::uint64_t>(
        std::max<std::uint64_t>(2, rng.zipf(128, 1.1) + 2), n - v));
    for (Index i = v; i < v + size; ++i) {
      g.blocks[i] = block;
      for (Index j = i + 1; j < v + size; ++j) {
        if (rng.chance(0.5)) {
          g.edges.push_back(
              {i, j, 0.4f + 0.6f * static_cast<float>(rng.uniform()), 0.9f,
               120});
        }
      }
    }
    v += size;
  }
  for (Index e = 0; e < n; ++e) {
    const auto i = static_cast<Index>(rng.below(n));
    const auto j = static_cast<Index>(rng.below(n));
    if (i != j) {
      g.edges.push_back({std::min(i, j), std::max(i, j), 0.35f, 0.75f, 40});
    }
  }
  return g;
}

void run_cluster(const Options& o, util::ThreadPool& pool, Outcome& out) {
  constexpr std::size_t kInputs = 4;
  const Index n = scaled(10000, o.scale, 500);
  const cluster::MclOptions mopt;  // MCL defaults
  std::vector<std::string> paths;
  std::vector<std::vector<std::uint32_t>> blocks;
  for (std::size_t i = 0; i < kInputs; ++i) {
    PlantedGraph g = planted_graph(n, sub_seed(o.seed, 300 + i));
    paths.push_back(o.work_dir + "/graph" + std::to_string(i) + ".tsv");
    io::write_similarity_graph(paths.back(), g.edges);
    blocks.push_back(std::move(g.blocks));
  }

  if (o.traced) {
    // Prefix: graph 0, untraced then traced, through the same calls.
    auto g = cluster::SimilarityGraph::from_edges(
        n, io::read_similarity_graph(paths[0]));
    cluster::Clustering want;
    cluster::MclStats want_stats;
    double untraced_s = 0.0;
    attempt(out, [&] {
      const util::Timer t;
      want = cluster::markov_cluster(g, mopt, &want_stats, &pool);
      untraced_s = t.seconds();
      return true;
    });
    obs::Tracer tracer;
    Ledger L(&tracer);
    std::vector<io::SimilarityEdge> edges;
    L.time("io.graph_read",
           [&] { edges = io::read_similarity_graph(paths[0]); });
    L.time("cluster.graph",
           [&] { g = cluster::SimilarityGraph::from_edges(n, edges); });
    cluster::Clustering got;
    cluster::MclStats st;
    L.time("cluster.mcl",
           [&] { got = cluster::markov_cluster(g, mopt, &st, &pool); });
    L.add("cluster.mcl_iterations", st.iterations);
    L.add("cluster.mcl_products", static_cast<double>(st.spgemm.products));
    out.check("replay_assignment_identical", got == want);
    out.agree("cluster.mcl_products", L.count("cluster.mcl_products"),
              static_cast<double>(want_stats.spgemm.products));
    report_layers(out, L, untraced_s, L.seconds("cluster.mcl"));
    out.metric("cluster.mcl_peak_resident_mb",
               static_cast<double>(st.peak_resident_bytes) / (1024.0 * 1024.0),
               "MiB");
    write_trace(tracer, o);
    return;
  }

  // Set-up: read a graph and build its adjacency (timed on graph 0).
  const auto load = [&](std::size_t i) {
    return cluster::SimilarityGraph::from_edges(
        n, io::read_similarity_graph(paths[i]));
  };
  std::vector<cluster::SimilarityGraph> graphs;
  for (std::size_t i = 0; i < kInputs; ++i) graphs.push_back(load(i));

  cluster::SimilarityGraph probe;
  Window w(o.seconds, setup_reps(o), [&] { probe = load(0); },
           [&] { probe = {}; });
  std::vector<cluster::Clustering> first(kInputs);
  std::vector<char> seen(kInputs, 0);
  double min_f1 = 1.0;
  w.run(kInputs, [&](std::size_t i) {
    const std::size_t d = i % kInputs;
    attempt(out, [&] {
      const util::Timer t;
      cluster::Clustering c =
          cluster::markov_cluster(graphs[d], mopt, nullptr, &pool);
      const double s = t.seconds();
      w.latency_s.push_back(s);
      w.busy_s += s;
      w.items += n;
      if (seen[d] != 0) return c == first[d];
      seen[d] = 1;
      min_f1 = std::min(min_f1,
                        cluster::score_against_classes(c, blocks[d]).f1());
      const bool complete = c.n_vertices() == n;
      first[d] = std::move(c);
      return complete;
    });
  });
  w.close();
  for (const auto& c : first) out.digest().add(c);
  // MCL on a planted partition must recover the planted clusters.
  out.check("planted_recovery_f1", min_f1 >= 0.9, std::to_string(min_f1));
  w.report(out);
}

/// Generated inputs live here for the run and are removed afterwards.
class WorkDir {
 public:
  explicit WorkDir(std::string path) : path_(std::move(path)) {
    fs::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

 private:
  std::string path_;
};

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
  const WorkDir work(o.work_dir);
  util::ThreadPool pool(kThreads);
  Outcome out;
  try {
    if (o.workload == "search_sw") {
      run_search(o, {false, 200, 12}, pool, out);
    } else if (o.workload == "search_subs") {
      run_search(o, {true, 1500, 4}, pool, out);
    } else if (o.workload == "serve_cascade") {
      run_serve_cascade(o, pool, out);
    } else if (o.workload == "serve_mutate") {
      run_serve_mutate(o, pool, out);
    } else if (o.workload == "cluster_mcl") {
      run_cluster(o, pool, out);
    } else {
      std::fprintf(stderr, "bench_e2e: unknown workload %s\n",
                   o.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    out.check("no_exception", false);
  }
  return out.finish(!o.traced) ? 0 : 1;
}
