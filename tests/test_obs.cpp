// Observability subsystem tests: the metrics registry (counters, gauges,
// histograms, min/avg/max), the two-domain tracer (measured host-thread
// tracks vs modeled rank tracks), and the export formats — every JSON
// artifact round-trips through the strict util::json parser (the same
// contract CI's `python3 -m json.tool` validation enforces), and the
// modeled rank tracks of an instrumented QueryEngine::serve reproduce the
// OverlapTimeline makespan exactly, and both streams (serve and the search
// pipeline) run the cascade tiers inside their screen stage.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "align/cascade.hpp"
#include "align/lane_dp.hpp"
#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "exec/timeline.hpp"
#include "gen/protein_gen.hpp"
#include "index/kmer_index.hpp"
#include "index/query_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pobs = pastis::obs;
namespace pj = pastis::util::json;

// ---- MetricsRegistry --------------------------------------------------------

TEST(Metrics, CounterGaugeBasics) {
  pobs::MetricsRegistry reg;
  reg.counter("requests_total").add();
  reg.counter("requests_total").add(2.5);
  EXPECT_DOUBLE_EQ(reg.counter("requests_total").value(), 3.5);
  reg.gauge("depth").set(4.0);
  reg.gauge("depth").set(2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 2.0);
  // Lookup-or-create returns the same instance for the same name.
  EXPECT_EQ(&reg.counter("requests_total"), &reg.counter("requests_total"));
  EXPECT_NE(&reg.counter("requests_total"), &reg.counter("other_total"));
}

TEST(Metrics, CounterIsThreadSafe) {
  pobs::MetricsRegistry reg;
  auto& c = reg.counter("hits_total");
  constexpr int kThreads = 8;
  constexpr int kAdds = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(c.value(), double(kThreads) * kAdds);
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  pobs::MetricsRegistry reg;
  const std::vector<double> bounds{1.0, 10.0, 100.0};
  auto& h = reg.histogram("latency", bounds);
  for (double v : {0.5, 2.0, 3.0, 4.0, 50.0, 500.0}) h.observe(v);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 500.0);
  ASSERT_EQ(s.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(s.counts[0], 1u);      // <= 1
  EXPECT_EQ(s.counts[1], 3u);      // (1, 10]
  EXPECT_EQ(s.counts[2], 1u);      // (10, 100]
  EXPECT_EQ(s.counts[3], 1u);      // overflow
  // Quantiles are clamped to the observed range and ordered.
  const double p50 = s.quantile(0.50);
  const double p95 = s.quantile(0.95);
  const double p99 = s.quantile(0.99);
  EXPECT_GE(p50, s.min);
  EXPECT_LE(p99, s.max);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Bounds apply on first creation only; later lookups reuse them.
  EXPECT_EQ(reg.histogram("latency").snapshot().bounds, bounds);
}

TEST(Metrics, EmptyHistogramQuantileIsZero) {
  pobs::Histogram h({1.0, 2.0});
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
}

TEST(Metrics, SnapshotWhileSampling) {
  pobs::MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    do {  // at least one full iteration even if stop wins the race
      reg.counter("n").add(1.0);
      reg.histogram("h").observe(0.001);
      reg.min_avg_max("m").add(1.0);
    } while (!stop.load());
  });
  double last = -1.0;
  for (int i = 0; i < 50; ++i) {
    const auto s = reg.snapshot();
    if (s.counters.count("n")) {
      EXPECT_GE(s.counters.at("n"), last);
      last = s.counters.at("n");
    }
  }
  stop.store(true);
  sampler.join();
  const auto s = reg.snapshot();
  EXPECT_EQ(s.counters.at("n"), double(s.histograms.at("h").count));
  EXPECT_EQ(double(s.min_avg_max.at("m").count), s.counters.at("n"));
}

// ---- JSON export ------------------------------------------------------------

TEST(MetricsExport, JsonRoundTripsThroughStrictParser) {
  pobs::MetricsRegistry reg;
  reg.counter("a.b_total").add(7.0);
  reg.gauge("g").set(-1.5);
  reg.histogram("h").observe(0.003);
  reg.histogram("h").observe(0.009);
  reg.min_avg_max("m").add(2.0);
  reg.min_avg_max("m").add(6.0);

  const auto doc = pj::parse(reg.to_json());
  EXPECT_EQ(doc.at("schema").as_string(), "pastis.metrics.v1");
  EXPECT_DOUBLE_EQ(doc.at("counters").at("a.b_total").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("g").as_number(), -1.5);

  const auto& h = doc.at("histograms").at("h");
  EXPECT_DOUBLE_EQ(h.at("count").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(h.at("min").as_number(), 0.003);
  EXPECT_DOUBLE_EQ(h.at("max").as_number(), 0.009);
  EXPECT_TRUE(h.at("p50").is_number());
  ASSERT_TRUE(h.at("buckets").is_array());
  // The final bucket is the +inf overflow: "le" is null.
  EXPECT_TRUE(h.at("buckets").as_array().back().at("le").is_null());

  const auto& m = doc.at("min_avg_max").at("m");
  EXPECT_DOUBLE_EQ(m.at("min").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(m.at("max").as_number(), 6.0);
  EXPECT_DOUBLE_EQ(m.at("avg").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(m.at("imbalance_pct").as_number(), 50.0);
}

TEST(MetricsExport, EmptyMetricsExportNullNeverInfinity) {
  pobs::MetricsRegistry reg;
  reg.histogram("empty_h");       // registered, never observed
  reg.min_avg_max("empty_m");     // min/max are ±infinity internally

  const std::string text = reg.to_json();
  EXPECT_EQ(text.find("inf"), std::string::npos);
  EXPECT_EQ(text.find("Inf"), std::string::npos);

  const auto doc = pj::parse(text);  // strict: Infinity would throw here
  const auto& h = doc.at("histograms").at("empty_h");
  EXPECT_DOUBLE_EQ(h.at("count").as_number(), 0.0);
  EXPECT_TRUE(h.at("min").is_null());
  EXPECT_TRUE(h.at("max").is_null());
  EXPECT_TRUE(h.at("p50").is_null());
  EXPECT_TRUE(h.at("p95").is_null());
  EXPECT_TRUE(h.at("p99").is_null());
  const auto& m = doc.at("min_avg_max").at("empty_m");
  EXPECT_TRUE(m.at("min").is_null());
  EXPECT_TRUE(m.at("max").is_null());
  EXPECT_TRUE(m.at("imbalance_pct").is_null());
  EXPECT_DOUBLE_EQ(m.at("avg").as_number(), 0.0);
}

TEST(MetricsExport, EmptyRegistryIsValidJson) {
  pobs::MetricsRegistry reg;
  const auto doc = pj::parse(reg.to_json());
  EXPECT_TRUE(doc.at("counters").as_object().empty());
  EXPECT_TRUE(doc.at("histograms").as_object().empty());
}

// ---- Tracer -----------------------------------------------------------------

namespace {

/// Flattened view of one "X" (complete) event from a parsed trace.
struct FlatEvent {
  std::string name;
  std::string cat;
  int pid = 0;
  int tid = 0;
  double ts = 0.0;
  double dur = 0.0;
  double item = -1.0;  // the executor's item argument; -1 = none
};

std::vector<FlatEvent> complete_events(const pj::Value& doc) {
  std::vector<FlatEvent> out;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    FlatEvent f;
    f.name = e.at("name").as_string();
    f.cat = e.at("cat").as_string();
    f.pid = static_cast<int>(e.at("pid").as_number());
    f.tid = static_cast<int>(e.at("tid").as_number());
    f.ts = e.at("ts").as_number();
    f.dur = e.at("dur").as_number();
    if (e.contains("args") && e.at("args").contains("item")) {
      f.item = e.at("args").at("item").as_number();
    }
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace

TEST(Tracer, SpanRecordsOnCallingThreadTrack) {
  pobs::Tracer tr;
  {
    pobs::Span s(&tr, "outer");
    s.arg("item", 3.0);
    { pobs::Span inner(&tr, "inner"); }
  }
  EXPECT_EQ(tr.event_count(), 2u);
  const auto doc = pj::parse(tr.to_json());
  const auto evs = complete_events(doc);
  ASSERT_EQ(evs.size(), 2u);
  for (const auto& e : evs) {
    EXPECT_EQ(e.pid, pobs::Tracer::kMeasuredPid);
    EXPECT_EQ(e.cat, "measured");
    EXPECT_EQ(e.tid, evs.front().tid);  // same thread, same track
    EXPECT_GE(e.dur, 0.0);
  }
  // RAII order: the inner span is recorded first and nests inside the outer.
  EXPECT_EQ(evs[0].name, "inner");
  EXPECT_EQ(evs[1].name, "outer");
  EXPECT_GE(evs[0].ts, evs[1].ts);
  EXPECT_LE(evs[0].ts + evs[0].dur, evs[1].ts + evs[1].dur + 1e-6);
}

TEST(Tracer, NullTracerSpanIsNoOp) {
  pobs::Span s(nullptr, "ignored");
  s.arg("k", 1.0);
  // Destruction must not touch anything; nothing observable to assert
  // beyond "does not crash".
}

TEST(Tracer, ThreadsGetDistinctMeasuredTracks) {
  pobs::Tracer tr;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tr] { pobs::Span s(&tr, "work"); });
  }
  for (auto& t : threads) t.join();
  const auto evs = complete_events(pj::parse(tr.to_json()));
  ASSERT_EQ(evs.size(), 4u);
  std::set<int> tids;
  for (const auto& e : evs) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), 4u);  // one track per thread
  // Dense track ids starting at 0.
  EXPECT_EQ(*tids.begin(), 0);
  EXPECT_EQ(*tids.rbegin(), 3);
}

TEST(Tracer, ModeledTracksAreDisjointFromMeasured) {
  pobs::Tracer tr;
  { pobs::Span s(&tr, "host.stage"); }
  tr.record_modeled("rank.discover", 0, 0.0, 1.5);
  tr.record_modeled("rank.align", 1, 1.5, 4.0, {{"item", 0.0}});
  EXPECT_DOUBLE_EQ(tr.modeled_end_seconds(), 4.0);

  const auto doc = pj::parse(tr.to_json());
  const auto evs = complete_events(doc);
  ASSERT_EQ(evs.size(), 3u);
  for (const auto& e : evs) {
    // The structural guarantee: the time-domain category is a function of
    // the pid, so a viewer can never see modeled spans on a measured track.
    if (e.pid == pobs::Tracer::kMeasuredPid) {
      EXPECT_EQ(e.cat, "measured");
    } else {
      EXPECT_EQ(e.pid, pobs::Tracer::kModeledPid);
      EXPECT_EQ(e.cat, "modeled");
    }
  }
  // Modeled spans land on the rank's track with seconds scaled to µs.
  const auto& align = evs[2];
  EXPECT_EQ(align.name, "rank.align");
  EXPECT_EQ(align.tid, 1);
  EXPECT_DOUBLE_EQ(align.ts, 1.5e6);
  EXPECT_DOUBLE_EQ(align.dur, 2.5e6);

  // Track metadata names both processes and each used track.
  std::map<std::pair<int, int>, std::string> names;
  std::map<int, std::string> process_names;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "M") continue;
    const int pid = static_cast<int>(e.at("pid").as_number());
    if (e.at("name").as_string() == "process_name") {
      process_names[pid] = e.at("args").at("name").as_string();
    } else if (e.at("name").as_string() == "thread_name") {
      const int tid = static_cast<int>(e.at("tid").as_number());
      names[{pid, tid}] = e.at("args").at("name").as_string();
    }
  }
  EXPECT_EQ(process_names.at(pobs::Tracer::kMeasuredPid),
            "measured (host threads)");
  EXPECT_EQ(process_names.at(pobs::Tracer::kModeledPid),
            "modeled (simulated ranks)");
  EXPECT_EQ(names.at({pobs::Tracer::kModeledPid, 0}), "rank 0");
  EXPECT_EQ(names.at({pobs::Tracer::kModeledPid, 1}), "rank 1");
  EXPECT_EQ(names.at({pobs::Tracer::kMeasuredPid, 0}), "host thread 0");
}

TEST(Tracer, SpansNestMonotonicallyPerTrack) {
  // Spans on one track must either nest or follow each other — partial
  // overlap would mean two time domains (or two threads) leaked onto the
  // same track. Exercise with RAII nesting plus modeled spans placed by an
  // OverlapTimeline to mimic real instrumentation.
  pobs::Tracer tr;
  {
    pobs::Span a(&tr, "a");
    { pobs::Span b(&tr, "b"); }
    { pobs::Span c(&tr, "c"); }
  }
  pastis::exec::OverlapTimeline tl(2, 2);
  tl.set_tracer(&tr, "t.");
  const std::vector<double> s{1.0, 2.0}, al{3.0, 1.0};
  for (int b = 0; b < 3; ++b) tl.add(s, al);

  const auto evs = complete_events(pj::parse(tr.to_json()));
  std::map<std::pair<int, int>, std::vector<FlatEvent>> tracks;
  for (const auto& e : evs) tracks[{e.pid, e.tid}].push_back(e);
  ASSERT_GE(tracks.size(), 3u);  // 1 measured thread + 2 modeled ranks
  for (auto& [key, es] : tracks) {
    std::sort(es.begin(), es.end(), [](const auto& x, const auto& y) {
      return x.ts < y.ts || (x.ts == y.ts && x.dur > y.dur);
    });
    std::vector<FlatEvent> stack;
    for (const auto& e : es) {
      while (!stack.empty() &&
             e.ts >= stack.back().ts + stack.back().dur - 1e-6) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        // Overlapping an open span: must be fully contained in it.
        EXPECT_LE(e.ts + e.dur, stack.back().ts + stack.back().dur + 1e-6)
            << "partial overlap on track pid=" << key.first
            << " tid=" << key.second << " span " << e.name;
      }
      stack.push_back(e);
    }
  }
  // The modeled end tracks the timeline's max makespan by construction.
  EXPECT_NEAR(tr.modeled_end_seconds(), tl.max_makespan(), 1e-12);
}

// ---- Telemetry wiring -------------------------------------------------------

TEST(Telemetry, DefaultIsDisabled) {
  pobs::Telemetry t;
  EXPECT_FALSE(t.enabled());
  pastis::core::PastisConfig cfg;
  EXPECT_FALSE(cfg.telemetry.enabled());
  pobs::MetricsRegistry reg;
  pobs::Tracer tr;
  EXPECT_TRUE((pobs::Telemetry{&reg, &tr}).enabled());
  EXPECT_TRUE((pobs::Telemetry{&reg, nullptr}).enabled());
}

namespace {

std::vector<std::string> obs_refs(std::uint32_t n, std::uint64_t seed) {
  pastis::gen::GenConfig g;
  g.n_sequences = n;
  g.seed = seed;
  g.mean_length = 120.0;
  g.max_length = 500;
  return pastis::gen::generate_proteins(g).seqs;
}

std::vector<std::vector<std::string>> obs_batches(
    const std::vector<std::string>& refs, std::size_t n_batches,
    std::uint32_t per_batch, std::uint64_t seed) {
  static const std::string aas = "ARNDCQEGHILKMFPSTWYV";
  pastis::util::Xoshiro256 rng(seed);
  std::vector<std::vector<std::string>> batches(n_batches);
  for (std::size_t b = 0; b < n_batches; ++b) {
    for (std::uint32_t q = 0; q < per_batch; ++q) {
      std::string s = refs[rng.below(refs.size())];
      for (auto& c : s) {
        if (rng.chance(0.08)) c = aas[rng.below(aas.size())];
      }
      batches[b].push_back(std::move(s));
    }
  }
  return batches;
}

}  // namespace

TEST(Telemetry, ServeModeledTracksReproduceMakespan) {
  const auto refs = obs_refs(90, 41);
  const auto batches = obs_batches(refs, 3, 12, 57);
  pastis::core::PastisConfig cfg;
  const auto idx = pastis::index::KmerIndex::build(refs, cfg, 3);
  pastis::index::QueryEngine::Options opt;
  opt.nprocs = 4;
  opt.pipeline_depth = 2;

  // Reference run: telemetry off.
  pastis::index::QueryEngine plain(idx, cfg, {}, opt);
  const auto base = plain.serve(batches);

  // Instrumented run: same inputs, registry + tracer wired through config.
  pobs::MetricsRegistry reg;
  pobs::Tracer tr;
  pastis::core::PastisConfig obs_cfg = cfg;
  obs_cfg.telemetry = pobs::Telemetry{&reg, &tr};
  pastis::index::QueryEngine engine(idx, obs_cfg, {}, opt);
  const auto served = engine.serve(batches);

  // Observation changes nothing: hits bit-identical, makespan identical.
  EXPECT_EQ(served.hits, base.hits);
  EXPECT_DOUBLE_EQ(served.stats.t_serve, base.stats.t_serve);

  // The acceptance check: modeled rank tracks end at the serve makespan.
  EXPECT_NEAR(tr.modeled_end_seconds(), served.stats.t_serve,
              1e-9 + 1e-9 * served.stats.t_serve);

  // The registry saw every batch, and the trace holds both time domains.
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("serve.batches_total"),
                   double(batches.size()));
  EXPECT_DOUBLE_EQ(snap.counters.at("serve.hits_total"),
                   double(served.stats.hits));
  EXPECT_EQ(snap.histograms.at("serve.batch_sparse_seconds").count,
            batches.size());
  const auto evs = complete_events(pj::parse(tr.to_json()));
  bool any_measured = false, any_modeled = false;
  for (const auto& e : evs) {
    any_measured = any_measured || e.pid == pobs::Tracer::kMeasuredPid;
    any_modeled = any_modeled || e.pid == pobs::Tracer::kModeledPid;
  }
  EXPECT_TRUE(any_measured);
  EXPECT_TRUE(any_modeled);
}

TEST(Telemetry, GridServeModeledTracksReproduceMakespan) {
  const auto refs = obs_refs(70, 43);
  const auto batches = obs_batches(refs, 2, 10, 59);
  pastis::core::PastisConfig cfg;
  const auto idx = pastis::index::KmerIndex::build(refs, cfg, 4);
  pastis::index::QueryEngine::Options opt;
  opt.grid_side = 2;
  opt.pipeline_depth = 2;

  pastis::index::QueryEngine plain(idx, cfg, {}, opt);
  const auto base = plain.serve(batches);

  pobs::MetricsRegistry reg;
  pobs::Tracer tr;
  pastis::core::PastisConfig obs_cfg = cfg;
  obs_cfg.telemetry = pobs::Telemetry{&reg, &tr};
  pastis::index::QueryEngine engine(idx, obs_cfg, {}, opt);
  const auto served = engine.serve(batches);

  EXPECT_EQ(served.hits, base.hits);
  EXPECT_DOUBLE_EQ(served.stats.t_serve, base.stats.t_serve);
  EXPECT_NEAR(tr.modeled_end_seconds(), served.stats.t_serve,
              1e-9 + 1e-9 * served.stats.t_serve);
}

namespace {

/// The {discover, screen, align} stage graph of a `prefix` stream of
/// `n_items` items: each item has exactly one measured span per stage, and
/// every cascade tier span lies inside a `<prefix>.screen` span on the same
/// thread.
void expect_screen_stage_graph(const pobs::Tracer& tr,
                               const std::string& prefix,
                               std::size_t n_items) {
  std::vector<FlatEvent> spans;
  for (auto& e : complete_events(pj::parse(tr.to_json()))) {
    if (e.pid == pobs::Tracer::kMeasuredPid) spans.push_back(std::move(e));
  }
  for (const std::string stage : {"discover", "screen", "align"}) {
    std::vector<int> per_item(n_items, 0);
    for (const auto& s : spans) {
      if (s.name != prefix + "." + stage) continue;
      ASSERT_GE(s.item, 0.0) << s.name;
      ASSERT_LT(s.item, static_cast<double>(n_items)) << s.name;
      ++per_item[static_cast<std::size_t>(s.item)];
    }
    for (std::size_t i = 0; i < n_items; ++i) {
      EXPECT_EQ(per_item[i], 1) << prefix << "." << stage << " item " << i;
    }
  }
  std::size_t tier_spans = 0;
  for (const auto& t : spans) {
    if (t.name != "cascade.tier0" && t.name != "cascade.tier1") continue;
    ++tier_spans;
    bool inside = false;
    for (const auto& s : spans) {
      // The tolerance absorbs the rounding of ts + dur.
      inside = inside || (s.name == prefix + ".screen" && s.tid == t.tid &&
                          s.ts <= t.ts &&
                          t.ts + t.dur <= s.ts + s.dur + 1e-3);
    }
    EXPECT_TRUE(inside) << t.name << " at " << t.ts << " us on thread "
                        << t.tid << " is outside every " << prefix
                        << ".screen span";
  }
  EXPECT_GT(tier_spans, 0u);
}

}  // namespace

TEST(Telemetry, ServeRunsTheTierScreensInItsScreenStage) {
  const auto refs = obs_refs(90, 41);
  const auto batches = obs_batches(refs, 3, 12, 57);
  pastis::core::PastisConfig cfg;
  cfg.cascade = pastis::align::CascadeOptions::fast();
  const auto idx = pastis::index::KmerIndex::build(refs, cfg, 3);
  pastis::util::ThreadPool pool(3);
  for (const int side : {0, 2}) {
    SCOPED_TRACE("grid side " + std::to_string(side));
    pobs::Tracer tr;
    pastis::core::PastisConfig obs_cfg = cfg;
    obs_cfg.telemetry = pobs::Telemetry{nullptr, &tr};
    pastis::index::QueryEngine::Options opt;
    opt.nprocs = 4;
    opt.grid_side = side;
    opt.pipeline_depth = 2;
    pastis::index::QueryEngine engine(idx, obs_cfg, {}, opt, &pool);
    const auto served = engine.serve(batches);
    ASSERT_GT(served.stats.cascade.tier0.pairs_in, 0u);
    expect_screen_stage_graph(tr, "serve", batches.size());
  }
}

TEST(Telemetry, PipelineRunsTheTierScreensInItsScreenStage) {
  pastis::core::PastisConfig cfg;
  cfg.cascade = pastis::align::CascadeOptions::fast();
  cfg.block_rows = cfg.block_cols = 2;
  cfg.pipeline_depth = 2;
  pastis::util::ThreadPool pool(3);
  pobs::Tracer tr;
  cfg.telemetry = pobs::Telemetry{nullptr, &tr};
  const pastis::core::SimilaritySearch search(cfg, {}, 4, &pool);
  const auto run = search.run(obs_refs(150, 61));
  ASSERT_GT(run.stats.cascade.tier0.pairs_in, 0u);
  expect_screen_stage_graph(tr, "pipeline",
                            static_cast<std::size_t>(cfg.n_blocks()));
}

TEST(Telemetry, AlignBatchSpansCountTheAlignedPairsInsideTheAlignStage) {
  pastis::core::PastisConfig cfg;
  cfg.block_rows = cfg.block_cols = 2;
  cfg.pipeline_depth = 2;
  pastis::util::ThreadPool pool(3);
  const auto seqs = obs_refs(150, 61);
  const auto base = pastis::core::SimilaritySearch(cfg, {}, 4, &pool).run(seqs);
  pobs::Tracer tr;
  cfg.telemetry = pobs::Telemetry{nullptr, &tr};
  const auto run = pastis::core::SimilaritySearch(cfg, {}, 4, &pool).run(seqs);
  EXPECT_EQ(run.edges, base.edges);
  ASSERT_GT(run.stats.aligned_pairs, 0u);

  // One align.batch span per block, each inside that block's
  // pipeline.align span, whose `pairs` sum to the aligned pairs and whose
  // `avx512` names the lane build.
  const double avx512 = pastis::align::lane_dp::host_isa() ==
                                pastis::align::lane_dp::Isa::kAvx512
                            ? 1.0
                            : 0.0;
  const auto doc = pj::parse(tr.to_json());
  const auto spans = complete_events(doc);
  std::size_t batches = 0;
  double pairs = 0.0;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X" ||
        e.at("name").as_string() != "align.batch") {
      continue;
    }
    ++batches;
    pairs += e.at("args").at("pairs").as_number();
    EXPECT_EQ(e.at("args").at("avx512").as_number(), avx512);
    const double ts = e.at("ts").as_number();
    const double end = ts + e.at("dur").as_number();
    const int tid = static_cast<int>(e.at("tid").as_number());
    bool inside = false;
    for (const auto& s : spans) {
      // The tolerance absorbs the rounding of ts + dur.
      inside = inside || (s.name == "pipeline.align" && s.tid == tid &&
                          s.ts <= ts && end <= s.ts + s.dur + 1e-3);
    }
    EXPECT_TRUE(inside) << "align.batch at " << ts << " us";
  }
  EXPECT_EQ(batches, static_cast<std::size_t>(cfg.n_blocks()));
  EXPECT_EQ(pairs, static_cast<double>(run.stats.aligned_pairs));
}
