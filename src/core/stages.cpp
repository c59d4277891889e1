#include "core/stages.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "kmer/extract.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pastis::core {

void extract_sequence_kmers(std::string_view seq, sparse::Index row,
                            const kmer::Alphabet& alphabet,
                            const kmer::KmerCodec& codec,
                            const kmer::NeighborGenerator& neighbors,
                            int subs_kmers,
                            std::vector<sparse::Triple<KmerPos>>& out) {
  const auto hits = kmer::extract_distinct_kmers(seq, alphabet, codec);
  out.reserve(out.size() +
              hits.size() * (1 + static_cast<std::size_t>(subs_kmers)));
  for (const auto& h : hits) {
    out.push_back({row, static_cast<sparse::Index>(h.code), KmerPos{h.pos}});
    if (subs_kmers > 0) {
      for (const auto& nb :
           neighbors.nearest(h.code, static_cast<std::size_t>(subs_kmers))) {
        out.push_back(
            {row, static_cast<sparse::Index>(nb.code), KmerPos{h.pos}});
      }
    }
  }
}

align::BatchAligner make_batch_aligner(const PastisConfig& cfg,
                                       const sim::MachineModel& model) {
  align::BatchAligner::Config bcfg;
  bcfg.kind = cfg.align_kind;
  bcfg.devices = model.gpus_per_node;
  bcfg.band_half_width = cfg.band_half_width;
  bcfg.xdrop = cfg.xdrop;
  bcfg.seed_len = static_cast<std::uint32_t>(cfg.k);
  bcfg.telemetry = cfg.telemetry;
  return {cfg.make_scoring(), bcfg};
}

std::optional<io::SimilarityEdge> edge_if_similar(
    const align::AlignTask& task, const align::AlignResult& result,
    std::size_t len_q, std::size_t len_r, const PastisConfig& cfg) {
  const double ani = result.identity();
  const double cov = result.coverage(len_q, len_r);
  if (ani < cfg.ani_threshold || cov < cfg.cov_threshold) return std::nullopt;
  return io::SimilarityEdge{task.q_id, task.r_id, static_cast<float>(ani),
                            static_cast<float>(cov), result.score};
}

void RankWork::reset(int p) {
  const auto np = static_cast<std::size_t>(p);
  if (cands.size() != np) cands.resize(np);
  for (auto& c : cands) c.clear();
  cascade.assign(np, align::CascadeStats{});
  if (tasks.size() != np) tasks.resize(np);
  for (auto& t : tasks) t.clear();
  flat_tasks.clear();
  rank_offset.assign(np + 1, 0);
  results.clear();
  if (lanes.size() != np) lanes.resize(np);
  if (edges.size() != np) edges.resize(np);
  for (auto& e : edges) e.clear();
  align.assign(np, align::BatchStats{});
}

namespace {

/// True when tier 1 probes with the aligner's own kind: the same aligner,
/// task and kernel then give every survivor its tier-2 result.
bool probes_are_results(const PastisConfig& cfg,
                        const align::BatchAligner& aligner) {
  return cfg.cascade.tier1_enabled &&
         cfg.cascade.tier1_kind == aligner.config().kind;
}

std::size_t staged_pairs(const RankWork& work) {
  std::size_t n = 0;
  for (const auto& v : work.cands) n += v.size();
  return n;
}

}  // namespace

void screen_candidates(RankWork& work,
                       const align::BatchAligner::SeqAccessor& seq_of,
                       const align::BatchAligner& aligner,
                       const PastisConfig& cfg, util::ThreadPool* pool) {
  const std::size_t np = work.cands.size();
  if (cfg.cascade.tier0_enabled) {
    const std::size_t in = staged_pairs(work);
    obs::Span span(cfg.telemetry.tracer, "cascade.tier0");
    util::parallel_for(pool, np, [&](std::size_t ri) {
      auto& v = work.cands[ri];
      std::size_t w = 0;
      for (const auto& c : v) {
        if (align::tier0_keep(seq_of(c.task.q_id), seq_of(c.task.r_id),
                              std::span<const align::Seed>(
                                  c.seeds, static_cast<std::size_t>(c.n_seeds)),
                              c.count, c.sketch_overlap, aligner, cfg.cascade,
                              work.cascade[ri].tier0)) {
          v[w++] = c;
        }
      }
      v.resize(w);
    });
    span.arg("pairs_in", static_cast<double>(in));
    span.arg("pairs_out", static_cast<double>(staged_pairs(work)));
  }
  if (cfg.cascade.tier1_enabled) {
    const std::size_t in = staged_pairs(work);
    obs::Span span(cfg.telemetry.tracer, "cascade.tier1");
    // Every rank's candidates probe as one flattened batch, so a skewed
    // rank cannot idle host cores.
    auto& probe_tasks = work.flat_tasks;
    auto& probes = work.results;
    probe_tasks.clear();
    for (const auto& v : work.cands) {
      for (const auto& c : v) probe_tasks.push_back(c.task);
    }
    probes.assign(probe_tasks.size(), align::AlignResult{});
    aligner.align_tasks(seq_of, probe_tasks, cfg.cascade.tier1_kind, probes,
                        pool);
    // The keep rule per rank, in candidate order. The survivors' probes
    // are compacted in step, into the order align_and_filter flattens
    // their tasks in.
    std::size_t read = 0, kept = 0;
    for (std::size_t ri = 0; ri < np; ++ri) {
      auto& v = work.cands[ri];
      std::size_t w = 0;
      for (const auto& c : v) {
        const align::AlignResult& probe = probes[read++];
        if (align::tier1_accept(probe, seq_of(c.task.q_id).size(),
                                seq_of(c.task.r_id).size(), cfg.cascade,
                                work.cascade[ri].tier1)) {
          v[w++] = c;
          probes[kept++] = probe;
        }
      }
      v.resize(w);
    }
    probes.resize(probes_are_results(cfg, aligner) ? kept : 0);
    probe_tasks.clear();
    span.arg("pairs_in", static_cast<double>(in));
    span.arg("pairs_out", static_cast<double>(kept));
  }
  for (std::size_t ri = 0; ri < np; ++ri) {
    auto& tasks = work.tasks[ri];
    tasks.reserve(tasks.size() + work.cands[ri].size());
    for (const auto& c : work.cands[ri]) tasks.push_back(c.task);
  }
}

void align_and_filter(RankWork& work,
                      const align::BatchAligner::SeqAccessor& seq_of,
                      const align::BatchAligner& aligner,
                      const PastisConfig& cfg, util::ThreadPool* pool,
                      std::span<const char> dead) {
  const std::size_t np = work.tasks.size();
  for (std::size_t ri = 0; ri < np; ++ri) {
    work.rank_offset[ri + 1] = work.rank_offset[ri] + work.tasks[ri].size();
  }
  work.flat_tasks.reserve(work.rank_offset.back());
  for (const auto& v : work.tasks) {
    work.flat_tasks.insert(work.flat_tasks.end(), v.begin(), v.end());
  }
  if (probes_are_results(cfg, aligner)) {
    // screen_candidates left each survivor's probe in `results`.
    if (work.results.size() != work.flat_tasks.size()) {
      throw std::logic_error(
          "align_and_filter: tasks that screen_candidates did not probe");
    }
  } else {
    work.results.assign(work.flat_tasks.size(), align::AlignResult{});
    aligner.align_tasks(seq_of, work.flat_tasks, aligner.config().kind,
                        work.results, pool);
  }

  util::parallel_for(pool, np, [&](std::size_t ri) {
    if (!dead.empty() && dead[ri] != 0) return;
    const auto& tasks = work.tasks[ri];
    const std::span<const align::AlignResult> results(
        work.results.data() + work.rank_offset[ri], tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (auto edge = edge_if_similar(tasks[t], results[t],
                                      seq_of(tasks[t].q_id).size(),
                                      seq_of(tasks[t].r_id).size(), cfg)) {
        work.edges[ri].push_back(*edge);
      }
    }
    work.align[ri] = aligner.stats_for(seq_of, tasks, results, work.lanes[ri]);
  });
}

void add_cascade_counters(const obs::Telemetry& telemetry,
                          const align::CascadeStats& cs) {
  if (telemetry.metrics == nullptr) return;
  auto& m = *telemetry.metrics;
  const align::TierStats* tiers[2] = {&cs.tier0, &cs.tier1};
  for (int t = 0; t < 2; ++t) {
    const std::string base = "cascade.tier" + std::to_string(t);
    m.counter(base + ".pairs_in_total")
        .add(static_cast<double>(tiers[t]->pairs_in));
    m.counter(base + ".pairs_out_total")
        .add(static_cast<double>(tiers[t]->pairs_out));
    m.counter(base + ".rejects_total")
        .add(static_cast<double>(tiers[t]->rejects));
    m.counter(base + ".cells_total")
        .add(static_cast<double>(tiers[t]->cells));
  }
}

std::pair<double, double> modeled_screen_seconds(
    const sim::MachineModel& model, const align::CascadeStats& cs) {
  return {model.sparse_stream_time(cs.tier0.cells * 4),
          balanced_kernel_seconds(model, cs.tier1.cells)};
}

double balanced_kernel_seconds(const sim::MachineModel& model,
                               std::uint64_t cells) {
  // Device lanes are modeled as balanced: a production-scale batch puts
  // millions of pairs on each GPU, so per-device imbalance vanishes
  // (rank-level imbalance — the kind the paper reports — remains).
  return static_cast<double>(cells) /
         (model.cups_per_gpu *
          static_cast<double>(std::max(1, model.gpus_per_node)));
}

double modeled_align_seconds(const sim::MachineModel& model,
                             const align::BatchStats& bstats, double dilation) {
  const std::uint64_t pairs = bstats.pairs;
  const std::uint64_t launches =
      pairs == 0 ? 0
                 : (pairs + model.pairs_per_launch - 1) / model.pairs_per_launch;
  return (balanced_kernel_seconds(model, bstats.cells) +
          static_cast<double>(launches) * model.kernel_launch_s +
          static_cast<double>(pairs) * model.pack_s_per_pair) *
         dilation;
}

double charge_alignment(sim::RankClock& clock, const sim::MachineModel& model,
                        const align::BatchStats& bstats, double dilation) {
  const double seconds = modeled_align_seconds(model, bstats, dilation);
  clock.charge(sim::Comp::kAlign, seconds);
  clock.align_kernel_seconds += balanced_kernel_seconds(model, bstats.cells);
  clock.align_cells += bstats.cells;
  clock.pairs_aligned += bstats.pairs;
  return seconds;
}

}  // namespace pastis::core
