#include "baseline/workpackage.hpp"

#include <algorithm>
#include <unordered_map>

#include "align/smith_waterman.hpp"
#include "kmer/extract.hpp"
#include "sim/grid.hpp"
#include "util/timer.hpp"

namespace pastis::baseline {

namespace {

struct PackageOutcome {
  std::vector<io::SimilarityEdge> edges;
  std::uint64_t candidates = 0;
  std::uint64_t aligned = 0;
  std::uint64_t cells = 0;
  std::uint64_t products = 0;
  std::uint64_t hit_bytes = 0;
};

}  // namespace

std::vector<io::SimilarityEdge> work_package_search(
    const std::vector<std::string>& seqs, const core::PastisConfig& cfg,
    const sim::MachineModel& model, int query_chunks, int ref_chunks,
    int workers, WorkPackageStats* stats, util::ThreadPool* pool) {
  util::Timer wall;
  const auto n = static_cast<std::uint32_t>(seqs.size());
  const kmer::Alphabet alphabet(cfg.alphabet);
  const kmer::KmerCodec codec(alphabet.size(), cfg.k);
  const align::Scoring scoring = cfg.make_scoring();

  auto qsplit = [&](int c) { return sim::ProcGrid::split_point(n, query_chunks, c); };
  auto rsplit = [&](int c) { return sim::ProcGrid::split_point(n, ref_chunks, c); };

  const int n_packages = query_chunks * ref_chunks;
  std::vector<PackageOutcome> outcomes(static_cast<std::size_t>(n_packages));

  auto run_package = [&](std::size_t pkg) {
    const int qc = static_cast<int>(pkg) / ref_chunks;
    const int rc = static_cast<int>(pkg) % ref_chunks;
    PackageOutcome& out = outcomes[pkg];

    // Build the reference chunk's index.
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> postings;
    for (std::uint32_t j = rsplit(rc); j < rsplit(rc + 1); ++j) {
      for (const auto& h :
           kmer::extract_distinct_kmers(seqs[j], alphabet, codec)) {
        postings[h.code].push_back(j);
      }
    }

    // Scan the query chunk against it.
    std::unordered_map<std::uint32_t, std::uint32_t> counts;
    for (std::uint32_t i = qsplit(qc); i < qsplit(qc + 1); ++i) {
      counts.clear();
      for (const auto& h :
           kmer::extract_distinct_kmers(seqs[i], alphabet, codec)) {
        const auto it = postings.find(h.code);
        if (it == postings.end()) continue;
        for (std::uint32_t j : it->second) {
          if (j == i) continue;
          ++counts[j];
          ++out.products;
        }
      }
      for (const auto& [j, cnt] : counts) {
        if (i > j) continue;  // align each unordered pair once
        ++out.candidates;
        if (cnt < cfg.common_kmer_threshold) continue;
        ++out.aligned;
        const auto res = align::smith_waterman(seqs[i], seqs[j], scoring);
        out.cells += res.cells;
        const double ani = res.identity();
        const double cov = res.coverage(seqs[i].size(), seqs[j].size());
        if (ani >= cfg.ani_threshold && cov >= cfg.cov_threshold) {
          out.edges.push_back({i, j, static_cast<float>(ani),
                               static_cast<float>(cov), res.score});
        }
      }
    }
    out.hit_bytes = out.aligned * 32;  // staged hits written to the FS
  };
  util::parallel_for(pool, static_cast<std::size_t>(n_packages), run_package);

  std::vector<io::SimilarityEdge> edges;
  for (auto& o : outcomes) {
    edges.insert(edges.end(), o.edges.begin(), o.edges.end());
  }
  io::sort_edges(edges);

  if (stats != nullptr) {
    stats->query_chunks = query_chunks;
    stats->ref_chunks = ref_chunks;
    stats->packages = n_packages;
    stats->similar_pairs = edges.size();

    std::uint64_t seq_bytes = 0;
    for (const auto& s : seqs) seq_bytes += s.size();
    const double cpu_cups =
        model.cpu_simd_cups_per_core * model.cores_per_node;

    // Per-package modeled time (read chunks, scan, align, write hits), then
    // greedy longest-processing-time scheduling on the workers.
    std::vector<double> package_time(static_cast<std::size_t>(n_packages));
    for (int k = 0; k < n_packages; ++k) {
      const auto& o = outcomes[static_cast<std::size_t>(k)];
      stats->candidates += o.candidates;
      stats->aligned_pairs += o.aligned;
      stats->cells += o.cells;
      const std::uint64_t chunk_bytes =
          seq_bytes / static_cast<std::uint64_t>(query_chunks) +
          seq_bytes / static_cast<std::uint64_t>(ref_chunks);
      stats->io_bytes += chunk_bytes + o.hit_bytes;
      package_time[static_cast<std::size_t>(k)] =
          model.io_time(chunk_bytes + o.hit_bytes, 1) +
          model.spgemm_time(o.products) +
          static_cast<double>(o.cells) / cpu_cups;
    }
    // Join pass: every query chunk's hits are read back and merged.
    std::uint64_t join_bytes = 0;
    for (const auto& o : outcomes) join_bytes += o.hit_bytes;
    stats->io_bytes += join_bytes;

    std::sort(package_time.rbegin(), package_time.rend());
    std::vector<double> load(static_cast<std::size_t>(std::max(1, workers)), 0.0);
    for (double t : package_time) {
      *std::min_element(load.begin(), load.end()) += t;
    }
    stats->modeled_seconds = *std::max_element(load.begin(), load.end()) +
                             model.io_time(join_bytes, workers);
    stats->wall_seconds = wall.seconds();
  }
  return edges;
}

}  // namespace pastis::baseline
