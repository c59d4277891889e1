// Metagenome-style protein clustering — the paper's motivating workflow
// (§III: "find the similar sequences in a given set by clustering them",
// the Metaclust use case).
//
// The similarity graph produced by the search feeds the cluster/ subsystem
// twice: connected components (the Metaclust-style transitive closure) and
// sparse Markov clustering (HipMCL-style flow granularity, expansion on
// the two-phase SpGEMM kernel). Both clusterings are scored against the
// generator's ground-truth families with the pair-counting
// precision/recall/F1 scorer, and the MCL assignment is round-tripped
// through the cluster-assignment TSV writer. This is exactly the pipeline
// the paper's 405M-sequence production run feeds.
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "pastis.hpp"

namespace {

void report(const std::string& name, const pastis::cluster::Clustering& c,
            const pastis::cluster::PairScore& s) {
  using pastis::util::pct;
  std::size_t multi = 0;
  for (const auto n : c.sizes()) multi += n >= 2 ? 1 : 0;
  std::cout << name << ": " << c.n_clusters << " clusters (" << multi
            << " with >=2 members)\n"
            << "  pairwise precision " << pct(s.precision()) << "  recall "
            << pct(s.recall()) << "  F1 " << pct(s.f1()) << "  ("
            << s.tp << "/" << s.true_pairs
            << " true pairs recovered; fragments excluded from truth — the "
               "coverage filter drops them by design)\n";
}

}  // namespace

int main() {
  using namespace pastis;

  // A metagenome-like sample: skewed family sizes, fragments, repeats.
  gen::GenConfig g;
  g.n_sequences = 2000;
  g.seed = 1234;
  g.mean_family_size = 10;
  g.fragment_prob = 0.1;
  const auto data = gen::generate_proteins(g);
  std::cout << "sample: " << data.size() << " proteins, "
            << gen::count_intra_family_pairs(data)
            << " true intra-family pairs\n";

  // The search is run once; both clusterings consume its edge stream.
  core::PastisConfig cfg;
  cfg.block_rows = cfg.block_cols = 4;
  cfg.load_balance = core::LoadBalanceScheme::kTriangularity;
  cfg.pipeline_depth = 2;
  cfg.cluster_method = cluster::Method::kConnectedComponents;
  core::SimilaritySearch search(cfg, sim::MachineModel{}, 16);
  const auto result = search.run_and_cluster(data.seqs);
  std::cout << "similarity graph: " << result.search.edges.size()
            << " edges (" << result.search.stats.aligned_pairs
            << " alignments performed)\n\n";

  // Ground truth from the generator's own labels (fragments excluded: the
  // coverage >= 0.70 filter removes them from the graph by design).
  const auto truth = gen::family_labels(data);

  // Connected components — came with the search (the post-align stage).
  const auto& cc = result.clustering.clusters;
  report("connected components", cc, cluster::score_against_classes(cc, truth));

  // Markov clustering on the same edges: expansion runs on the two-phase
  // parallel SpGEMM kernel; finer granularity than the closure (the
  // low-complexity repeat edges that survive the filters cannot chain
  // unrelated families together through flow).
  cluster::MclStats mcl_stats;
  const auto mcl_run = cluster::cluster_edges(
      static_cast<sparse::Index>(data.size()), result.search.edges,
      cluster::Method::kMarkov, cfg.cluster_weighting, cfg.mcl, &mcl_stats,
      &util::ThreadPool::global());
  report("markov clustering (MCL)", mcl_run.clusters,
         cluster::score_against_classes(mcl_run.clusters, truth));
  std::cout << "  " << mcl_stats.iterations << " iterations ("
            << (mcl_stats.converged ? "converged" : "iteration cap") << ", "
            << util::with_commas(mcl_stats.spgemm.products)
            << " expansion products, peak resident "
            << util::bytes_human(
                   static_cast<double>(mcl_stats.peak_resident_bytes))
            << ")\n";

  // Persist the MCL assignment as the canonical TSV (into the gitignored
  // out/ directory) and read it back.
  std::filesystem::create_directories("out");
  const std::string out = "out/metagenome_clusters.tsv";
  io::write_cluster_assignments(out, mcl_run.clusters.assignment);
  const auto back = io::read_cluster_assignments(out);
  std::cout << "\nwrote " << out << " (" << back.size()
            << " assignments, round-trip "
            << (back == mcl_run.clusters.assignment ? "ok" : "MISMATCH")
            << ")\n";
  return back == mcl_run.clusters.assignment ? 0 : 1;
}
