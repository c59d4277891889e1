// Quickstart: the smallest complete use of the PASTIS API.
//
//   1. get protein sequences (here: generated; pass --fasta=FILE to use
//      your own);
//   2. configure the search (defaults = the paper's production parameters);
//   3. run the many-against-many search;
//   4. write the similarity graph and read the report.
//
// Build & run:   ./example_quickstart [--fasta=proteins.fa] [--out=graph.tsv]
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "pastis.hpp"

int main(int argc, char** argv) {
  using namespace pastis;

  // Artifacts land in the gitignored out/ directory unless redirected.
  std::string fasta_path, out_path = "out/quickstart_graph.tsv";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--fasta=", 0) == 0) fasta_path = arg.substr(8);
    if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
  }
  if (const auto dir = std::filesystem::path(out_path).parent_path();
      !dir.empty()) {
    std::filesystem::create_directories(dir);
  }

  // --- 1. sequences -------------------------------------------------------
  std::vector<std::string> seqs;
  if (!fasta_path.empty()) {
    for (auto& rec : io::read_fasta(fasta_path)) seqs.push_back(std::move(rec.seq));
    std::cout << "read " << seqs.size() << " sequences from " << fasta_path
              << "\n";
  } else {
    gen::GenConfig g;
    g.n_sequences = 1000;
    g.seed = 42;
    seqs = gen::generate_proteins(g).seqs;
    std::cout << "generated " << seqs.size()
              << " synthetic protein sequences (families + background)\n";
  }

  // --- 2. configuration ----------------------------------------------------
  core::PastisConfig cfg;      // k=6, BLOSUM62 11/2, tau=2, ANI .30, cov .70
  cfg.block_rows = 4;          // blocked 2D sparse SUMMA: 4x4 = 16 blocks
  cfg.block_cols = 4;
  cfg.load_balance = core::LoadBalanceScheme::kIndexBased;
  cfg.pipeline_depth = 2;      // overlap discovery with alignment

  // --- 3. search ------------------------------------------------------------
  // 16 simulated Summit nodes in a 4x4 process grid; swap in your own
  // MachineModel to model different hardware.
  core::SimilaritySearch search(cfg, sim::MachineModel{}, /*nprocs=*/16);
  const auto result = search.run(std::move(seqs));

  // --- 4. output --------------------------------------------------------------
  io::write_similarity_graph(out_path, result.edges);
  std::cout << "wrote " << result.edges.size() << " similarity edges to "
            << out_path << "\n\n";
  core::print_search_report(std::cout, result.stats);

  std::cout << "\nfirst edges (seq_a, seq_b, ANI, coverage, score):\n";
  for (std::size_t i = 0; i < result.edges.size() && i < 5; ++i) {
    const auto& e = result.edges[i];
    std::cout << "  " << e.seq_a << "\t" << e.seq_b << "\t" << e.ani << "\t"
              << e.cov << "\t" << e.score << "\n";
  }
  return 0;
}
