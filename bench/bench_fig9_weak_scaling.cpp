// Reproduces Figure 9 + Table III: weak scaling with the index-based
// scheme. The number of alignments grows quadratically with sequences, so
// the paper grows the dataset by √x when growing nodes by x: 20M sequences
// at 25 nodes up to 112M at 784.
//
// Paper observations:
//   * overall weak-scaling efficiency stays above 80%;
//   * alignment is the best-scaling component;
//   * IO is erratic but negligible;
//   * Table III: the alignment count grows ~linearly with node count
//     (i.e. quadratically with sequences).
#include <cmath>

#include "bench_common.hpp"

using namespace pastis;
using namespace pastis::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto base_seqs = static_cast<std::uint32_t>(args.i("base_seqs", 1200));
  const std::vector<int> nodes = {25, 49, 100, 196, 400};

  util::banner("Figure 9 + Table III — weak scaling (index-based)");
  std::printf("base: %u sequences at 25 nodes, grown by sqrt(p/25) "
              "(paper: 20M at 25 nodes)\n", base_seqs);

  struct Point {
    int nodes;
    std::uint32_t seqs;
    core::SearchStats st;
  };
  std::vector<Point> pts;
  for (int p : nodes) {
    const auto n = static_cast<std::uint32_t>(
        std::lround(base_seqs * std::sqrt(double(p) / 25.0)));
    // Weak scaling needs the *alignment* load to grow with p, i.e.
    // quadratically with sequences. Like Metaclust, a larger sample hits
    // the same protein families more often: keep the family count fixed so
    // family sizes (and intra-family pairs) grow with n.
    gen::GenConfig g;
    g.n_sequences = n;
    g.seed = static_cast<std::uint64_t>(args.i("seed", 7));
    g.mean_length = 250.0;
    g.max_length = 2000;
    g.mean_family_size =
        std::max<std::uint32_t>(8, n / 140);  // ~140 families at any scale
    g.low_complexity_prob = 0.3;
    g.low_complexity_motifs = 16;
    g.shuffle_order = true;
    const auto data = gen::generate_proteins(g);
    core::PastisConfig cfg;
    cfg.block_rows = cfg.block_cols = 8;
    cfg.load_balance = core::LoadBalanceScheme::kIndexBased;
    cfg.pipeline_depth = 2;
    pts.push_back({p, n,
                   run_search(data.seqs, cfg, p,
                              scaled_model(20e6, base_seqs)).stats});
  }

  util::banner("Table III — sequences and alignments per scale");
  util::TextTable t3({"nodes", "seqs", "aligned pairs", "DP cells"});
  for (const auto& p : pts) {
    t3.add_row({std::to_string(p.nodes), util::with_commas(p.seqs),
                util::with_commas(p.st.aligned_pairs),
                util::si_unit(double(p.st.align_cells))});
  }
  t3.print();

  util::banner("Figure 9 — weak scaling efficiency per component");
  util::TextTable t9({"nodes", "total", "total eff", "align eff",
                      "spgemm eff", "sparse(all) eff", "io eff"});
  const auto& base = pts.front();
  for (const auto& p : pts) {
    t9.add_row(
        {std::to_string(p.nodes), f4(p.st.t_total),
         f2(util::weak_scaling_efficiency(base.st.t_total, p.st.t_total)),
         f2(util::weak_scaling_efficiency(base.st.comp_align, p.st.comp_align)),
         f2(util::weak_scaling_efficiency(base.st.comp_spgemm,
                                          p.st.comp_spgemm)),
         f2(util::weak_scaling_efficiency(base.st.comp_sparse_all(),
                                          p.st.comp_sparse_all())),
         f2(util::weak_scaling_efficiency(base.st.t_io_in + base.st.t_io_out,
                                          p.st.t_io_in + p.st.t_io_out))});
  }
  t9.print();

  util::banner("shape checks (paper Fig. 9 / Table III)");
  ShapeChecks sc;
  const auto& last = pts.back();
  const double total_eff =
      util::weak_scaling_efficiency(base.st.t_total, last.st.t_total);
  sc.check(total_eff > 0.55,
           "overall weak-scaling efficiency stays high (paper >80%), "
           "measured " + f2(total_eff * 100) + "% at " +
               std::to_string(last.nodes) + " nodes");
  // Table III shape: alignments grow ~linearly with nodes (quadratic in n).
  const double align_growth = double(last.st.aligned_pairs) /
                              double(base.st.aligned_pairs);
  const double node_growth = double(last.nodes) / double(base.nodes);
  sc.check(align_growth > node_growth * 0.4 &&
               align_growth < node_growth * 2.5,
           "aligned pairs grow ~proportionally to node count (paper Table "
           "III: 13.5B at 25 -> 225.4B at 400), measured " +
               f2(align_growth) + "x vs " + f2(node_growth) + "x nodes");
  const double align_eff =
      util::weak_scaling_efficiency(base.st.comp_align, last.st.comp_align);
  sc.check(align_eff >= total_eff - 0.1,
           "alignment among the best-scaling components");
  sc.summary();
  return 0;
}
