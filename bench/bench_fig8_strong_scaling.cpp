// Reproduces Figure 8: strong scaling on {49, 81, 100, 144, 196, 289, 400}
// nodes with a fixed dataset (paper: 50M sequences, 8x8 blocking,
// pre-blocking enabled).
//
// Paper observations to reproduce:
//   * index-based reaches ~66% parallel efficiency at 400 nodes,
//     triangularity ~76% (it avoids sparse work, so less of the
//     badly-scaling component remains);
//   * the accelerator-side "align" component scales best (78%/87%);
//   * sparse components sit around 60%;
//   * IO is erratic but too small to matter.
#include "bench_common.hpp"

using namespace pastis;
using namespace pastis::bench;

namespace {

struct Point {
  int nodes;
  core::SearchStats st;
};

void print_scheme(const std::vector<Point>& pts, const std::string& name,
                  ShapeChecks& sc, double expected_total_eff) {
  util::banner("strong scaling — " + name);
  util::TextTable t({"nodes", "total", "eff%", "align", "align eff%",
                     "spgemm", "spgemm eff%", "sparse(all)", "io"});
  const auto& base = pts.front();
  for (const auto& p : pts) {
    const double eff = util::strong_scaling_efficiency(
        base.st.t_total, base.nodes, p.st.t_total, p.nodes);
    const double align_eff = util::strong_scaling_efficiency(
        base.st.comp_align, base.nodes, p.st.comp_align, p.nodes);
    const double spgemm_eff = util::strong_scaling_efficiency(
        base.st.comp_spgemm, base.nodes, p.st.comp_spgemm, p.nodes);
    t.add_row({std::to_string(p.nodes), f4(p.st.t_total),
               f2(eff * 100), f4(p.st.comp_align), f2(align_eff * 100),
               f4(p.st.comp_spgemm), f2(spgemm_eff * 100),
               f4(p.st.comp_sparse_all()),
               f4(p.st.t_io_in + p.st.t_io_out)});
  }
  t.print();

  const auto& last = pts.back();
  const double total_eff = util::strong_scaling_efficiency(
      base.st.t_total, base.nodes, last.st.t_total, last.nodes);
  const double align_eff = util::strong_scaling_efficiency(
      base.st.comp_align, base.nodes, last.st.comp_align, last.nodes);
  // Our simulated sparse phase scales near-ideally (communication is
  // negligible at true-Summit constants), so the only efficiency loss is
  // load imbalance — which the small validation dataset exaggerates. The
  // bound below accepts that known deviation; EXPERIMENTS.md discusses it.
  sc.check(total_eff > expected_total_eff - 0.35 && total_eff <= 1.05,
           name + ": total efficiency at " + std::to_string(last.nodes) +
               " nodes declines moderately (paper " +
               f2(expected_total_eff * 100) + "%), measured " +
               f2(total_eff * 100) + "%");
  sc.check(align_eff >= total_eff - 0.05,
           name + ": alignment scales at least as well as the total "
           "(paper: align is the best-scaling component)");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto n_seqs = static_cast<std::uint32_t>(args.i("seqs", 3000));
  const auto data = make_dataset(n_seqs, args.i("seed", 7));
  const std::vector<int> nodes = {49, 81, 100, 144, 196, 289, 400};

  util::banner("Figure 8 — strong scaling");
  std::printf("dataset: %u sequences (paper: 50M); blocking 8x8, "
              "pre-blocking on\n", n_seqs);

  ShapeChecks sc;
  std::vector<Point> idx_pts, tri_pts;
  for (auto scheme : {core::LoadBalanceScheme::kIndexBased,
                      core::LoadBalanceScheme::kTriangularity}) {
    auto& pts = scheme == core::LoadBalanceScheme::kIndexBased ? idx_pts
                                                               : tri_pts;
    for (int p : nodes) {
      core::PastisConfig cfg;
      cfg.block_rows = cfg.block_cols = 8;
      cfg.load_balance = scheme;
      cfg.pipeline_depth = 2;
      pts.push_back(
          {p, run_search(data.seqs, cfg, p, scaled_model(50e6, n_seqs)).stats});
    }
  }
  print_scheme(idx_pts, "index-based", sc, 0.66);
  print_scheme(tri_pts, "triangularity-based", sc, 0.76);

  util::banner("shape checks (paper Fig. 8)");
  const double idx_eff = util::strong_scaling_efficiency(
      idx_pts.front().st.t_total, idx_pts.front().nodes,
      idx_pts.back().st.t_total, idx_pts.back().nodes);
  const double tri_eff = util::strong_scaling_efficiency(
      tri_pts.front().st.t_total, tri_pts.front().nodes,
      tri_pts.back().st.t_total, tri_pts.back().nodes);
  sc.check(tri_eff >= idx_eff - 0.03,
           "triangularity scales at least as well as index-based "
           "(paper: 76% vs 66%): " + f2(tri_eff * 100) + "% vs " +
               f2(idx_eff * 100) + "%");
  // Identical answers at every scale.
  bool same = true;
  for (const auto& p : idx_pts) {
    same &= p.st.similar_pairs == idx_pts.front().st.similar_pairs;
  }
  for (const auto& p : tri_pts) {
    same &= p.st.similar_pairs == idx_pts.front().st.similar_pairs;
  }
  sc.check(same, "identical result graph at every node count and scheme");
  sc.summary();
  return 0;
}
