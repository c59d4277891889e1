// Reproduces Table I: "The effect of pre-blocking for index- and
// triangularity-based load balancing methods."
//
// Paper columns: time w/o pre-blocking (align, sparse, sum, total), time
// with pre-blocking (same), normalized (align, sparse, total), and the
// efficiency of the overlap, which the paper computes as
//     efficiency = max(align, sparse) / (actual overlapped sum)
// — 94-98% for index-based, 78-89% for triangularity (its load imbalance
// hurts the overlap). Pre-blocking cuts total by ~30% (index) / ~20% (tri).
#include "bench_common.hpp"

using namespace pastis;
using namespace pastis::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto n_seqs = static_cast<std::uint32_t>(args.i("seqs", 2500));
  const int nprocs = static_cast<int>(args.i("procs", 64));
  const auto data = make_dataset(n_seqs, args.i("seed", 7));

  util::banner("Table I — pre-blocking");
  std::printf("dataset: %u sequences (paper: 20M), %d simulated nodes\n",
              n_seqs, nprocs);

  const std::vector<int> block_counts = {10, 20, 30, 40, 50};
  util::TextTable table({"scheme", "blocks", "align w/o", "sparse w/o",
                         "sum w/o", "total w/o", "align w/", "sparse w/",
                         "sum w/", "total w/", "n.align", "n.sparse",
                         "n.total", "eff(%)"});

  ShapeChecks sc;
  for (auto scheme : {core::LoadBalanceScheme::kIndexBased,
                      core::LoadBalanceScheme::kTriangularity}) {
    std::vector<double> efficiencies;
    for (int blocks : block_counts) {
      const auto [br, bc] = factor_blocks(blocks);
      core::PastisConfig cfg;
      cfg.block_rows = br;
      cfg.block_cols = bc;
      cfg.load_balance = scheme;

      const auto model = scaled_model(20e6, n_seqs);
      cfg.pipeline_depth = 1;
      const auto without = run_search(data.seqs, cfg, nprocs, model).stats;
      cfg.pipeline_depth = 2;
      const auto with = run_search(data.seqs, cfg, nprocs, model).stats;

      // "sum" = the block loop as the process timers see it (discovery +
      // alignment). Without pre-blocking it is align+sparse; with it, the
      // per-rank overlapped time, averaged — the same basis as the align
      // and sparse columns.
      const double sum_wo = without.avg_rank_loop_s();
      const double sum_w = with.avg_rank_loop_s();
      const double eff =
          std::max(with.comp_align, with.comp_spgemm) / sum_w * 100.0;
      efficiencies.push_back(eff);

      table.add_row({core::to_string(scheme), std::to_string(blocks),
                     f4(without.comp_align), f4(without.comp_spgemm),
                     f4(sum_wo), f4(without.t_total), f4(with.comp_align),
                     f4(with.comp_spgemm), f4(sum_w), f4(with.t_total),
                     f2(with.comp_align / without.comp_align),
                     f2(with.comp_spgemm / without.comp_spgemm),
                     f2(with.t_total / without.t_total), f2(eff)});

      sc.check(with.t_total < without.t_total,
               core::to_string(scheme) + " blocks=" + std::to_string(blocks) +
                   ": pre-blocking reduces total (" + f4(without.t_total) +
                   " -> " + f4(with.t_total) + ")");
      sc.check(with.comp_align >= without.comp_align * 0.999,
               core::to_string(scheme) + " blocks=" + std::to_string(blocks) +
                   ": align dilates under contention (paper 1.08-1.15x)");
      sc.check(with.comp_spgemm >= without.comp_spgemm * 0.999,
               core::to_string(scheme) + " blocks=" + std::to_string(blocks) +
                   ": sparse dilates under contention (paper 1.14-1.57x)");
    }
    if (scheme == core::LoadBalanceScheme::kIndexBased) {
      double avg = 0.0;
      for (double e : efficiencies) avg += e;
      avg /= static_cast<double>(efficiencies.size());
      sc.check(avg > 80.0, "index-based overlap efficiency high "
               "(paper ~95-98%), measured avg " + f2(avg) + "%");
    }
  }
  table.print();
  std::printf("eff = max(align, sparse) / overlapped sum — the paper's "
              "Table I efficiency column.\n");

  util::banner("shape checks (paper Table I)");
  sc.summary();
  return 0;
}
