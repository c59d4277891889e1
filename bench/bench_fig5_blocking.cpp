// Reproduces Figure 5: "The effect of increasing number of blocks on the
// runtime of sparse and alignment components."
//
// Paper setup: 20M sequences, 100 Summit nodes, block counts 1..40.
// Paper observations to reproduce in shape:
//   * multiplication time grows 40-45% from 1 block to 40 blocks (stripes
//     are broadcast repeatedly, split multiplies add per-call overhead);
//   * alignment time grows only 10-15%;
//   * overall runtime grows ~30%;
//   * the reason to pay this: peak per-rank memory falls with block count
//     ("this search could not be performed on fewer nodes using one block").
#include "bench_common.hpp"

using namespace pastis;
using namespace pastis::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto n_seqs = static_cast<std::uint32_t>(args.i("seqs", 4000));
  const int nprocs = static_cast<int>(args.i("procs", 100));
  const auto seed = static_cast<std::uint64_t>(args.i("seed", 7));

  util::banner("Figure 5 — runtime vs number of blocks");
  std::printf("dataset: %u sequences (paper: 20M), %d simulated nodes "
              "(paper: 100)\n", n_seqs, nprocs);
  const auto data = make_dataset(n_seqs, seed);

  const std::vector<int> block_counts = {1, 5, 10, 15, 20, 25, 30, 35, 40};
  util::TextTable table({"blocks", "br x bc", "sparse(mult)", "sparse(other)",
                         "align", "other", "total", "peak rank mem"});

  std::vector<core::SearchStats> stats;
  for (int blocks : block_counts) {
    const auto [br, bc] = factor_blocks(blocks);
    core::PastisConfig cfg;
    cfg.block_rows = br;
    cfg.block_cols = bc;
    cfg.load_balance = core::LoadBalanceScheme::kIndexBased;
    const auto result =
        run_search(data.seqs, cfg, nprocs, scaled_model(20e6, n_seqs));
    const auto& st = result.stats;
    stats.push_back(st);
    const double other = st.t_io_in + st.t_io_out + st.t_cwait + st.comp_other;
    table.add_row({std::to_string(blocks),
                   std::to_string(br) + "x" + std::to_string(bc),
                   f4(st.comp_spgemm), f4(st.comp_sparse_other),
                   f4(st.comp_align), f4(other), f4(st.t_total),
                   util::bytes_human(double(st.peak_rank_bytes))});
  }
  table.print();
  std::printf("(seconds are modeled Summit time; see sim/machine_model.hpp)\n");

  util::banner("shape checks (paper Fig. 5)");
  ShapeChecks sc;
  const auto& first = stats.front();
  const auto& last = stats.back();
  const double mult_growth = last.comp_spgemm / first.comp_spgemm;
  const double align_growth = last.comp_align / first.comp_align;
  const double total_growth = last.t_total / first.t_total;
  sc.check(mult_growth > 1.1 && mult_growth < 2.6,
           "multiplication grows noticeably with blocks (paper ~1.40-1.45x), "
           "measured " + f2(mult_growth) + "x");
  sc.check(align_growth >= 0.95 && align_growth < 1.6,
           "alignment grows only mildly (paper ~1.10-1.15x), measured " +
               f2(align_growth) + "x");
  sc.check(align_growth < mult_growth,
           "alignment grows less than multiplication");
  sc.check(total_growth < 2.8,
           "total runtime growth stays moderate (paper ~1.3x), measured " +
               f2(total_growth) + "x");
  sc.check(last.peak_rank_bytes < first.peak_rank_bytes,
           "blocking reduces peak per-rank memory (the point of Fig. 4/5): " +
               util::bytes_human(double(first.peak_rank_bytes)) + " -> " +
               util::bytes_human(double(last.peak_rank_bytes)));
  // Determinism across the whole sweep: identical graphs.
  bool same = true;
  for (const auto& st : stats) same &= st.similar_pairs == first.similar_pairs;
  sc.check(same, "identical result graph for every block count");
  sc.summary();
  return sc.all_hold() ? 0 : 1;
}
