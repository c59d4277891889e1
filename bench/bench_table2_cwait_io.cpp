// Reproduces Table II: "Sequence communication wait (cwait) and IO time
// percentage in overall runtime" over the strong-scaling node sweep.
//
// Paper observations:
//   * cwait stays below ~0.3% — the static prefetch of needed sequences
//     overlaps discovery almost completely;
//   * IO stays within ~0.7-2.8% and grows slowly with node count;
//   * cwait% + IO% < 3% ("PASTIS only uses IO at the beginning and the
//     end ... at most 3% of the entire search time").
#include "bench_common.hpp"

using namespace pastis;
using namespace pastis::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto n_seqs = static_cast<std::uint32_t>(args.i("seqs", 2000));
  const auto data = make_dataset(n_seqs, args.i("seed", 7));
  const std::vector<int> nodes = {49, 81, 100, 144, 196, 289, 400};

  util::banner("Table II — cwait% and IO% vs node count");
  std::printf("dataset: %u sequences; blocking 8x8, pre-blocking on\n",
              n_seqs);

  util::TextTable t({"nodes", "idx cwait%", "idx xfer%", "idx IO%",
                     "tri cwait%", "tri xfer%", "tri IO%"});
  ShapeChecks sc;
  double max_sum_pct = 0.0, max_cwait_pct = 0.0;
  for (int p : nodes) {
    double pct[2][3] = {};
    int s = 0;
    for (auto scheme : {core::LoadBalanceScheme::kIndexBased,
                        core::LoadBalanceScheme::kTriangularity}) {
      core::PastisConfig cfg;
      cfg.block_rows = cfg.block_cols = 8;
      cfg.load_balance = scheme;
      cfg.pipeline_depth = 2;
      const auto st =
          run_search(data.seqs, cfg, p, scaled_model(50e6, n_seqs)).stats;
      pct[s][0] = st.t_cwait / st.t_total * 100.0;
      pct[s][1] = st.t_seq_fetch / st.t_total * 100.0;  // hidden transfer
      pct[s][2] = (st.t_io_in + st.t_io_out) / st.t_total * 100.0;
      max_sum_pct = std::max(max_sum_pct, pct[s][0] + pct[s][2]);
      max_cwait_pct = std::max(max_cwait_pct, pct[s][0]);
      ++s;
    }
    t.add_row({std::to_string(p), f4(pct[0][0]), f4(pct[0][1]),
               f4(pct[0][2]), f4(pct[1][0]), f4(pct[1][1]), f4(pct[1][2])});
  }
  t.print();
  std::printf("xfer%% is the non-blocking sequence transfer the prefetch "
              "hides; cwait%% is the residual wait the paper reports "
              "(0.14-0.31%%).\n");

  util::banner("shape checks (paper Table II)");
  sc.check(max_sum_pct < 3.0,
           "cwait% + IO% stays a minor fraction everywhere (paper <3%), "
           "measured max " + f4(max_sum_pct) + "%");
  sc.check(max_cwait_pct < 1.0,
           "residual sequence wait is negligible (paper max 0.31%), "
           "measured max " + f2(max_cwait_pct) + "%");
  sc.summary();
  return 0;
}
