// Reproduces the §IV / §VIII-C comparison narrative against the two
// state-of-the-art distributed tools:
//
//   * MMseqs2-style replicated-index search: at least one sequence set's
//     index is replicated per node — a per-rank memory wall that PASTIS's
//     2D distribution avoids;
//   * DIAMOND-style work packages: query×reference chunk products staged
//     through the filesystem — IO pressure that PASTIS's matrix formulation
//     avoids (PASTIS does IO only at the start and end);
//   * rates: the paper reports 690.6M alignments/s for PASTIS vs 1.2M/s
//     for DIAMOND's record run (575x), with 24.8x higher alignment density
//     (more sensitive search). The absolute gap here is dataset-scaled; the
//     ordering and the memory/IO contrasts are the reproduction targets.
//
// The baselines run PASTIS's candidate rule and filter chunk pair by chunk
// pair, so all three return identical graphs for full Smith-Waterman with
// the cascade off, substitute k-mers included — the comparison is purely
// about resources. Every shape check is deterministic (edge lists, modeled
// bytes, modeled seconds), so each one gates the exit code.
#include "bench_common.hpp"

using namespace pastis;
using namespace pastis::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto n_seqs = static_cast<std::uint32_t>(args.i("seqs", 1500));
  const int nprocs = static_cast<int>(args.i("procs", 16));
  const auto data = make_dataset(n_seqs, args.i("seed", 7));

  util::banner("tool comparison (PASTIS vs replicated-index vs work packages)");
  std::printf("dataset: %u sequences, %d simulated nodes\n", n_seqs, nprocs);

  core::PastisConfig cfg;
  cfg.block_rows = cfg.block_cols = 4;
  cfg.load_balance = core::LoadBalanceScheme::kTriangularity;
  cfg.pipeline_depth = 2;

  const sim::MachineModel model = scaled_model(50e6, n_seqs);
  const auto pastis_result = run_search(data.seqs, cfg, nprocs, model);
  const auto& ps = pastis_result.stats;
  std::uint64_t pastis_io_bytes = 0;
  for (const auto& r : ps.ranks) pastis_io_bytes += r.io_bytes;

  baseline::ReplicatedIndexStats rep1, rep2;
  const auto e1 = baseline::replicated_index_search(
      data.seqs, cfg, model, nprocs,
      baseline::ReplicationMode::kReferenceChunked, &rep1);
  const auto e2 = baseline::replicated_index_search(
      data.seqs, cfg, model, nprocs, baseline::ReplicationMode::kQueryChunked,
      &rep2);

  baseline::WorkPackageStats wps;
  const auto e3 = baseline::work_package_search(data.seqs, cfg, model, 4, 4,
                                                nprocs, &wps);

  // Rates are homothety-corrected back to full scale (x K_work).
  const double k_work = (50e6 / n_seqs) * (50e6 / n_seqs);
  util::TextTable t({"tool", "modeled time (s)", "alignments/s (equiv)",
                     "peak rank memory", "staged IO bytes", "edges"});
  t.add_row({"PASTIS (this work)", f4(ps.t_total),
             util::si_unit(ps.alignments_per_second() * k_work),
             util::bytes_human(double(ps.peak_rank_bytes)),
             util::bytes_human(double(pastis_io_bytes)),
             std::to_string(pastis_result.edges.size())});
  t.add_row({"replicated-index mode 1 (MMseqs2-like)",
             f4(rep1.modeled_seconds),
             util::si_unit(double(rep1.aligned_pairs) / rep1.modeled_seconds *
                           k_work),
             util::bytes_human(double(rep1.peak_rank_bytes)),
             util::bytes_human(double(rep1.io_bytes)),
             std::to_string(e1.size())});
  t.add_row({"replicated-index mode 2 (MMseqs2-like)",
             f4(rep2.modeled_seconds),
             util::si_unit(double(rep2.aligned_pairs) / rep2.modeled_seconds *
                           k_work),
             util::bytes_human(double(rep2.peak_rank_bytes)),
             util::bytes_human(double(rep2.io_bytes)),
             std::to_string(e2.size())});
  t.add_row({"work packages (DIAMOND-like)", f4(wps.modeled_seconds),
             util::si_unit(double(wps.aligned_pairs) / wps.modeled_seconds *
                           k_work),
             "(per worker chunk)", util::bytes_human(double(wps.io_bytes)),
             std::to_string(e3.size())});
  t.print();

  util::banner("paper context (§VIII-C)");
  std::printf("paper: PASTIS 690.6M aln/s on a 405Mx405M search vs DIAMOND "
              "1.2M aln/s on 281Mx39M\n");
  std::printf("paper: 24.8x higher alignment density (5.2e-5 vs 2.1e-6 of "
              "the search space)\n");
  std::printf("paper: projected 3.6x faster time-to-solution at equal node "
              "count\n");

  util::banner("shape checks (paper §IV / §VIII-C)");
  ShapeChecks sc;
  auto same = [](const std::vector<io::SimilarityEdge>& a,
                 const std::vector<io::SimilarityEdge>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!(a[i].seq_a == b[i].seq_a && a[i].seq_b == b[i].seq_b)) return false;
    }
    return true;
  };
  sc.check(same(pastis_result.edges, e1) && same(pastis_result.edges, e2) &&
               same(pastis_result.edges, e3),
           "all tools agree on the similarity graph (PASTIS's candidate "
           "rule and filter in every baseline chunk pair)");
  sc.check(ps.peak_rank_bytes < rep2.peak_rank_bytes,
           "PASTIS per-rank memory below the replicated index "
           "(the §IV memory wall): " +
               util::bytes_human(double(ps.peak_rank_bytes)) + " vs " +
               util::bytes_human(double(rep2.peak_rank_bytes)));
  sc.check(pastis_io_bytes < wps.io_bytes,
           "PASTIS stages less through the filesystem than work packages: " +
               util::bytes_human(double(pastis_io_bytes)) + " vs " +
               util::bytes_human(double(wps.io_bytes)));
  sc.check(ps.alignments_per_second() >
               double(rep1.aligned_pairs) / rep1.modeled_seconds,
           "PASTIS sustains a higher alignment rate than the replicated-"
           "index baseline (GPU batch alignment + overlap)");
  sc.summary();
  return sc.all_hold() ? 0 : 1;
}
