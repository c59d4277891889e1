// Thread-scaling bench for the two-phase SpGEMM kernel on the candidate-
// discovery workload (the overlap product A·Aᵀ of a metagenome-like
// dataset — the same workload as bench_ablation_spgemm).
//
// Prints a per-thread-count table (seconds, products/sec, speedup vs the
// serial hash oracle) and emits the same numbers as machine-readable JSON
// (--out, default BENCH_spgemm.json) so CI can track the kernel's perf
// trajectory and catch regressions.
#include <array>
#include <cstdio>
#include <fstream>

#include "bench_common.hpp"

using namespace pastis;
using namespace pastis::bench;

namespace {

/// Best-of-reps wall time for one kernel invocation.
template <typename Fn>
double best_seconds(int reps, Fn fn) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    util::Timer t;
    fn();
    const double s = t.seconds();
    if (best < 0.0 || s < best) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto n = static_cast<std::uint32_t>(args.i("seqs", 2000));
  const int reps = static_cast<int>(args.i("reps", 3));
  const long max_threads = args.i("max-threads", 8);
  const std::string out_path = args.s("out", pastis::bench::out_path("BENCH_spgemm.json"));

  util::banner("two-phase SpGEMM scaling — overlap product A·Aᵀ");
  const auto data = make_dataset(n, args.i("seed", 7));
  const core::PastisConfig cfg;
  const std::array<sparse::Index, 2> bounds{0, n};
  const auto a_local = std::move(
      core::kmer_matrix_blocks(
          bounds,
          [&](sparse::Index i) { return std::string_view(data.seqs[i]); }, 1,
          /*transposed=*/false, cfg, &util::ThreadPool::global())
          .front());
  const auto b_local = a_local.transposed();

  ShapeChecks sc;

  // Serial oracles.
  sparse::SpGemmStats hs;
  sparse::SpMat<core::CommonKmers> Ch;
  const double hash_s = best_seconds(reps, [&] {
    sparse::SpGemmStats s;
    Ch = sparse::spgemm_hash<core::OverlapSemiring>(a_local, b_local, &s);
    hs = s;
  });
  const double heap_s = best_seconds(reps, [&] {
    (void)sparse::spgemm_heap<core::OverlapSemiring>(a_local, b_local);
  });

  std::printf("seqs %u   A nnz %s   products %s   C nnz %s\n\n",
              n, util::with_commas(a_local.nnz()).c_str(),
              util::with_commas(hs.products).c_str(),
              util::with_commas(hs.out_nnz).c_str());

  util::TextTable t({"kernel", "threads", "wall (s)", "products/s",
                     "speedup vs hash"});
  auto pps = [&](double s) {
    return s > 0.0 ? static_cast<double>(hs.products) / s : 0.0;
  };
  t.add_row({"hash (serial)", "1", f4(hash_s), util::with_commas(
                 static_cast<std::uint64_t>(pps(hash_s))), "1.00"});
  t.add_row({"heap (serial)", "1", f4(heap_s), util::with_commas(
                 static_cast<std::uint64_t>(pps(heap_s))),
             f2(hash_s / heap_s)});

  struct Point {
    std::size_t threads;
    double seconds;
    double speedup;
  };
  std::vector<Point> points;
  double speedup_at_4 = 0.0;
  bool identical = true;  // correctness gates the exit code (CI smoke)
  for (std::size_t threads = 1;
       threads <= static_cast<std::size_t>(max_threads); threads *= 2) {
    util::ThreadPool pool(threads);
    sparse::SpMat<core::CommonKmers> C2;
    const double s = best_seconds(reps, [&] {
      C2 = sparse::spgemm_hash2p<core::OverlapSemiring>(a_local, b_local,
                                                        nullptr, &pool);
    });
    identical = identical && C2 == Ch;
    sc.check(C2 == Ch, "hash2p bit-identical to serial hash at threads=" +
                           std::to_string(threads));
    const double speedup = s > 0.0 ? hash_s / s : 0.0;
    if (threads == 4) speedup_at_4 = speedup;
    points.push_back({threads, s, speedup});
    t.add_row({"hash2p", std::to_string(threads), f4(s),
               util::with_commas(static_cast<std::uint64_t>(pps(s))),
               f2(speedup)});
  }
  t.print();

  util::banner("shape checks");
  if (speedup_at_4 > 0.0) {
    sc.check(speedup_at_4 >= 2.0,
             "hash2p at 4 threads beats the serial hash oracle by >= 2x "
             "(measured " + f2(speedup_at_4) + "x; needs >= 4 host cores "
             "to be meaningful)");
  }
  const bool scaling_up =
      points.size() >= 2 && points.back().seconds < points.front().seconds;
  sc.check(scaling_up || points.size() < 2,
           "row-phase wall time shrinks as threads grow");
  sc.summary();

  // ---- machine-readable trajectory seed ------------------------------------
  {
    std::ofstream out(out_path);
    out << "{\n"
        << "  \"bench\": \"spgemm_scaling\",\n"
        << "  \"workload\": \"overlap_product\",\n"
        << "  \"seqs\": " << n << ",\n"
        << "  \"a_nnz\": " << a_local.nnz() << ",\n"
        << "  \"products\": " << hs.products << ",\n"
        << "  \"out_nnz\": " << hs.out_nnz << ",\n"
        << "  \"serial_hash_seconds\": " << hash_s << ",\n"
        << "  \"serial_heap_seconds\": " << heap_s << ",\n"
        << "  \"hash2p\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      out << "    {\"threads\": " << points[i].threads
          << ", \"seconds\": " << points[i].seconds
          << ", \"products_per_second\": " << pps(points[i].seconds)
          << ", \"speedup_vs_serial_hash\": " << points[i].speedup << "}"
          << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  // Bit-identity is a hard failure (the CI smoke-run goes red); the
  // speedup/scaling checks stay advisory — they depend on host cores.
  return identical ? 0 : 1;
}
