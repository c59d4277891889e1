// Ablation: the SpGEMM kernel choice (hash vs heap) and the compression
// factor of candidate discovery.
//
// DESIGN.md calls out two design decisions this bench justifies:
//   * hash accumulation as the default local kernel (CombBLAS's choice for
//     short hypersparse rows, after Nagasaka et al.);
//   * §V-B's memory discussion: the compression factor (intermediate
//     products per output nonzero) stays in the single digits on
//     genomics-like data, which is what makes blocked formation worthwhile.
#include <array>

#include "bench_common.hpp"

using namespace pastis;
using namespace pastis::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto base = static_cast<std::uint32_t>(args.i("seqs", 1000));

  util::banner("ablation — SpGEMM kernels on the overlap product");
  util::TextTable t({"seqs", "A nnz", "products", "C nnz", "compression",
                     "hash wall (s)", "heap wall (s)", "hash2p wall (s)",
                     "hash2p/hash"});

  ShapeChecks sc;
  for (std::uint32_t n : {base, base * 2, base * 4}) {
    const auto data = make_dataset(n, args.i("seed", 7));
    const core::PastisConfig cfg;
    const std::array<sparse::Index, 2> bounds{0, n};
    const auto a_local = std::move(
        core::kmer_matrix_blocks(
            bounds,
            [&](sparse::Index i) { return std::string_view(data.seqs[i]); },
            1, /*transposed=*/false, cfg, &util::ThreadPool::global())
            .front());
    const auto b_local = a_local.transposed();

    sparse::SpGemmStats hs, ps, ts;
    util::Timer th;
    auto Ch = sparse::spgemm_hash<core::OverlapSemiring>(a_local, b_local, &hs);
    const double hash_wall = th.seconds();
    util::Timer tp;
    auto Cp = sparse::spgemm_heap<core::OverlapSemiring>(a_local, b_local, &ps);
    const double heap_wall = tp.seconds();
    util::Timer t2;
    auto C2 = sparse::spgemm_hash2p<core::OverlapSemiring>(
        a_local, b_local, &ts, &util::ThreadPool::global());
    const double hash2p_wall = t2.seconds();

    t.add_row({std::to_string(n), util::with_commas(a_local.nnz()),
               util::with_commas(hs.products), util::with_commas(hs.out_nnz),
               f2(hs.compression_factor()), f4(hash_wall), f4(heap_wall),
               f4(hash2p_wall), f2(hash2p_wall / hash_wall)});

    sc.check(Ch == Cp, "hash and heap kernels agree at n=" + std::to_string(n));
    sc.check(Ch == C2,
             "two-phase kernel bit-identical at n=" + std::to_string(n));
    sc.check(hs.compression_factor() > 1.0 &&
                 hs.compression_factor() < 200.0,
             "compression factor in the genomics regime (§V-B: 'a modest "
             "value between 1 and 10' per pair; whole-matrix value " +
                 f2(hs.compression_factor()) + " at n=" + std::to_string(n));
  }
  t.print();

  util::banner("intermediate memory vs blocked formation (§V-B, §VI-A)");
  // Peak resident overlap storage with and without blocking, same dataset.
  const auto data = make_dataset(base * 2, args.i("seed", 7));
  util::TextTable m({"blocking", "peak rank bytes", "candidates resident"});
  std::uint64_t unblocked_peak = 0;
  for (int b : {1, 2, 4, 8}) {
    core::PastisConfig cfg;
    cfg.block_rows = cfg.block_cols = b;
    const auto st =
        run_search(data.seqs, cfg, 16, scaled_model(20e6, base * 2)).stats;
    if (b == 1) unblocked_peak = st.peak_rank_bytes;
    m.add_row({std::to_string(b) + "x" + std::to_string(b),
               util::bytes_human(double(st.peak_rank_bytes)),
               util::with_commas(st.candidates)});
    if (b == 8) {
      sc.check(st.peak_rank_bytes < unblocked_peak,
               "8x8 blocking cuts peak rank memory vs unblocked: " +
                   util::bytes_human(double(unblocked_peak)) + " -> " +
                   util::bytes_human(double(st.peak_rank_bytes)));
    }
  }
  m.print();

  util::banner("shape checks");
  sc.summary();
  return 0;
}
