// google-benchmark microbenches for the two leaf kernels the paper's
// performance rests on: batch Smith-Waterman (the ADEPT stand-in) and
// local semiring SpGEMM, plus the search set-up's layers (substitute
// k-mers, the k-mer matrix builder, the transpose). Reports real CUPS /
// products-per-second of this host, which is useful when re-calibrating
// sim/machine_model.hpp.
#include <benchmark/benchmark.h>

#include "align/lane_dp.hpp"
#include "pastis.hpp"

using namespace pastis;

namespace {

std::vector<std::string> random_proteins(std::size_t count, std::size_t len,
                                         std::uint64_t seed) {
  static const std::string aas = "ARNDCQEGHILKMFPSTWYV";
  util::Xoshiro256 rng(seed);
  std::vector<std::string> seqs(count);
  for (auto& s : seqs) {
    s.resize(len);
    for (auto& c : s) c = aas[rng.below(aas.size())];
  }
  return seqs;
}

void BM_SmithWatermanFull(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto seqs = random_proteins(2, len, 42);
  const auto scoring = align::Scoring::pastis_default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::smith_waterman(seqs[0], seqs[1], scoring));
  }
  state.counters["CUPS"] = benchmark::Counter(
      static_cast<double>(len) * static_cast<double>(len) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SmithWatermanFull)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

// The inter-pair lane kernel on one full group of kLanePairs equal-length
// pairs (the shape align_tasks' length ordering produces), in the build
// this host runs, named by the label (avx2, avx512 or scalar). CUPS counts
// the group's cells, so it compares directly with BM_SmithWatermanFull.
void BM_SmithWatermanLanes(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto seqs = random_proteins(2 * align::kLanePairs, len, 42);
  const std::vector<std::string_view> queries(seqs.begin(),
                                              seqs.begin() + align::kLanePairs);
  const std::vector<std::string_view> references(
      seqs.begin() + align::kLanePairs, seqs.end());
  const auto scoring = align::Scoring::pastis_default();
  std::vector<align::AlignResult> out(align::kLanePairs);
  for (auto _ : state) {
    align::smith_waterman_lanes(queries, references, scoring, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["CUPS"] = benchmark::Counter(
      static_cast<double>(len) * static_cast<double>(len) *
          static_cast<double>(align::kLanePairs) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel(align::lane_dp::isa_name(align::lane_dp::host_isa()));
}
BENCHMARK(BM_SmithWatermanLanes)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

// CUPS of the banded kernels counts the cells inside the band (the
// kernels' own `cells`), so it compares directly with the full kernels.
void BM_BandedSW(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const int half_width = static_cast<int>(state.range(1));
  const auto seqs = random_proteins(2, len, 44);
  const auto scoring = align::Scoring::pastis_default();
  std::uint64_t cells = 0;
  for (auto _ : state) {
    const auto res =
        align::banded_smith_waterman(seqs[0], seqs[1], scoring, 0, half_width);
    benchmark::DoNotOptimize(res);
    cells += res.cells;
  }
  state.counters["CUPS"] =
      benchmark::Counter(static_cast<double>(cells), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BandedSW)->Args({512, 16})->Args({512, 64})->Args({512, 256});

// The banded lane kernel on one full group of kLanePairs equal-length pairs
// with BM_BandedSW's shapes, in the build this host runs (the label).
void BM_BandedLanes(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const int half_width = static_cast<int>(state.range(1));
  const auto seqs = random_proteins(2 * align::kLanePairs, len, 44);
  const std::vector<std::string_view> queries(seqs.begin(),
                                              seqs.begin() + align::kLanePairs);
  const std::vector<std::string_view> references(
      seqs.begin() + align::kLanePairs, seqs.end());
  const std::vector<int> diags(align::kLanePairs, 0);
  const auto scoring = align::Scoring::pastis_default();
  std::vector<align::AlignResult> out(align::kLanePairs);
  std::uint64_t cells = 0;
  for (auto _ : state) {
    align::banded_smith_waterman_lanes(queries, references, scoring, diags,
                                       half_width, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    for (const auto& res : out) cells += res.cells;
  }
  state.counters["CUPS"] =
      benchmark::Counter(static_cast<double>(cells), benchmark::Counter::kIsRate);
  state.SetLabel(align::lane_dp::isa_name(align::lane_dp::host_isa()));
}
BENCHMARK(BM_BandedLanes)->Args({512, 16})->Args({512, 64})->Args({512, 256});

void BM_XDrop(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  auto seqs = random_proteins(1, len, 45);
  seqs.push_back(seqs[0]);  // identical pair: worst case extension length
  const auto scoring = align::Scoring::pastis_default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::xdrop_extend(
        seqs[0], seqs[1], static_cast<std::uint32_t>(len / 2),
        static_cast<std::uint32_t>(len / 2), 6, scoring, 25));
  }
}
BENCHMARK(BM_XDrop)->Arg(256)->Arg(1024);

void BM_BatchAligner(benchmark::State& state) {
  const int devices = static_cast<int>(state.range(0));
  const auto seqs = random_proteins(64, 200, 46);
  std::vector<align::AlignTask> tasks;
  for (std::uint32_t i = 0; i < 64; ++i) {
    for (std::uint32_t j = i + 1; j < 64; j += 8) tasks.push_back({i, j, 0, 0});
  }
  align::BatchAligner::Config cfg;
  cfg.devices = devices;
  const align::BatchAligner aligner(align::Scoring::pastis_default(), cfg);
  const align::BatchAligner::SeqAccessor seq_of = [&](std::uint32_t id) {
    return std::string_view(seqs[id]);
  };
  std::vector<align::AlignResult> results(tasks.size());
  align::LaneScratch scratch;
  for (auto _ : state) {
    aligner.align_tasks(seq_of, tasks, cfg.kind, results,
                        &util::ThreadPool::global());
    benchmark::DoNotOptimize(results.data());
    benchmark::DoNotOptimize(
        aligner.stats_for(seq_of, tasks, results, scratch));
    benchmark::ClobberMemory();
  }
  state.counters["pairs/s"] = benchmark::Counter(
      static_cast<double>(tasks.size()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchAligner)->Arg(1)->Arg(6);

sparse::SpMat<int> random_sparse(sparse::Index n, double density,
                                 std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<sparse::Triple<int>> t;
  const auto target = static_cast<std::size_t>(double(n) * double(n) * density);
  for (std::size_t k = 0; k < target; ++k) {
    t.push_back({static_cast<sparse::Index>(rng.below(n)),
                 static_cast<sparse::Index>(rng.below(n)),
                 static_cast<int>(rng.below(5)) + 1});
  }
  return sparse::SpMat<int>::from_triples(n, n, std::move(t),
                                          [](int& a, const int& b) { a += b; });
}

void BM_SpGemmHash(benchmark::State& state) {
  const auto n = static_cast<sparse::Index>(state.range(0));
  const auto A = random_sparse(n, 0.01, 47);
  const auto B = random_sparse(n, 0.01, 48);
  sparse::SpGemmStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sparse::spgemm_hash<sparse::PlusTimes<int>>(A, B, &stats));
  }
  state.counters["products/s"] = benchmark::Counter(
      static_cast<double>(stats.products), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpGemmHash)->Arg(512)->Arg(2048)->Arg(8192);

void BM_SpGemmHeap(benchmark::State& state) {
  const auto n = static_cast<sparse::Index>(state.range(0));
  const auto A = random_sparse(n, 0.01, 49);
  const auto B = random_sparse(n, 0.01, 50);
  sparse::SpGemmStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sparse::spgemm_heap<sparse::PlusTimes<int>>(A, B, &stats));
  }
  state.counters["products/s"] = benchmark::Counter(
      static_cast<double>(stats.products), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpGemmHeap)->Arg(512)->Arg(2048);

void BM_SpGemmHash2Phase(benchmark::State& state) {
  const auto n = static_cast<sparse::Index>(state.range(0));
  const auto A = random_sparse(n, 0.01, 47);
  const auto B = random_sparse(n, 0.01, 48);
  const auto threads = static_cast<std::size_t>(state.range(1));
  util::ThreadPool pool(threads);
  sparse::SpGemmStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::spgemm_hash2p<sparse::PlusTimes<int>>(
        A, B, &stats, &pool));
  }
  state.counters["products/s"] = benchmark::Counter(
      static_cast<double>(stats.products), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpGemmHash2Phase)
    ->Args({512, 1})
    ->Args({2048, 1})
    ->Args({2048, 4})
    ->Args({8192, 1})
    ->Args({8192, 4});

void BM_KmerExtraction(benchmark::State& state) {
  const auto seqs = random_proteins(1, 10000, 51);
  const kmer::Alphabet alphabet(kmer::Alphabet::Kind::kProtein25);
  const kmer::KmerCodec codec(alphabet.size(), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kmer::extract_kmers(seqs[0], alphabet, codec));
  }
  state.counters["residues/s"] = benchmark::Counter(
      1e4 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KmerExtraction);

// Substitute k-mers of every window of random proteins at the search's
// default loss cap: the heap enumeration behind search_subs' extraction.
void BM_NeighborNearest(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const core::PastisConfig cfg;
  const kmer::Alphabet alphabet(cfg.alphabet);
  const kmer::KmerCodec codec(alphabet.size(), cfg.k);
  const kmer::NeighborGenerator gen(alphabet, codec, cfg.make_scoring(),
                                    cfg.subs_max_loss);
  std::vector<std::uint64_t> codes;
  for (const auto& s : random_proteins(64, 256, 53)) {
    for (const auto& h : kmer::extract_kmers(s, alphabet, codec)) {
      codes.push_back(h.code);
    }
  }
  std::vector<kmer::NeighborKmer> out;
  for (auto _ : state) {
    for (const std::uint64_t code : codes) {
      out.clear();
      gen.nearest(code, m, out);
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  state.counters["kmers/s"] = benchmark::Counter(
      static_cast<double>(codes.size()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NeighborNearest)->Arg(2)->Arg(5);

// The one k-mer matrix builder on one thread, 1500 generated proteins:
// args {substitutes, cut}, cut 0 = the search's 2 × 2 A tiles, cut 1 = an
// index's 1 × 16 transposed shards. Extraction, assembly and (cut 1) the
// per-shard transposes.
void BM_KmerMatrixBlocks(benchmark::State& state) {
  core::PastisConfig cfg;
  cfg.subs_kmers = static_cast<int>(state.range(0));
  const bool shards = state.range(1) != 0;
  gen::GenConfig g;
  g.n_sequences = 1500;
  g.seed = 54;
  const auto seqs = gen::generate_proteins(g).seqs;
  const auto n = static_cast<sparse::Index>(seqs.size());
  const std::vector<sparse::Index> bounds =
      shards ? std::vector<sparse::Index>{0, n}
             : std::vector<sparse::Index>{0, n / 2, n};
  std::uint64_t nnz = 0;
  for (auto _ : state) {
    const auto blocks = core::kmer_matrix_blocks(
        bounds, [&](sparse::Index i) { return std::string_view(seqs[i]); },
        shards ? 16 : 2, shards, cfg, nullptr);
    nnz = 0;
    for (const auto& b : blocks) nnz += b.nnz();
    benchmark::DoNotOptimize(blocks.data());
  }
  state.counters["nnz/s"] = benchmark::Counter(
      static_cast<double>(nnz) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KmerMatrixBlocks)
    ->Args({0, 0})
    ->Args({2, 0})
    ->Args({0, 1})
    ->Args({2, 1})
    ->Unit(benchmark::kMillisecond);

// SpMat::transposed() of a search-sized A: 1500 rows, ~1.3M nonzeros over
// the 244M-column k-mer space, nearly every column distinct.
void BM_Transpose(benchmark::State& state) {
  constexpr sparse::Index kRows = 1500;
  constexpr sparse::Index kCols = 244140625;  // 25^6
  util::Xoshiro256 rng(55);
  std::vector<sparse::Triple<core::KmerPos>> t(1300000);
  for (auto& x : t) {
    x = {static_cast<sparse::Index>(rng.below(kRows)),
         static_cast<sparse::Index>(rng.below(kCols)),
         core::KmerPos{static_cast<std::uint32_t>(rng.below(1000))}};
  }
  const auto A = sparse::SpMat<core::KmerPos>::from_triples(kRows, kCols,
                                                            std::move(t));
  for (auto _ : state) {
    const auto At = A.transposed();
    benchmark::DoNotOptimize(At.nnz());
  }
  state.counters["nnz/s"] = benchmark::Counter(
      static_cast<double>(A.nnz()) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Transpose)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
