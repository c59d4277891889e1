// SpGEMM kernel tests: hash, heap and two-phase kernels against a dense
// reference, against each other (bit-identical, for every thread count),
// and over non-arithmetic semirings, the discovery semirings included.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/stages.hpp"
#include "gen/protein_gen.hpp"
#include "index/kmer_index.hpp"
#include "index/query_engine.hpp"
#include "sparse/spgemm.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ps = pastis::sparse;

using IntMat = ps::SpMat<int>;

namespace {

IntMat random_matrix(ps::Index nrows, ps::Index ncols, double density,
                     std::uint64_t seed) {
  pastis::util::Xoshiro256 rng(seed);
  std::vector<ps::Triple<int>> t;
  for (ps::Index i = 0; i < nrows; ++i) {
    for (ps::Index j = 0; j < ncols; ++j) {
      if (rng.chance(density)) {
        t.push_back({i, j, static_cast<int>(rng.below(5)) + 1});
      }
    }
  }
  return IntMat::from_triples(nrows, ncols, std::move(t));
}

/// Dense reference multiply over (+, *).
std::vector<std::vector<int>> dense_multiply(const IntMat& A, const IntMat& B) {
  std::vector<std::vector<int>> dA(A.nrows(), std::vector<int>(A.ncols(), 0));
  std::vector<std::vector<int>> dB(B.nrows(), std::vector<int>(B.ncols(), 0));
  A.for_each([&](ps::Index i, ps::Index j, int v) { dA[i][j] = v; });
  B.for_each([&](ps::Index i, ps::Index j, int v) { dB[i][j] = v; });
  std::vector<std::vector<int>> C(A.nrows(), std::vector<int>(B.ncols(), 0));
  for (ps::Index i = 0; i < A.nrows(); ++i) {
    for (ps::Index k = 0; k < A.ncols(); ++k) {
      if (dA[i][k] == 0) continue;
      for (ps::Index j = 0; j < B.ncols(); ++j) {
        C[i][j] += dA[i][k] * dB[k][j];
      }
    }
  }
  return C;
}

void expect_equals_dense(const IntMat& C,
                         const std::vector<std::vector<int>>& ref) {
  std::uint64_t ref_nnz = 0;
  for (const auto& row : ref) {
    for (int v : row) ref_nnz += v != 0 ? 1 : 0;
  }
  EXPECT_EQ(C.nnz(), ref_nnz);
  C.for_each([&](ps::Index i, ps::Index j, int v) {
    EXPECT_EQ(v, ref[i][j]) << "mismatch at (" << i << "," << j << ")";
  });
}

}  // namespace

struct SpGemmCase {
  ps::Index m, k, n;
  double da, db;
  std::uint64_t seed;
};

class SpGemmSweep : public ::testing::TestWithParam<SpGemmCase> {};

TEST_P(SpGemmSweep, HashMatchesDenseReference) {
  const auto c = GetParam();
  auto A = random_matrix(c.m, c.k, c.da, c.seed);
  auto B = random_matrix(c.k, c.n, c.db, c.seed + 1);
  auto C = ps::spgemm_hash<ps::PlusTimes<int>>(A, B);
  expect_equals_dense(C, dense_multiply(A, B));
}

TEST_P(SpGemmSweep, HeapMatchesDenseReference) {
  const auto c = GetParam();
  auto A = random_matrix(c.m, c.k, c.da, c.seed + 2);
  auto B = random_matrix(c.k, c.n, c.db, c.seed + 3);
  auto C = ps::spgemm_heap<ps::PlusTimes<int>>(A, B);
  expect_equals_dense(C, dense_multiply(A, B));
}

TEST_P(SpGemmSweep, HashAndHeapAgree) {
  const auto c = GetParam();
  auto A = random_matrix(c.m, c.k, c.da, c.seed + 4);
  auto B = random_matrix(c.k, c.n, c.db, c.seed + 5);
  ps::SpGemmStats sh, sp;
  auto Ch = ps::spgemm_hash<ps::PlusTimes<int>>(A, B, &sh);
  auto Cp = ps::spgemm_heap<ps::PlusTimes<int>>(A, B, &sp);
  EXPECT_TRUE(Ch == Cp);
  EXPECT_EQ(sh.products, sp.products);
  EXPECT_EQ(sh.out_nnz, sp.out_nnz);
}

TEST_P(SpGemmSweep, TwoPhaseMatchesDenseReference) {
  const auto c = GetParam();
  auto A = random_matrix(c.m, c.k, c.da, c.seed + 6);
  auto B = random_matrix(c.k, c.n, c.db, c.seed + 7);
  auto C = ps::spgemm_hash2p<ps::PlusTimes<int>>(A, B);
  expect_equals_dense(C, dense_multiply(A, B));
}

TEST_P(SpGemmSweep, TwoPhaseBitIdenticalToSerialForAnyThreadCount) {
  const auto c = GetParam();
  auto A = random_matrix(c.m, c.k, c.da, c.seed + 8);
  auto B = random_matrix(c.k, c.n, c.db, c.seed + 9);
  ps::SpGemmStats sh;
  auto Ch = ps::spgemm_hash<ps::PlusTimes<int>>(A, B, &sh);

  // No pool (serial) first, then pools of several sizes including the
  // machine's own; operator== compares the raw DCSR arrays, so equality
  // here really is bit-identity.
  ps::SpGemmStats s0;
  auto C0 = ps::spgemm_hash2p<ps::PlusTimes<int>>(A, B, &s0);
  EXPECT_TRUE(C0 == Ch);
  EXPECT_EQ(s0.products, sh.products);
  EXPECT_EQ(s0.out_nnz, sh.out_nnz);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                              std::size_t{0}}) {  // 0 = hardware
    pastis::util::ThreadPool pool(threads);
    ps::SpGemmStats st;
    auto Ct = ps::spgemm_hash2p<ps::PlusTimes<int>>(A, B, &st, &pool);
    EXPECT_TRUE(Ct == Ch) << "threads=" << threads;
    EXPECT_EQ(st.products, sh.products);
    EXPECT_EQ(st.out_nnz, sh.out_nnz);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpGemmSweep,
    ::testing::Values(SpGemmCase{1, 1, 1, 1.0, 1.0, 1},
                      SpGemmCase{8, 8, 8, 0.5, 0.5, 2},
                      SpGemmCase{16, 32, 8, 0.2, 0.3, 3},
                      SpGemmCase{64, 16, 64, 0.1, 0.1, 4},
                      SpGemmCase{100, 100, 100, 0.05, 0.05, 5},
                      SpGemmCase{30, 200, 30, 0.02, 0.02, 6},
                      SpGemmCase{50, 50, 50, 0.0, 0.5, 7},   // empty A
                      SpGemmCase{1, 40, 60, 0.6, 0.2, 9},    // single row
                      SpGemmCase{200, 150, 200, 0.15, 0.15, 10},  // > serial
                                                                  // cutoff
                      SpGemmCase{40, 40, 40, 0.9, 0.9, 8})); // dense-ish

TEST(SpGemm, DimensionMismatchThrows) {
  auto A = random_matrix(4, 5, 0.5, 1);
  auto B = random_matrix(6, 4, 0.5, 2);
  EXPECT_THROW(ps::spgemm_hash<ps::PlusTimes<int>>(A, B),
               std::invalid_argument);
  EXPECT_THROW(ps::spgemm_heap<ps::PlusTimes<int>>(A, B),
               std::invalid_argument);
  EXPECT_THROW(ps::spgemm_hash2p<ps::PlusTimes<int>>(A, B),
               std::invalid_argument);
}

TEST(SpGemm, ProductCountMatchesDefinition) {
  // products = Σ_k nnz(A(:,k)) * nnz(B(k,:)).
  auto A = random_matrix(20, 20, 0.3, 9);
  auto B = random_matrix(20, 20, 0.3, 10);
  std::vector<std::uint64_t> a_col(20, 0), b_row(20, 0);
  A.for_each([&](ps::Index, ps::Index j, int) { ++a_col[j]; });
  B.for_each([&](ps::Index i, ps::Index, int) { ++b_row[i]; });
  std::uint64_t expected = 0;
  for (int k = 0; k < 20; ++k) expected += a_col[k] * b_row[k];

  ps::SpGemmStats stats;
  (void)ps::spgemm_hash<ps::PlusTimes<int>>(A, B, &stats);
  EXPECT_EQ(stats.products, expected);
  EXPECT_GE(stats.compression_factor(), 1.0);
}

TEST(SpGemm, MinPlusSemiring) {
  // Shortest one-hop paths: C(i,j) = min_k A(i,k) + B(k,j).
  using MP = ps::MinPlus<int>;
  std::vector<ps::Triple<int>> ta = {{0, 0, 3}, {0, 1, 1}};
  std::vector<ps::Triple<int>> tb = {{0, 0, 2}, {1, 0, 5}};
  auto A = IntMat::from_triples(1, 2, ta);
  auto B = IntMat::from_triples(2, 1, tb);
  auto C = ps::spgemm_hash<MP>(A, B);
  ASSERT_EQ(C.nnz(), 1u);
  EXPECT_EQ(C.to_triples()[0].val, 5);  // min(3+2, 1+5)
  auto C2 = ps::spgemm_heap<MP>(A, B);
  EXPECT_TRUE(C == C2);
  auto C3 = ps::spgemm_hash2p<MP>(A, B);
  EXPECT_TRUE(C == C3);
}

TEST(SpGemm, MinPlusSemiringAcrossThreadCounts) {
  using MP = ps::MinPlus<int>;
  auto A = random_matrix(60, 60, 0.2, 30);
  auto B = random_matrix(60, 60, 0.2, 31);
  const auto ref = ps::spgemm_hash<MP>(A, B);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    pastis::util::ThreadPool pool(threads);
    EXPECT_TRUE(ps::spgemm_hash2p<MP>(A, B, nullptr, &pool) == ref);
  }
}

TEST(SpGemm, BoolSemiring) {
  using BM = ps::SpMat<std::uint8_t>;
  std::vector<ps::Triple<std::uint8_t>> ta = {{0, 0, 1}, {1, 1, 1}};
  std::vector<ps::Triple<std::uint8_t>> tb = {{0, 1, 1}, {1, 1, 1}};
  auto A = BM::from_triples(2, 2, ta);
  auto B = BM::from_triples(2, 2, tb);
  auto C = ps::spgemm_hash<ps::BoolOrAnd>(A, B);
  EXPECT_EQ(C.nnz(), 2u);
  C.for_each([](ps::Index, ps::Index, std::uint8_t v) { EXPECT_EQ(v, 1); });
  EXPECT_TRUE(ps::spgemm_hash2p<ps::BoolOrAnd>(A, B) == C);
}

TEST(SpGemm, EmptyOperands) {
  IntMat A(10, 10), B(10, 10);
  auto C = ps::spgemm_hash<ps::PlusTimes<int>>(A, B);
  EXPECT_EQ(C.nnz(), 0u);
  EXPECT_EQ(C.nrows(), 10u);
  EXPECT_EQ(C.ncols(), 10u);
  EXPECT_TRUE(ps::spgemm_hash2p<ps::PlusTimes<int>>(A, B) == C);
}

TEST(SpGemm, HypersparseInnerDimension) {
  // Simulates the k-mer matrix shape: tiny row count, huge inner dimension
  // (this also forces the two-phase kernel's B-row directory onto its
  // hash fallback — a flat array over 100M rows would be absurd).
  std::vector<ps::Triple<int>> ta = {{0, 1000000, 2}, {1, 1000000, 3},
                                     {1, 99999999, 1}};
  std::vector<ps::Triple<int>> tb = {{1000000, 0, 5}, {99999999, 1, 7}};
  auto A = IntMat::from_triples(2, 100000000, ta);
  auto B = IntMat::from_triples(100000000, 2, tb);
  auto C = ps::spgemm_hash<ps::PlusTimes<int>>(A, B);
  EXPECT_EQ(C.nnz(), 3u);
  const auto t = C.to_triples();
  EXPECT_EQ(t[0].val, 10);  // (0,0) = 2*5
  EXPECT_EQ(t[1].val, 15);  // (1,0) = 3*5
  EXPECT_EQ(t[2].val, 7);   // (1,1) = 1*7
  EXPECT_TRUE(ps::spgemm_hash2p<ps::PlusTimes<int>>(A, B) == C);
}

TEST(SpGemm, SkewedRowsAllKernelsAgree) {
  // One sequence-like "heavy" row whose intermediate blows past the small
  // rows (exercises the accumulator's high-water shrink between rows and
  // the flop-balanced chunking around a dominant row).
  pastis::util::Xoshiro256 rng(99);
  std::vector<ps::Triple<int>> ta, tb;
  for (ps::Index j = 0; j < 400; ++j) ta.push_back({0, j, 1});  // dense row 0
  for (ps::Index i = 1; i < 200; ++i) {
    ta.push_back({i, static_cast<ps::Index>(rng.below(400)), 2});
  }
  for (ps::Index i = 0; i < 400; ++i) {
    for (int r = 0; r < 3; ++r) {
      tb.push_back({i, static_cast<ps::Index>(rng.below(300)), 1});
    }
  }
  auto A = IntMat::from_triples(200, 400, ta,
                                [](int& a, const int& b) { a += b; });
  auto B = IntMat::from_triples(400, 300, tb,
                                [](int& a, const int& b) { a += b; });
  ps::SpGemmStats sh, s2;
  auto Ch = ps::spgemm_hash<ps::PlusTimes<int>>(A, B, &sh);
  auto Cp = ps::spgemm_heap<ps::PlusTimes<int>>(A, B);
  pastis::util::ThreadPool pool(4);
  auto C2 = ps::spgemm_hash2p<ps::PlusTimes<int>>(A, B, &s2, &pool);
  EXPECT_TRUE(Ch == Cp);
  EXPECT_TRUE(Ch == C2);
  EXPECT_EQ(sh.products, s2.products);
}

TEST(SpGemm, AddMergeCombinesParts) {
  auto A = random_matrix(10, 10, 0.3, 20);
  auto B = random_matrix(10, 10, 0.3, 21);
  std::vector<IntMat> parts;
  parts.push_back(A);
  parts.push_back(B);
  auto merged =
      ps::add_merge(parts, 10, 10, [](int& a, const int& b) { a += b; });
  merged.for_each([&](ps::Index i, ps::Index j, int v) {
    int expect = 0;
    A.for_each([&](ps::Index ai, ps::Index aj, int av) {
      if (ai == i && aj == j) expect += av;
    });
    B.for_each([&](ps::Index bi, ps::Index bj, int bv) {
      if (bi == i && bj == j) expect += bv;
    });
    EXPECT_EQ(v, expect);
  });
}

TEST(SpGemm, RowDirectoryFlatAndHashAgreeWithFindRow) {
  // Small dimension → flat directory; huge dimension → hash fallback; one
  // lookup → a binary search of the row ids instead of either table.
  auto small = random_matrix(500, 10, 0.1, 60);
  std::vector<ps::Triple<int>> th = {{7, 0, 1}, {123456789, 0, 1},
                                     {4000000000u, 0, 1}};
  auto huge = IntMat::from_triples(4000000001u, 1, th);
  for (const std::uint64_t lookups : {std::uint64_t{1}, std::uint64_t{1} << 40}) {
    SCOPED_TRACE("lookups " + std::to_string(lookups));
    {
      ps::detail::RowDirectory dir(small.nrows(), small.row_ids(), lookups);
      for (ps::Index r = 0; r < small.nrows(); ++r) {
        const auto expect = small.find_row(r);
        EXPECT_EQ(dir.lookup(r) == ps::detail::RowDirectory::npos,
                  expect == IntMat::npos);
        if (expect != IntMat::npos) {
          EXPECT_EQ(dir.lookup(r), expect);
        }
      }
    }
    {
      ps::detail::RowDirectory dir(huge.nrows(), huge.row_ids(), lookups);
      EXPECT_EQ(dir.lookup(7), huge.find_row(7));
      EXPECT_EQ(dir.lookup(123456789), huge.find_row(123456789));
      EXPECT_EQ(dir.lookup(4000000000u), huge.find_row(4000000000u));
      EXPECT_EQ(dir.lookup(0), ps::detail::RowDirectory::npos);
      EXPECT_EQ(dir.lookup(8), ps::detail::RowDirectory::npos);
      EXPECT_EQ(dir.lookup(3999999999u), ps::detail::RowDirectory::npos);
      EXPECT_EQ(dir.lookup(4000000001u), ps::detail::RowDirectory::npos);
    }
  }
}

// ---- the discovery semirings on generated k-mer matrices ------------------

namespace {

using pastis::core::KmerPos;

/// Generated protein families, shuffled so that members spread over any
/// split of the set: related sequences share many k-mers, so the discovery
/// semirings' count and min/max-seed folds see long accumulation chains.
std::vector<std::string> family_proteins(std::uint32_t n, std::uint64_t seed) {
  pastis::gen::GenConfig g;
  g.n_sequences = n;
  g.seed = seed;
  g.mean_length = 120.0;
  g.max_length = 400;
  g.shuffle_order = true;
  return pastis::gen::generate_proteins(g).seqs;
}

/// Sequence-by-k-mer matrix of `seqs` as the pipeline extracts it: exact
/// and substitute k-mers, duplicates keeping the smallest position.
ps::SpMat<KmerPos> kmer_matrix(const std::vector<std::string>& seqs,
                               const pastis::core::PastisConfig& cfg) {
  const pastis::kmer::Alphabet alphabet(cfg.alphabet);
  const pastis::kmer::KmerCodec codec(alphabet.size(), cfg.k);
  const pastis::kmer::NeighborGenerator neighbors(
      alphabet, codec, cfg.make_scoring(), cfg.subs_max_loss);
  std::vector<ps::Triple<KmerPos>> t;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    (void)pastis::core::extract_sequence_kmers(
        seqs[i], static_cast<ps::Index>(i), alphabet, codec, neighbors,
        cfg.subs_kmers, t);
  }
  return ps::SpMat<KmerPos>::from_triples(
      static_cast<ps::Index>(seqs.size()),
      static_cast<ps::Index>(codec.space()), std::move(t),
      [](KmerPos& acc, const KmerPos& v) { pastis::core::keep_min_pos(acc, v); });
}

void expect_same_stats(const ps::SpGemmStats& got, const ps::SpGemmStats& ref,
                       const std::string& where) {
  EXPECT_EQ(got.products, ref.products) << where;
  EXPECT_EQ(got.out_nnz, ref.out_nnz) << where;
  EXPECT_EQ(got.calls, ref.calls) << where;
}

/// spgemm_hash2p without a pool and on pools of 1, 2 and 8 threads must
/// equal both serial kernels bit for bit, SpGemmStats included. The
/// product is large enough for the two-phase kernel to split its rows
/// (it runs serially below 2^14 products).
template <typename SR>
void expect_kernels_agree(const ps::SpMat<typename SR::left_type>& A,
                          const ps::SpMat<typename SR::right_type>& B) {
  ps::SpGemmStats sh, sp;
  const auto Ch = ps::spgemm_hash<SR>(A, B, &sh);
  ASSERT_GT(sh.products, 1u << 14);
  ASSERT_GT(sh.products, Ch.nnz());  // pairs share more than one k-mer
  EXPECT_TRUE(ps::spgemm_heap<SR>(A, B, &sp) == Ch);
  expect_same_stats(sp, sh, "heap");
  ps::SpGemmStats s0;
  EXPECT_TRUE(ps::spgemm_hash2p<SR>(A, B, &s0) == Ch);
  expect_same_stats(s0, sh, "hash2p, no pool");
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    pastis::util::ThreadPool pool(threads);
    ps::SpGemmStats st;
    EXPECT_TRUE(ps::spgemm_hash2p<SR>(A, B, &st, &pool) == Ch)
        << "threads=" << threads;
    expect_same_stats(st, sh, "hash2p, threads=" + std::to_string(threads));
  }
}

}  // namespace

TEST(SpGemmDiscovery, OverlapSemiringKernelsAgreeOnKmerMatrix) {
  // A·Aᵀ of a generated protein set: the search pipeline's discovery.
  pastis::core::PastisConfig cfg;
  cfg.subs_kmers = 1;  // substitutes collide with exact k-mers
  const auto A = kmer_matrix(family_proteins(150, 31), cfg);
  expect_kernels_agree<pastis::core::OverlapSemiring>(A, A.transposed());
}

TEST(SpGemmDiscovery, CrossSemiringKernelsAgreeOnQueryBatchTimesShard) {
  // One query batch against each shard of a reference index: the serving
  // path's discovery (rows = queries, columns = references).
  pastis::core::PastisConfig cfg;
  cfg.subs_kmers = 1;
  auto seqs = family_proteins(550, 37);
  const std::vector<std::string> queries(seqs.begin() + 400, seqs.end());
  seqs.resize(400);
  constexpr int kShards = 2;
  pastis::util::ThreadPool build_pool(2);
  const auto index =
      pastis::index::KmerIndex::build(seqs, cfg, kShards, &build_pool);
  const auto Aq = kmer_matrix(queries, cfg);
  for (int s = 0; s < kShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const auto a_shard = Aq.extract(0, Aq.nrows(), index.shard_begin(s),
                                    index.shard_begin(s + 1));
    expect_kernels_agree<pastis::index::CrossSemiring>(a_shard,
                                                       index.shard(s));
  }
}

// ---- fused-epilogue kernel (spgemm_hash2p_fused) ---------------------------

namespace {

/// Epilogue that keeps every entry: the fused kernel must then match the
/// plain two-phase kernel bit-for-bit.
struct IdentityEpilogue {
  std::size_t operator()(std::size_t /*chunk*/, ps::Index /*row*/,
                         const ps::Index* cols, const int* vals,
                         std::size_t n, ps::Index* out_cols,
                         int* out_vals) const {
    std::copy(cols, cols + n, out_cols);
    std::copy(vals, vals + n, out_vals);
    return n;
  }
};

std::uint32_t no_cap(std::uint64_t /*pre_rows*/, std::uint64_t /*pre_nnz*/) {
  return 0;
}

/// Top-k selection with the MCL tie-break (value desc, column asc), output
/// re-sorted column-ascending — the reference for the pruning epilogue.
std::vector<std::pair<int, ps::Index>> select_topk(
    std::vector<std::pair<int, ps::Index>> top, std::size_t k) {
  if (top.size() > k) {
    std::partial_sort(top.begin(),
                      top.begin() + static_cast<std::ptrdiff_t>(k), top.end(),
                      [](const auto& x, const auto& y) {
                        return x.first != y.first ? x.first > y.first
                                                  : x.second < y.second;
                      });
    top.resize(k);
    std::sort(top.begin(), top.end(),
              [](const auto& x, const auto& y) { return x.second < y.second; });
  }
  return top;
}

}  // namespace

TEST(SpGemmFused, IdentityEpilogueMatchesTwoPhase) {
  // spgemm_hash2p IS the fused kernel with a copy-through epilogue, so the
  // independent reference is the serial oracle.
  auto A = random_matrix(80, 70, 0.15, 70);
  auto B = random_matrix(70, 90, 0.15, 71);
  ps::SpGemmStats sref;
  auto Cref = ps::spgemm_hash<ps::PlusTimes<int>>(A, B, &sref);
  ps::SpGemmStats sf;
  // The on_symbolic hook receives the exact pre-epilogue shape.
  std::uint64_t pre_rows = 0;
  std::uint64_t pre_nnz = 0;
  auto capture = [&](std::uint64_t rows, std::uint64_t nnz) {
    pre_rows = rows;
    pre_nnz = nnz;
    return std::uint32_t{0};
  };
  auto Cf = ps::spgemm_hash2p_fused<ps::PlusTimes<int>>(
      A, B, IdentityEpilogue{}, capture, nullptr, nullptr, &sf);
  EXPECT_TRUE(Cf == Cref);
  // The fused kernel reports PRE-epilogue stats — with an identity
  // epilogue they coincide with the serial oracle's exactly.
  EXPECT_EQ(sf.products, sref.products);
  EXPECT_EQ(sf.out_nnz, sref.out_nnz);
  EXPECT_EQ(sf.calls, sref.calls);
  EXPECT_EQ(pre_rows, Cref.n_nonempty_rows());
  EXPECT_EQ(pre_nnz, Cref.nnz());
}

TEST(SpGemmFused, TopKEpilogueMatchesPostPrune) {
  constexpr std::uint32_t kKeep = 3;
  auto A = random_matrix(60, 60, 0.2, 72);
  auto B = random_matrix(60, 60, 0.2, 73);
  ps::SpGemmStats sref;
  auto Cref = ps::spgemm_hash<ps::PlusTimes<int>>(A, B, &sref);

  auto topk = [](std::size_t, ps::Index, const ps::Index* cols,
                 const int* vals, std::size_t n, ps::Index* out_cols,
                 int* out_vals) -> std::size_t {
    std::vector<std::pair<int, ps::Index>> top;
    top.reserve(n);
    for (std::size_t o = 0; o < n; ++o) top.push_back({vals[o], cols[o]});
    top = select_topk(std::move(top), kKeep);
    for (std::size_t o = 0; o < top.size(); ++o) {
      out_cols[o] = top[o].second;
      out_vals[o] = top[o].first;
    }
    return top.size();
  };
  ps::SpGemmStats sf;
  auto Cf = ps::spgemm_hash2p_fused<ps::PlusTimes<int>>(
      A, B, topk, [](std::uint64_t, std::uint64_t) { return kKeep; },
      nullptr, nullptr, &sf);

  // Reference: full product, then the same selection per row.
  std::vector<ps::Triple<int>> expect;
  for (std::size_t k = 0; k < Cref.n_nonempty_rows(); ++k) {
    std::vector<std::pair<int, ps::Index>> top;
    for (ps::Offset o = Cref.row_begin(k); o < Cref.row_end(k); ++o) {
      top.push_back({Cref.val(o), Cref.col(o)});
    }
    top = select_topk(std::move(top), kKeep);
    for (const auto& [v, c] : top) expect.push_back({Cref.row_id(k), c, v});
  }
  auto Eref =
      IntMat::from_triples(Cref.nrows(), Cref.ncols(), std::move(expect));
  EXPECT_TRUE(Cf == Eref);
  // Pruning must NOT leak into the SpGEMM stats (pre-epilogue counts).
  EXPECT_EQ(sf.products, sref.products);
  EXPECT_EQ(sf.out_nnz, sref.out_nnz);
}

TEST(SpGemmFused, SkipMaskDropsRowsAndTheirFlops) {
  auto A = random_matrix(50, 50, 0.25, 74);
  auto B = random_matrix(50, 50, 0.25, 75);
  std::vector<std::uint8_t> skip(50, 0);
  for (ps::Index r = 0; r < 50; r += 3) skip[r] = 1;
  auto Aact =
      A.pruned([&](ps::Index r, ps::Index, int) { return skip[r] == 0; });
  ps::SpGemmStats sref;
  auto Cref = ps::spgemm_hash2p<ps::PlusTimes<int>>(Aact, B, &sref);
  ps::SpGemmStats sf;
  auto Cf = ps::spgemm_hash2p_fused<ps::PlusTimes<int>>(
      A, B, IdentityEpilogue{}, no_cap, skip.data(), nullptr, &sf);
  EXPECT_TRUE(Cf == Cref);
  EXPECT_EQ(sf.products, sref.products);
  EXPECT_EQ(sf.out_nnz, sref.out_nnz);
}

TEST(SpGemmFused, WorkspaceReuseAndThreadCountBitIdentical) {
  auto A = random_matrix(150, 120, 0.15, 76);
  auto B = random_matrix(120, 140, 0.15, 77);
  auto Cref = ps::spgemm_hash2p_fused<ps::PlusTimes<int>>(
      A, B, IdentityEpilogue{}, no_cap);
  ps::SpGemmWorkspace<int> ws;
  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    pastis::util::ThreadPool pool(threads);
    for (int rep = 0; rep < 3; ++rep) {
      auto C = ps::spgemm_hash2p_fused<ps::PlusTimes<int>>(
          A, B, IdentityEpilogue{}, no_cap, nullptr, &ws, nullptr, &pool);
      EXPECT_TRUE(C == Cref) << "threads=" << threads << " rep=" << rep;
      // Donate the result's arrays back, as the MCL loop does.
      C.release_parts(ws.out_row_ids, ws.out_row_ptr, ws.out_cols,
                      ws.out_vals);
    }
  }
}

TEST(SpGemmFused, ZeroKeptRowsDropFromDirectory) {
  auto A = random_matrix(40, 40, 0.3, 78);
  auto B = random_matrix(40, 40, 0.3, 79);
  auto Cref = ps::spgemm_hash2p<ps::PlusTimes<int>>(A, B);
  auto drop_odd = [](std::size_t, ps::Index row, const ps::Index* cols,
                     const int* vals, std::size_t n, ps::Index* out_cols,
                     int* out_vals) -> std::size_t {
    if (row % 2 == 1) return 0;
    std::copy(cols, cols + n, out_cols);
    std::copy(vals, vals + n, out_vals);
    return n;
  };
  auto Cf = ps::spgemm_hash2p_fused<ps::PlusTimes<int>>(A, B, drop_odd,
                                                        no_cap);
  auto Eref =
      Cref.pruned([](ps::Index r, ps::Index, int) { return r % 2 == 0; });
  EXPECT_TRUE(Cf == Eref);
}

TEST(SpGemmFused, FewLookupsSearchRowIdsAndMatchSerialOracle) {
  // B has 4096 nonempty rows of 2^30, so the directory binary-searches B's
  // row ids while nnz(A) · ⌈log2 4096⌉ < 4096 (up to 341 nonzeros of A)
  // and builds its table from 342 on: one- and three-row A on both sides,
  // plain and fused (skip mask + column epilogue), every pool.
  pastis::util::Xoshiro256 rng(81);
  constexpr ps::Index kInner = 1u << 30;
  std::set<ps::Index> ids;
  while (ids.size() < 4096) {
    ids.insert(static_cast<ps::Index>(rng.below(kInner)));
  }
  const std::vector<ps::Index> b_rows(ids.begin(), ids.end());
  std::vector<ps::Triple<int>> tb;
  for (const ps::Index r : b_rows) {
    const int n = 1 + static_cast<int>(rng.below(3));
    for (int e = 0; e < n; ++e) {
      tb.push_back({r, static_cast<ps::Index>(rng.below(40)),
                    static_cast<int>(rng.below(5)) + 1});
    }
  }
  const auto B = IntMat::from_triples(kInner, 40, std::move(tb),
                                      [](int& a, const int& b) { a += b; });
  ASSERT_EQ(B.n_nonempty_rows(), 4096u);
  auto even_cols = [](std::size_t, ps::Index, const ps::Index* cols,
                      const int* vals, std::size_t n, ps::Index* out_cols,
                      int* out_vals) -> std::size_t {
    std::size_t kept = 0;
    for (std::size_t o = 0; o < n; ++o) {
      if (cols[o] % 2 == 0) {
        out_cols[kept] = cols[o];
        out_vals[kept++] = vals[o];
      }
    }
    return kept;
  };
  pastis::util::ThreadPool pool1(1), pool2(2), pool8(8);
  const std::array<pastis::util::ThreadPool*, 4> pools = {nullptr, &pool1,
                                                          &pool2, &pool8};
  for (const ps::Index a_rows : {1u, 3u}) {
    for (const std::size_t nnz : {340u, 341u, 342u, 400u}) {
      const std::string where = std::to_string(a_rows) + " rows, nnz " +
                                std::to_string(nnz);
      // Every other nonzero hits a row of B; the rest almost surely miss.
      std::set<std::pair<ps::Index, ps::Index>> seen;
      std::vector<ps::Triple<int>> ta;
      while (ta.size() < nnz) {
        const auto row = static_cast<ps::Index>(rng.below(a_rows));
        const ps::Index col =
            ta.size() % 2 == 0 ? b_rows[rng.below(b_rows.size())]
                               : static_cast<ps::Index>(rng.below(kInner));
        if (seen.insert({row, col}).second) {
          ta.push_back({row, col, static_cast<int>(rng.below(5)) + 1});
        }
      }
      const auto A = IntMat::from_triples(a_rows, kInner, std::move(ta));
      std::vector<std::uint8_t> skip(a_rows, 0);
      skip[a_rows / 2] = a_rows > 1;  // the middle row of three
      const auto A_live =
          A.pruned([&](ps::Index r, ps::Index, int) { return skip[r] == 0; });
      ps::SpGemmStats s_all, s_live;
      const auto C_all = ps::spgemm_hash<ps::PlusTimes<int>>(A, B, &s_all);
      const auto C_live =
          ps::spgemm_hash<ps::PlusTimes<int>>(A_live, B, &s_live);
      ASSERT_GT(s_live.products, 0u) << where;
      const auto C_even =
          C_live.pruned([](ps::Index, ps::Index c, int) { return c % 2 == 0; });
      for (auto* pool : pools) {
        const std::string at =
            where + ", pool " +
            std::to_string(pool != nullptr ? pool->size() : 0);
        ps::SpGemmStats s_plain, s_fused;
        EXPECT_TRUE(ps::spgemm_hash2p<ps::PlusTimes<int>>(A, B, &s_plain,
                                                          pool) == C_all)
            << at;
        expect_same_stats(s_plain, s_all, at);
        EXPECT_TRUE(ps::spgemm_hash2p_fused<ps::PlusTimes<int>>(
                        A, B, even_cols, no_cap, skip.data(), nullptr,
                        &s_fused, pool) == C_even)
            << at;
        expect_same_stats(s_fused, s_live, at);
      }
    }
  }
}

TEST(SpGemmFused, EmptyOperandsCallOnSymbolicOnceWithZeros) {
  IntMat A(10, 10);
  auto B = random_matrix(10, 10, 0.5, 80);
  int calls = 0;
  auto C = ps::spgemm_hash2p_fused<ps::PlusTimes<int>>(
      A, B, IdentityEpilogue{}, [&](std::uint64_t rows, std::uint64_t nnz) {
        ++calls;
        EXPECT_EQ(rows, 0u);
        EXPECT_EQ(nnz, 0u);
        return std::uint32_t{0};
      });
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(C.empty());
}
