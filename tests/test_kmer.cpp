// Alphabets, the k-mer codec, window extraction and substitute k-mers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string_view>

#include "align/scoring.hpp"
#include "core/kmer_matrix.hpp"
#include "core/stages.hpp"
#include "gen/protein_gen.hpp"
#include "kmer/alphabet.hpp"
#include "kmer/codec.hpp"
#include "kmer/extract.hpp"
#include "kmer/nearest.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pk = pastis::kmer;

TEST(Alphabet, Sizes) {
  EXPECT_EQ(pk::Alphabet(pk::Alphabet::Kind::kProtein25).size(), 25);
  EXPECT_EQ(pk::Alphabet(pk::Alphabet::Kind::kProtein20).size(), 20);
  EXPECT_EQ(pk::Alphabet(pk::Alphabet::Kind::kMurphy10).size(), 10);
}

TEST(Alphabet, Protein25EncodesEverything) {
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein25);
  for (char c : std::string("ARNDCQEGHILKMFPSTWYVBZX*U")) {
    EXPECT_NE(a.encode(c), pk::Alphabet::kInvalid) << c;
  }
  // Unknown letters fold to X rather than invalidating windows.
  EXPECT_EQ(a.encode('?'), pk::Alphabet::kInvalid);
  EXPECT_EQ(a.encode('h'), a.encode('H'));
  EXPECT_EQ(a.encode('O'), a.encode('K'));
}

TEST(Alphabet, Protein20RejectsAmbiguity) {
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein20);
  EXPECT_EQ(a.encode('B'), pk::Alphabet::kInvalid);
  EXPECT_EQ(a.encode('Z'), pk::Alphabet::kInvalid);
  EXPECT_EQ(a.encode('X'), pk::Alphabet::kInvalid);
  EXPECT_EQ(a.encode('*'), pk::Alphabet::kInvalid);
  EXPECT_NE(a.encode('U'), pk::Alphabet::kInvalid);  // folds to C
  EXPECT_EQ(a.encode('U'), a.encode('C'));
}

TEST(Alphabet, MurphyClassesCollapse) {
  const pk::Alphabet a(pk::Alphabet::Kind::kMurphy10);
  // {LVIM}, {ST}, {FYW}, {EDNQ}, {KR} share codes.
  EXPECT_EQ(a.encode('L'), a.encode('V'));
  EXPECT_EQ(a.encode('L'), a.encode('I'));
  EXPECT_EQ(a.encode('S'), a.encode('T'));
  EXPECT_EQ(a.encode('F'), a.encode('Y'));
  EXPECT_EQ(a.encode('E'), a.encode('D'));
  EXPECT_EQ(a.encode('E'), a.encode('B'));  // B ~ D/N
  EXPECT_EQ(a.encode('K'), a.encode('R'));
  EXPECT_NE(a.encode('A'), a.encode('G'));
  EXPECT_EQ(a.encode('X'), pk::Alphabet::kInvalid);
}

TEST(Alphabet, RepresentativeRoundTrip) {
  for (auto kind : {pk::Alphabet::Kind::kProtein25, pk::Alphabet::Kind::kProtein20,
                    pk::Alphabet::Kind::kMurphy10}) {
    const pk::Alphabet a(kind);
    for (int c = 0; c < a.size(); ++c) {
      const char rep = a.representative(static_cast<std::uint8_t>(c));
      EXPECT_EQ(a.encode(rep), c) << a.name() << " code " << c;
    }
  }
}

TEST(Codec, PaperKmerSpace) {
  // Table IV: the k-mer matrix has 244,140,625 columns = 25^6.
  const pk::KmerCodec codec(25, 6);
  EXPECT_EQ(codec.space(), 244140625u);
}

TEST(Codec, EncodeDecodeRoundTrip) {
  pastis::util::Xoshiro256 rng(3);
  const pk::KmerCodec codec(25, 6);
  for (int t = 0; t < 200; ++t) {
    std::vector<std::uint8_t> codes(6);
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng.below(25));
    const auto v = codec.encode(codes);
    EXPECT_LT(v, codec.space());
    EXPECT_EQ(codec.decode(v), codes);
  }
}

TEST(Codec, LexicographicOrderIsNumeric) {
  const pk::KmerCodec codec(4, 3);
  std::uint64_t prev = 0;
  bool first = true;
  for (std::uint8_t a = 0; a < 4; ++a) {
    for (std::uint8_t b = 0; b < 4; ++b) {
      for (std::uint8_t c = 0; c < 4; ++c) {
        const std::uint64_t v = codec.encode(std::vector<std::uint8_t>{a, b, c});
        if (!first) {
          EXPECT_EQ(v, prev + 1);
        }
        prev = v;
        first = false;
      }
    }
  }
}

TEST(Codec, SubstituteChangesOnePosition) {
  pastis::util::Xoshiro256 rng(5);
  const pk::KmerCodec codec(20, 6);
  for (int t = 0; t < 100; ++t) {
    std::vector<std::uint8_t> codes(6);
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng.below(20));
    const auto v = codec.encode(codes);
    const int pos = static_cast<int>(rng.below(6));
    const auto sub = static_cast<std::uint8_t>(rng.below(20));
    const auto v2 =
        codec.substitute(v, pos, codes[static_cast<std::size_t>(pos)], sub);
    auto expected = codes;
    expected[static_cast<std::size_t>(pos)] = sub;
    EXPECT_EQ(codec.decode(v2), expected);
  }
}

TEST(Codec, RejectsOverflowAndBadArgs) {
  EXPECT_THROW(pk::KmerCodec(25, 16), std::invalid_argument);
  EXPECT_THROW(pk::KmerCodec(1, 3), std::invalid_argument);
  EXPECT_THROW(pk::KmerCodec(25, 0), std::invalid_argument);
}

TEST(Extract, SlidingWindowsMatchNaive) {
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein20);
  const pk::KmerCodec codec(a.size(), 3);
  const std::string seq = "MKVLAETGW";
  const auto hits = pk::extract_kmers(seq, a, codec);
  ASSERT_EQ(hits.size(), seq.size() - 2);
  for (std::size_t i = 0; i + 3 <= seq.size(); ++i) {
    std::vector<std::uint8_t> codes;
    for (std::size_t t = i; t < i + 3; ++t) codes.push_back(a.encode(seq[t]));
    EXPECT_EQ(hits[i].code, codec.encode(codes));
    EXPECT_EQ(hits[i].pos, i);
  }
}

TEST(Extract, SkipsInvalidWindows) {
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein20);
  const pk::KmerCodec codec(a.size(), 3);
  // 'X' is invalid in Protein20: windows overlapping it are skipped.
  const auto hits = pk::extract_kmers("MKVXAETG", a, codec);
  std::set<std::uint32_t> positions;
  for (const auto& h : hits) positions.insert(h.pos);
  EXPECT_EQ(positions, (std::set<std::uint32_t>{0, 4, 5}));
}

TEST(Extract, ShortSequenceYieldsNothing) {
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein20);
  const pk::KmerCodec codec(a.size(), 6);
  EXPECT_TRUE(pk::extract_kmers("MKV", a, codec).empty());
}

TEST(Extract, RollingEncodeMatchesDirect) {
  pastis::util::Xoshiro256 rng(7);
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein25);
  const pk::KmerCodec codec(a.size(), 6);
  static const std::string aas = "ARNDCQEGHILKMFPSTWYV";
  std::string seq(300, 'A');
  for (auto& c : seq) c = aas[rng.below(aas.size())];
  const auto hits = pk::extract_kmers(seq, a, codec);
  ASSERT_EQ(hits.size(), seq.size() - 5);
  for (const auto& h : hits) {
    std::vector<std::uint8_t> codes;
    for (std::uint32_t t = h.pos; t < h.pos + 6; ++t) {
      codes.push_back(a.encode(seq[t]));
    }
    EXPECT_EQ(h.code, codec.encode(codes));
  }
}

TEST(Extract, DistinctKeepsFirstPosition) {
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein20);
  const pk::KmerCodec codec(a.size(), 3);
  // "MKV" appears at positions 0 and 6.
  const auto hits = pk::extract_distinct_kmers("MKVAAAMKV", a, codec);
  std::map<std::uint64_t, std::uint32_t> by_code;
  for (const auto& h : hits) {
    EXPECT_TRUE(by_code.emplace(h.code, h.pos).second) << "duplicate code";
  }
  std::vector<std::uint8_t> mkv = {a.encode('M'), a.encode('K'), a.encode('V')};
  EXPECT_EQ(by_code.at(codec.encode(mkv)), 0u);
}

TEST(Neighbors, SortedByLossAndDeterministic) {
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein20);
  const pk::KmerCodec codec(a.size(), 4);
  const auto scoring = pastis::align::Scoring::pastis_default();
  const pk::NeighborGenerator gen(a, codec, scoring, 100);

  std::vector<std::uint8_t> codes = {a.encode('M'), a.encode('K'),
                                     a.encode('V'), a.encode('L')};
  const auto v = codec.encode(codes);
  const auto n1 = gen.nearest(v, 25);
  const auto n2 = gen.nearest(v, 25);
  ASSERT_EQ(n1.size(), 25u);
  for (std::size_t i = 0; i < n1.size(); ++i) {
    EXPECT_EQ(n1[i].code, n2[i].code);
    if (i > 0) {
      EXPECT_GE(n1[i].loss, n1[i - 1].loss);
    }
    EXPECT_NE(n1[i].code, v);  // the k-mer itself is excluded
  }
}

TEST(Neighbors, ExactTopMAgainstBruteForce) {
  // Small alphabet/k so the full neighbourhood is enumerable.
  const pk::Alphabet a(pk::Alphabet::Kind::kMurphy10);
  const pk::KmerCodec codec(a.size(), 3);
  const auto scoring = pastis::align::Scoring::pastis_default();
  const int max_loss = 1000;
  const pk::NeighborGenerator gen(a, codec, scoring, max_loss);

  auto loss_of = [&](std::uint64_t x, std::uint64_t y) {
    const auto cx = codec.decode(x);
    const auto cy = codec.decode(y);
    int loss = 0;
    for (int i = 0; i < 3; ++i) {
      const char ox = a.representative(cx[static_cast<std::size_t>(i)]);
      const char oy = a.representative(cy[static_cast<std::size_t>(i)]);
      loss += std::max(0, scoring.score_chars(ox, ox) -
                              scoring.score_chars(ox, oy));
    }
    return loss;
  };

  pastis::util::Xoshiro256 rng(11);
  for (int t = 0; t < 5; ++t) {
    const std::uint64_t v = rng.below(codec.space());
    const std::size_t m = 40;
    const auto got = gen.nearest(v, m);
    // Brute force all σ^k - 1 neighbours.
    std::vector<int> all;
    for (std::uint64_t y = 0; y < codec.space(); ++y) {
      if (y != v) all.push_back(loss_of(v, y));
    }
    std::sort(all.begin(), all.end());
    ASSERT_EQ(got.size(), m);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(got[i].loss, all[i]) << "rank " << i;
    }
  }
}

TEST(Neighbors, MaxLossCapsResults) {
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein20);
  const pk::KmerCodec codec(a.size(), 4);
  const auto scoring = pastis::align::Scoring::pastis_default();
  const pk::NeighborGenerator gen(a, codec, scoring, 2);
  std::vector<std::uint8_t> codes = {a.encode('W'), a.encode('W'),
                                     a.encode('W'), a.encode('W')};
  const auto res = gen.nearest(codec.encode(codes), 1000);
  for (const auto& n : res) EXPECT_LE(n.loss, 2);
}

TEST(Neighbors, ZeroMReturnsNothing) {
  const pk::Alphabet a(pk::Alphabet::Kind::kProtein20);
  const pk::KmerCodec codec(a.size(), 3);
  const auto scoring = pastis::align::Scoring::pastis_default();
  const pk::NeighborGenerator gen(a, codec, scoring);
  EXPECT_TRUE(gen.nearest(0, 0).empty());
}

// ---- core::kmer_matrix_blocks, the one k-mer matrix producer ---------------

namespace {

namespace pc = pastis::core;
namespace ps = pastis::sparse;
using pastis::sim::ProcGrid;

/// Oracle for kmer_matrix_blocks: every sequence's extract_sequence_kmers
/// triples flattened, filtered and re-indexed per block, then built through
/// from_triples with keep_min_pos. Row `empty_row` is skipped.
std::vector<ps::SpMat<pc::KmerPos>> routed_blocks(
    const std::vector<std::string>& seqs, std::size_t empty_row,
    int seq_parts, int kmer_parts, bool transposed,
    const pc::PastisConfig& cfg) {
  const pk::Alphabet alphabet(cfg.alphabet);
  const pk::KmerCodec codec(alphabet.size(), cfg.k);
  const pk::NeighborGenerator neighbors(alphabet, codec, cfg.make_scoring(),
                                        cfg.subs_max_loss);
  std::vector<ps::Triple<pc::KmerPos>> all;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    if (i == empty_row) continue;
    pc::extract_sequence_kmers(seqs[i], static_cast<ps::Index>(i), alphabet,
                               codec, neighbors, cfg.subs_kmers, all);
  }
  const auto n = static_cast<ps::Index>(seqs.size());
  const auto space = static_cast<ps::Index>(codec.space());
  std::vector<ps::SpMat<pc::KmerPos>> blocks;
  for (int si = 0; si < seq_parts; ++si) {
    for (int kj = 0; kj < kmer_parts; ++kj) {
      const ps::Index r0 = ProcGrid::split_point(n, seq_parts, si);
      const ps::Index r1 = ProcGrid::split_point(n, seq_parts, si + 1);
      const ps::Index c0 = ProcGrid::split_point(space, kmer_parts, kj);
      const ps::Index c1 = ProcGrid::split_point(space, kmer_parts, kj + 1);
      std::vector<ps::Triple<pc::KmerPos>> t;
      for (const auto& x : all) {
        if (x.row < r0 || x.row >= r1 || x.col < c0 || x.col >= c1) continue;
        const ps::Index r = x.row - r0;
        const ps::Index c = x.col - c0;
        t.push_back(transposed ? ps::Triple<pc::KmerPos>{c, r, x.val}
                               : ps::Triple<pc::KmerPos>{r, c, x.val});
      }
      blocks.push_back(ps::SpMat<pc::KmerPos>::from_triples(
          transposed ? c1 - c0 : r1 - r0, transposed ? r1 - r0 : c1 - c0,
          std::move(t), [](pc::KmerPos& acc, const pc::KmerPos& v) {
            pc::keep_min_pos(acc, v);
          }));
    }
  }
  return blocks;
}

}  // namespace

TEST(KmerMatrix, BlocksMatchRoutedTriples) {
  pastis::gen::GenConfig g;
  g.n_sequences = 40;
  g.seed = 29;
  g.mean_length = 90.0;
  g.max_length = 300;
  auto seqs = pastis::gen::generate_proteins(g).seqs;
  // Low-complexity rows whose substitute k-mers collide with their own
  // k-mers at other positions, so keep_min_pos decides entries.
  seqs[3] = "AAAAAAASAAAAAAGAAAAAA";
  seqs[30] = "LLLLLLILLLLLLVLLLLL";
  const std::size_t empty_row = 7;
  const auto seq_of = [&](ps::Index i) {
    return i == empty_row ? std::string_view() : std::string_view(seqs[i]);
  };
  pastis::util::ThreadPool pool1(1), pool3(3);
  const std::array<pastis::util::ThreadPool*, 3> pools = {nullptr, &pool1,
                                                          &pool3};
  struct Cut {
    int seq_parts, kmer_parts;
    bool transposed;
  };
  const std::array<Cut, 4> cuts = {
      Cut{1, 1, false}, Cut{1, 5, true}, Cut{3, 3, false}, Cut{2, 4, true}};
  for (const int subs : {0, 2}) {
    pc::PastisConfig cfg;
    cfg.subs_kmers = subs;
    for (const auto& c : cuts) {
      const auto want = routed_blocks(seqs, empty_row, c.seq_parts,
                                      c.kmer_parts, c.transposed, cfg);
      std::uint64_t nnz = 0;
      for (const auto& b : want) nnz += b.nnz();
      ASSERT_GT(nnz, 0u);
      for (auto* pool : pools) {
        const auto got = pc::kmer_matrix_blocks(
            static_cast<ps::Index>(seqs.size()), seq_of, c.seq_parts,
            c.kmer_parts, c.transposed, cfg, pool);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t b = 0; b < got.size(); ++b) {
          EXPECT_TRUE(got[b] == want[b])
              << "subs " << subs << " cut " << c.seq_parts << "x"
              << c.kmer_parts << (c.transposed ? "T" : "") << " block " << b
              << " pool " << (pool != nullptr ? pool->size() : 0);
        }
      }
    }
  }
}
