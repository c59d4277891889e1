// Alphabets, the k-mer codec, window extraction and substitute k-mers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <queue>
#include <set>
#include <string_view>

#include "align/scoring.hpp"
#include "core/kmer_matrix.hpp"
#include "core/stages.hpp"
#include "dist_oracle.hpp"
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
  const pk::NeighborGenerator gen(a, codec,
                                  pastis::align::Scoring::pastis_default());
  // "MKV" appears at positions 0 and 6.
  std::vector<pastis::sparse::Triple<pastis::core::KmerPos>> row;
  pastis::core::extract_sequence_kmers("MKVAAAMKV", 0, a, codec, gen, 0, row);
  std::map<std::uint64_t, std::uint32_t> by_code;
  for (const auto& t : row) {
    EXPECT_TRUE(by_code.emplace(t.col, t.val.pos).second) << "duplicate code";
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

namespace {

/// Test-side copy of the substitute enumeration as it was first written: a
/// std::priority_queue of states that each own their substitution list,
/// compared by loss alone, every code rebuilt through KmerCodec::substitute,
/// the popped neighbours sorted by (loss, code).
class HeapReference {
 public:
  HeapReference(const pk::Alphabet& alphabet, const pk::KmerCodec& codec,
                const pastis::align::Scoring& scoring, int max_loss)
      : codec_(codec), max_loss_(max_loss) {
    const int sigma = alphabet.size();
    cand_.resize(static_cast<std::size_t>(sigma));
    for (int orig = 0; orig < sigma; ++orig) {
      const char oc = alphabet.representative(static_cast<std::uint8_t>(orig));
      const int self = scoring.score_chars(oc, oc);
      auto& list = cand_[static_cast<std::size_t>(orig)];
      for (int sub = 0; sub < sigma; ++sub) {
        if (sub == orig) continue;
        const char sc = alphabet.representative(static_cast<std::uint8_t>(sub));
        const int loss = std::max(0, self - scoring.score_chars(oc, sc));
        if (loss <= max_loss_) {
          list.push_back({loss, static_cast<std::uint8_t>(sub)});
        }
      }
      std::sort(list.begin(), list.end(), [](const Cand& a, const Cand& b) {
        return a.loss != b.loss ? a.loss < b.loss : a.residue < b.residue;
      });
    }
  }

  std::vector<pk::NeighborKmer> operator()(std::uint64_t code,
                                           std::size_t m) const {
    std::vector<pk::NeighborKmer> out;
    if (m == 0) return out;
    const auto residues = codec_.decode(code);
    const int k = codec_.k();
    struct Sub {
      int pos;
      int idx;
    };
    struct State {
      int loss;
      std::vector<Sub> subs;
    };
    auto sub_loss = [&](const Sub& s) {
      return cand_[residues[static_cast<std::size_t>(s.pos)]]
                  [static_cast<std::size_t>(s.idx)]
                      .loss;
    };
    auto cmp = [](const State& a, const State& b) { return a.loss > b.loss; };
    std::priority_queue<State, std::vector<State>, decltype(cmp)> heap(cmp);
    for (int p = 0; p < k; ++p) {
      if (!cand_[residues[static_cast<std::size_t>(p)]].empty()) {
        State s{0, {{p, 0}}};
        s.loss = sub_loss(s.subs.back());
        heap.push(std::move(s));
      }
    }
    while (!heap.empty() && out.size() < m) {
      State s = heap.top();
      heap.pop();
      if (s.loss > max_loss_) break;
      std::uint64_t v = code;
      for (const Sub& sub : s.subs) {
        const std::uint8_t orig = residues[static_cast<std::size_t>(sub.pos)];
        v = codec_.substitute(
            v, sub.pos, orig,
            cand_[orig][static_cast<std::size_t>(sub.idx)].residue);
      }
      out.push_back({v, s.loss});
      const Sub last = s.subs.back();
      const std::uint8_t last_orig =
          residues[static_cast<std::size_t>(last.pos)];
      if (static_cast<std::size_t>(last.idx) + 1 < cand_[last_orig].size()) {
        State nxt = s;
        nxt.subs.back().idx = last.idx + 1;
        nxt.loss = s.loss - sub_loss(last) + sub_loss(nxt.subs.back());
        heap.push(std::move(nxt));
      }
      for (int p = last.pos + 1; p < k; ++p) {
        if (cand_[residues[static_cast<std::size_t>(p)]].empty()) continue;
        State nxt = s;
        nxt.subs.push_back({p, 0});
        nxt.loss = s.loss + sub_loss(nxt.subs.back());
        heap.push(std::move(nxt));
      }
    }
    std::sort(out.begin(), out.end(),
              [](const pk::NeighborKmer& a, const pk::NeighborKmer& b) {
                return a.loss != b.loss ? a.loss < b.loss : a.code < b.code;
              });
    return out;
  }

 private:
  struct Cand {
    int loss;
    std::uint8_t residue;
  };
  const pk::KmerCodec& codec_;
  int max_loss_;
  std::vector<std::vector<Cand>> cand_;
};

}  // namespace

TEST(Neighbors, MatchesHeapReference) {
  // Which equal-loss neighbour takes the m-th slot is the heap's pop order,
  // not code order, so every code and loss must equal the reference's.
  pastis::gen::GenConfig g;
  g.n_sequences = 40;
  g.seed = 23;
  g.mean_length = 100.0;
  g.max_length = 300;
  const auto seqs = pastis::gen::generate_proteins(g).seqs;
  const auto scoring = pastis::align::Scoring::pastis_default();
  struct Case {
    pk::Alphabet::Kind alphabet;
    int k;
    int max_loss;
  };
  const std::array<Case, 4> cases = {
      Case{pk::Alphabet::Kind::kProtein25, 6, 3},
      Case{pk::Alphabet::Kind::kProtein25, 6, 1 << 20},
      Case{pk::Alphabet::Kind::kProtein20, 4, 1 << 20},
      Case{pk::Alphabet::Kind::kMurphy10, 3, 1 << 20}};
  for (const auto& c : cases) {
    const pk::Alphabet a(c.alphabet);
    const pk::KmerCodec codec(a.size(), c.k);
    const pk::NeighborGenerator gen(a, codec, scoring, c.max_loss);
    const HeapReference ref(a, codec, scoring, c.max_loss);
    std::set<std::uint64_t> codes;
    for (const auto& s : seqs) {
      for (const auto& h : pk::extract_kmers(s, a, codec)) codes.insert(h.code);
    }
    ASSERT_GT(codes.size(), 100u);
    std::vector<pk::NeighborKmer> out;
    for (const std::size_t m : {1u, 2u, 3u, 5u, 25u}) {
      for (const std::uint64_t code : codes) {
        const auto want = ref(code, m);
        // The appending form leaves what `out` held before untouched.
        out.assign(1, pk::NeighborKmer{~std::uint64_t{0}, -1});
        gen.nearest(code, m, out);
        ASSERT_EQ(out.size(), want.size() + 1)
            << a.name() << " k " << c.k << " m " << m << " code " << code;
        EXPECT_EQ(out.front().code, ~std::uint64_t{0});
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(out[i + 1].code, want[i].code)
              << a.name() << " k " << c.k << " max loss " << c.max_loss
              << " m " << m << " code " << code << " rank " << i;
          ASSERT_EQ(out[i + 1].loss, want[i].loss)
              << a.name() << " k " << c.k << " m " << m << " code " << code;
        }
      }
    }
  }
}

// ---- core::kmer_matrix_blocks, the one k-mer matrix producer ---------------

namespace {

namespace pc = pastis::core;
namespace pd = pastis::dist;
namespace ps = pastis::sparse;
namespace psim = pastis::sim;
using pastis::sim::ProcGrid;

void keep_min(pc::KmerPos& acc, const pc::KmerPos& v) {
  pc::keep_min_pos(acc, v);
}

/// Oracle of every sequence's k-mer matrix row, built without the library's
/// extraction: every window of kmer::extract_kmers, the first position of
/// each code, the HeapReference substitutes of each at that position, and
/// duplicates resolved with keep_min_pos in a map. Flattened in sequence
/// order (codes ascending within a row); row `empty_row` is skipped.
std::vector<ps::Triple<pc::KmerPos>> flat_triples(
    const std::vector<std::string>& seqs, std::size_t empty_row,
    const pc::PastisConfig& cfg) {
  const pk::Alphabet alphabet(cfg.alphabet);
  const pk::KmerCodec codec(alphabet.size(), cfg.k);
  const HeapReference subs(alphabet, codec, cfg.make_scoring(),
                           cfg.subs_max_loss);
  std::vector<ps::Triple<pc::KmerPos>> all;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    if (i == empty_row) continue;
    std::map<std::uint64_t, std::uint32_t> first;
    for (const auto& h : pk::extract_kmers(seqs[i], alphabet, codec)) {
      first.emplace(h.code, h.pos);
    }
    std::map<ps::Index, pc::KmerPos> row;
    const auto put = [&](std::uint64_t code, std::uint32_t pos) {
      const auto [it, fresh] =
          row.emplace(static_cast<ps::Index>(code), pc::KmerPos{pos});
      if (!fresh) pc::keep_min_pos(it->second, pc::KmerPos{pos});
    };
    for (const auto& [code, pos] : first) {
      put(code, pos);
      for (const auto& nb :
           subs(code, static_cast<std::size_t>(cfg.subs_kmers))) {
        put(nb.code, pos);
      }
    }
    for (const auto& [col, v] : row) {
      all.push_back({static_cast<ps::Index>(i), col, v});
    }
  }
  return all;
}

ps::Index kmer_space(const pc::PastisConfig& cfg) {
  const pk::Alphabet alphabet(cfg.alphabet);
  return static_cast<ps::Index>(pk::KmerCodec(alphabet.size(), cfg.k).space());
}

/// Oracle for kmer_matrix_blocks: the flattened triples filtered and
/// re-indexed per block, then built through from_triples with keep_min_pos.
std::vector<ps::SpMat<pc::KmerPos>> routed_blocks(
    const std::vector<std::string>& seqs, std::size_t empty_row,
    const std::vector<ps::Index>& bounds, int kmer_parts, bool transposed,
    const pc::PastisConfig& cfg) {
  const auto all = flat_triples(seqs, empty_row, cfg);
  const ps::Index space = kmer_space(cfg);
  std::vector<ps::SpMat<pc::KmerPos>> blocks;
  for (std::size_t si = 0; si + 1 < bounds.size(); ++si) {
    for (int kj = 0; kj < kmer_parts; ++kj) {
      const ps::Index r0 = bounds[si];
      const ps::Index r1 = bounds[si + 1];
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
          std::move(t), keep_min));
    }
  }
  return blocks;
}

}  // namespace

TEST(KmerMatrix, ExtractionRowsAreSortedDistinctAndMatchOracle) {
  pastis::gen::GenConfig g;
  g.n_sequences = 30;
  g.seed = 41;
  g.mean_length = 120.0;
  g.max_length = 400;
  auto seqs = pastis::gen::generate_proteins(g).seqs;
  seqs[2] = "AAAAAAASAAAAAAGAAAAAA";  // substitutes collide with exact k-mers
  seqs[5] = "MKV";                    // shorter than k: an empty row
  for (const int subs : {0, 1, 2, 5}) {
    pc::PastisConfig cfg;
    cfg.subs_kmers = subs;
    const auto want = flat_triples(seqs, seqs.size(), cfg);
    const pk::Alphabet alphabet(cfg.alphabet);
    const pk::KmerCodec codec(alphabet.size(), cfg.k);
    const pk::NeighborGenerator neighbors(alphabet, codec, cfg.make_scoring(),
                                          cfg.subs_max_loss);
    std::vector<ps::Triple<pc::KmerPos>> got;
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      const std::size_t before = got.size();
      pc::extract_sequence_kmers(seqs[i], static_cast<ps::Index>(i), alphabet,
                                 codec, neighbors, subs, got);
      for (std::size_t o = before; o < got.size(); ++o) {
        EXPECT_EQ(got[o].row, i);
        if (o > before) {
          EXPECT_LT(got[o - 1].col, got[o].col)
              << "subs " << subs << " row " << i << " not code-sorted";
        }
      }
    }
    EXPECT_TRUE(got == want) << "subs " << subs;
  }
}

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
    std::vector<ps::Index> bounds;
    int kmer_parts;
    bool transposed;
  };
  // Even cuts, and uneven ones with empty parts.
  const std::array<Cut, 6> cuts = {
      Cut{{0, 40}, 1, false},         Cut{{0, 40}, 5, true},
      Cut{{0, 13, 26, 40}, 3, false}, Cut{{0, 20, 40}, 4, true},
      Cut{{0, 5, 5, 31, 40}, 2, false}, Cut{{0, 0, 17, 40, 40}, 3, true}};
  for (const int subs : {0, 2}) {
    pc::PastisConfig cfg;
    cfg.subs_kmers = subs;
    for (const auto& c : cuts) {
      const auto want = routed_blocks(seqs, empty_row, c.bounds,
                                      c.kmer_parts, c.transposed, cfg);
      std::uint64_t nnz = 0;
      for (const auto& b : want) nnz += b.nnz();
      ASSERT_GT(nnz, 0u);
      for (auto* pool : pools) {
        const auto got = pc::kmer_matrix_blocks(
            c.bounds, seq_of, c.kmer_parts, c.transposed, cfg, pool);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t b = 0; b < got.size(); ++b) {
          EXPECT_TRUE(got[b] == want[b])
              << "subs " << subs << " cut " << c.bounds.size() - 1 << "x"
              << c.kmer_parts << (c.transposed ? "T" : "") << " block " << b
              << " pool " << (pool != nullptr ? pool->size() : 0);
        }
      }
    }
  }
  // Bounds with fewer than two entries, not starting at 0, or decreasing.
  pc::PastisConfig cfg;
  for (const auto& bad : {std::vector<ps::Index>{}, std::vector<ps::Index>{0},
                          std::vector<ps::Index>{1, 40},
                          std::vector<ps::Index>{0, 20, 13, 40}}) {
    EXPECT_THROW((void)pc::kmer_matrix_blocks(bad, seq_of, 1, false, cfg,
                                              nullptr),
                 std::invalid_argument);
  }
}

TEST(KmerMatrix, StripesMatchGlobalTripleReshapes) {
  // Oracle: the whole A built from the flattened triples through
  // from_global_triples, transposed and cut into stripes through global
  // triples, with the set-up priced from its whole tiles (build, transpose,
  // row split when br > 1, column split when bc > 1).
  pastis::gen::GenConfig g;
  g.n_sequences = 61;
  g.seed = 31;
  g.mean_length = 80.0;
  g.max_length = 240;
  auto pool_seqs = pastis::gen::generate_proteins(g).seqs;
  pool_seqs[0] = "AAAAAAASAAAAAAGAAAAAA";  // keep_min_pos decides entries
  pastis::util::ThreadPool pool1(1), pool3(3);
  const std::array<pastis::util::ThreadPool*, 3> pools = {nullptr, &pool1,
                                                          &pool3};
  // (67, 2) cuts more row stripes than there are sequences.
  const std::array<std::pair<int, int>, 6> blockings = {
      {{1, 1}, {2, 2}, {3, 2}, {7, 3}, {5, 8}, {67, 2}}};
  const psim::MachineModel model;
  for (const int subs : {0, 2}) {
    pc::PastisConfig cfg;
    cfg.subs_kmers = subs;
    const ps::Index space = kmer_space(cfg);
    for (const std::size_t n : {0u, 1u, 37u, 61u}) {
      const std::vector<std::string> seqs(pool_seqs.begin(),
                                          pool_seqs.begin() + n);
      const auto triples = flat_triples(seqs, n, cfg);
      for (const int p : {1, 4, 9, 16}) {
        const pc::DistSeqStore store(seqs, p);
        const auto A = pd::DistSpMat<pc::KmerPos>::from_global_triples(
            ProcGrid(p), static_cast<ps::Index>(n), space, triples, keep_min);
        const auto At = pastis::test::transpose_global(A);
        for (const auto& [br, bc] : blockings) {
          const auto want_a = pastis::test::stripes_global(A, br, true);
          const auto want_b = pastis::test::stripes_global(At, bc, false);
          std::vector<psim::RankClock> want(static_cast<std::size_t>(p));
          for (int r = 0; r < p; ++r) {
            auto& c = want[static_cast<std::size_t>(r)];
            const auto step = [&](std::uint64_t streamed, std::uint64_t wire) {
              c.charge(psim::Comp::kSparseOther,
                       model.sparse_stream_time(streamed) +
                           model.p2p_time(wire));
              c.bytes_sent += wire;
              c.bytes_recv += wire;
            };
            const std::uint64_t a = A.local(r).bytes();
            const std::uint64_t at = At.local(r).bytes();
            step(store.range_bytes(ProcGrid::split_point(store.size(), p, r),
                                   ProcGrid::split_point(store.size(), p,
                                                         r + 1)) +
                     2 * a,
                 a);
            step(2 * a, a);
            if (br > 1) step(2 * a, a);
            if (bc > 1) step(2 * at, at);
          }
          for (auto* pool : pools) {
            const std::string where =
                "subs " + std::to_string(subs) + " n " + std::to_string(n) +
                " p " + std::to_string(p) + " blocking " +
                std::to_string(br) + "x" + std::to_string(bc) + " pool " +
                std::to_string(pool != nullptr ? pool->size() : 0);
            psim::SimRuntime rt(p, model, pool);
            const auto got =
                pc::kmer_matrix_stripes(rt, store, br, bc, cfg, pool);
            ASSERT_EQ(got.a.size(), want_a.size()) << where;
            ASSERT_EQ(got.b.size(), want_b.size()) << where;
            for (int r = 0; r < p; ++r) {
              for (std::size_t s = 0; s < want_a.size(); ++s) {
                EXPECT_TRUE(got.a[s].local(r) == want_a[s].local(r))
                    << where << " A stripe " << s << " rank " << r;
              }
              for (std::size_t s = 0; s < want_b.size(); ++s) {
                EXPECT_TRUE(got.b[s].local(r) == want_b[s].local(r))
                    << where << " Aᵀ stripe " << s << " rank " << r;
              }
              const auto& w = want[static_cast<std::size_t>(r)];
              EXPECT_EQ(rt.clock(r).get(psim::Comp::kSparseOther),
                        w.get(psim::Comp::kSparseOther))
                  << where << " rank " << r;
              EXPECT_EQ(rt.clock(r).bytes_sent, w.bytes_sent) << where;
              EXPECT_EQ(rt.clock(r).bytes_recv, w.bytes_recv) << where;
            }
          }
        }
      }
    }
  }
}
