// FASTA parsing/writing, the MPI-IO chunk-ownership rule, and graph IO.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "io/fasta.hpp"
#include "io/graph_io.hpp"

namespace pio = pastis::io;

namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("pastis_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
  static inline int counter_ = 0;
};

}  // namespace

TEST(Fasta, ParseBasic) {
  const auto recs = pio::parse_fasta(">s1 first sequence\nMKVL\nAETG\n>s2\nWWWW\n");
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].id, "s1");
  EXPECT_EQ(recs[0].comment, "first sequence");
  EXPECT_EQ(recs[0].seq, "MKVLAETG");
  EXPECT_EQ(recs[1].id, "s2");
  EXPECT_TRUE(recs[1].comment.empty());
  EXPECT_EQ(recs[1].seq, "WWWW");
}

TEST(Fasta, ParseCrlfAndNoTrailingNewline) {
  const auto recs = pio::parse_fasta(">a\r\nMK\r\nVL\r\n>b\r\nGG");
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].seq, "MKVL");
  EXPECT_EQ(recs[1].seq, "GG");
}

TEST(Fasta, ParseEmptyAndGarbage) {
  EXPECT_TRUE(pio::parse_fasta("").empty());
  EXPECT_TRUE(pio::parse_fasta("no header at all\n").empty());
}

TEST(Fasta, WriteReadRoundTrip) {
  TempDir dir;
  std::vector<pio::FastaRecord> recs = {
      {"seq0", "metagenome sample", std::string(200, 'M')},
      {"seq1", "", "MKVLAETGWT"},
      {"seq2", "x y z", std::string(95, 'W')},
  };
  const auto path = dir.file("round.fa");
  pio::write_fasta(path, recs, 60);
  const auto back = pio::read_fasta(path);
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(back[i].id, recs[i].id);
    EXPECT_EQ(back[i].comment, recs[i].comment);
    EXPECT_EQ(back[i].seq, recs[i].seq);
  }
}

TEST(Fasta, ReadMissingFileThrows) {
  EXPECT_THROW(pio::read_fasta("/nonexistent/nope.fa"), std::runtime_error);
  EXPECT_THROW((void)pio::file_size_bytes("/nonexistent/nope.fa"),
               std::runtime_error);
}

class FastaChunkSweep : public ::testing::TestWithParam<int> {};

TEST_P(FastaChunkSweep, PartitionCoversFileExactlyOnce) {
  // The MPI-IO ownership rule: each record belongs to the byte range
  // containing its '>' — any partition of the file reads every record
  // exactly once, in order.
  TempDir dir;
  std::vector<pio::FastaRecord> recs;
  for (int i = 0; i < 37; ++i) {
    recs.push_back({"id" + std::to_string(i), "",
                    std::string(10 + (i * 13) % 90, "ARNDC"[i % 5])});
  }
  const auto path = dir.file("chunks.fa");
  pio::write_fasta(path, recs, 40);

  const int p = GetParam();
  const std::uint64_t size = pio::file_size_bytes(path);
  std::vector<pio::FastaRecord> merged;
  for (int q = 0; q < p; ++q) {
    const std::uint64_t b = size * q / p;
    const std::uint64_t e = size * (q + 1) / p;
    const auto chunk = pio::read_fasta_chunk(path, b, e - b);
    merged.insert(merged.end(), chunk.begin(), chunk.end());
  }
  ASSERT_EQ(merged.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(merged[i].id, recs[i].id);
    EXPECT_EQ(merged[i].seq, recs[i].seq);
  }
}

INSTANTIATE_TEST_SUITE_P(Partitions, FastaChunkSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 64));

TEST(Fasta, ChunkBeyondEofIsEmpty) {
  TempDir dir;
  const auto path = dir.file("small.fa");
  pio::write_fasta(path, {{"a", "", "MKVL"}});
  const auto size = pio::file_size_bytes(path);
  EXPECT_TRUE(pio::read_fasta_chunk(path, size, 100).empty());
}

TEST(GraphIo, WriteReadRoundTrip) {
  TempDir dir;
  std::vector<pio::SimilarityEdge> edges = {
      {0, 5, 0.92f, 0.88f, 314},
      {2, 3, 0.31f, 0.71f, 42},
      {1, 9, 1.0f, 1.0f, 1000},
  };
  const auto path = dir.file("graph.tsv");
  pio::write_similarity_graph(path, edges);
  const auto back = pio::read_similarity_graph(path);
  ASSERT_EQ(back.size(), edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(back[i].seq_a, edges[i].seq_a);
    EXPECT_EQ(back[i].seq_b, edges[i].seq_b);
    EXPECT_NEAR(back[i].ani, edges[i].ani, 1e-4);
    EXPECT_NEAR(back[i].cov, edges[i].cov, 1e-4);
    EXPECT_EQ(back[i].score, edges[i].score);
  }
}

TEST(GraphIo, MalformedOrTruncatedLinesThrowWithTheirLine) {
  TempDir dir;
  const auto expect_line_error = [&](const std::string& name,
                                     const std::string& text,
                                     const std::string& line) {
    const auto path = dir.file(name);
    {
      std::ofstream out(path);
      out << text;
    }
    try {
      (void)pio::read_similarity_graph(path);
      ADD_FAILURE() << name << " read without an error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line " + line), std::string::npos)
          << name << ": " << e.what();
    }
  };
  // Line 2 is malformed; the reader used to stop there and return 1 edge.
  expect_line_error("bad.tsv",
                    "0\t1\t0.5\t0.9\t40\n1\tx\t0.5\t0.9\t40\n"
                    "2\t3\t0.5\t0.9\t40\n",
                    "2");
  // The last line is cut after its third field.
  expect_line_error("cut.tsv", "0\t1\t0.5\t0.9\t40\n1\t2\t0.5", "2");
  expect_line_error("first.tsv", "edge list\n", "1");

  // A complete last line without its newline still reads, and so does an
  // empty file.
  const auto tail = dir.file("tail.tsv");
  {
    std::ofstream out(tail);
    out << "0\t1\t0.5\t0.9\t40\n1\t2\t0.25\t0.75\t-3";
  }
  const auto edges = pio::read_similarity_graph(tail);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[1].seq_b, 2u);
  EXPECT_EQ(edges[1].score, -3);
  EXPECT_FLOAT_EQ(edges[1].ani, 0.25f);
  const auto empty = dir.file("empty.tsv");
  pio::write_similarity_graph(empty, {});
  EXPECT_TRUE(pio::read_similarity_graph(empty).empty());
}

TEST(GraphIo, SortEdgesCanonical) {
  std::vector<pio::SimilarityEdge> edges = {
      {3, 4, 0, 0, 0}, {1, 2, 0, 0, 0}, {1, 1, 0, 0, 0}, {0, 9, 0, 0, 0}};
  pio::sort_edges(edges);
  EXPECT_EQ(edges[0].seq_a, 0u);
  EXPECT_EQ(edges[1].seq_a, 1u);
  EXPECT_EQ(edges[1].seq_b, 1u);
  EXPECT_EQ(edges[2].seq_b, 2u);
  EXPECT_EQ(edges[3].seq_a, 3u);
}

TEST(ClusterIo, AssignmentRoundTripAndCanonicalRenumbering) {
  TempDir dir;
  // Arbitrary cluster ids; the writer renumbers by smallest member:
  // seq 0's cluster (42) becomes 0, seq 1's (7) becomes 1, seq 3's (9)
  // becomes 2.
  const std::vector<std::uint32_t> raw = {42, 7, 42, 9, 7, 42};
  const auto path = dir.file("clusters.tsv");
  pio::write_cluster_assignments(path, raw);
  const auto back = pio::read_cluster_assignments(path);
  EXPECT_EQ(back, (std::vector<std::uint32_t>{0, 1, 0, 2, 1, 0}));

  // Canonical input is a fixed point: write(read(x)) == read(x).
  pio::write_cluster_assignments(path, back);
  EXPECT_EQ(pio::read_cluster_assignments(path), back);

  // The file is the documented TSV.
  std::ifstream in(path);
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line, "0\t0");
}

TEST(ClusterIo, EmptyAndMissing) {
  TempDir dir;
  const auto path = dir.file("empty.tsv");
  pio::write_cluster_assignments(path, {});
  EXPECT_TRUE(pio::read_cluster_assignments(path).empty());
  EXPECT_THROW((void)pio::read_cluster_assignments("/nonexistent/c.tsv"),
               std::runtime_error);
}

TEST(ClusterIo, MalformedLinesThrowInsteadOfTruncating) {
  TempDir dir;
  const auto bad = dir.file("bad.tsv");
  {
    std::ofstream out(bad);
    out << "0\t0\n1\tx\n2\t1\n";  // line 1 is unparseable
  }
  EXPECT_THROW((void)pio::read_cluster_assignments(bad), std::runtime_error);

  const auto gap = dir.file("gap.tsv");
  {
    std::ofstream out(gap);
    out << "0\t0\n2\t1\n";  // seq id 1 missing
  }
  EXPECT_THROW((void)pio::read_cluster_assignments(gap), std::runtime_error);

  // The last line is cut after its seq id; the reader used to return the
  // first assignment alone.
  const auto cut = dir.file("cut.tsv");
  {
    std::ofstream out(cut);
    out << "0\t0\n1";
  }
  try {
    (void)pio::read_cluster_assignments(cut);
    ADD_FAILURE() << "a truncated last line read without an error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(GraphIo, EdgeBytesPlausible) {
  // The paper's 27 TB for 1.05T edges is ~26 B/edge; ours models the same
  // order of magnitude.
  EXPECT_GE(pio::edge_bytes(), 16u);
  EXPECT_LE(pio::edge_bytes(), 64u);
}
