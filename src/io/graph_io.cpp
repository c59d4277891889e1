#include "io/graph_io.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>

namespace pastis::io {

void write_similarity_graph(const std::string& path,
                            const std::vector<SimilarityEdge>& edges) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write graph: " + path);
  for (const auto& e : edges) {
    std::fprintf(f, "%u\t%u\t%.4f\t%.4f\t%d\n", e.seq_a, e.seq_b,
                 static_cast<double>(e.ani), static_cast<double>(e.cov),
                 e.score);
  }
  std::fclose(f);
}

std::vector<SimilarityEdge> read_similarity_graph(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) throw std::runtime_error("cannot read graph: " + path);
  std::vector<SimilarityEdge> edges;
  SimilarityEdge e;
  double ani = 0.0, cov = 0.0;
  // Only the end of the file stops the read: a malformed or truncated line
  // must not pass for the end of the graph.
  for (;;) {
    const int got = std::fscanf(f, "%u\t%u\t%lf\t%lf\t%d\n", &e.seq_a,
                                &e.seq_b, &ani, &cov, &e.score);
    if (got == EOF) break;
    if (got != 5) {
      std::fclose(f);
      throw std::runtime_error("similarity graph: malformed line " +
                               std::to_string(edges.size() + 1) + " in " +
                               path);
    }
    e.ani = static_cast<float>(ani);
    e.cov = static_cast<float>(cov);
    edges.push_back(e);
  }
  std::fclose(f);
  return edges;
}

void sort_edges(std::vector<SimilarityEdge>& edges) {
  std::sort(edges.begin(), edges.end(),
            [](const SimilarityEdge& a, const SimilarityEdge& b) {
              return a.seq_a != b.seq_a ? a.seq_a < b.seq_a : a.seq_b < b.seq_b;
            });
}

void write_cluster_assignments(const std::string& path,
                               const std::vector<std::uint32_t>& assignment) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot write assignments: " + path);
  }
  // Smallest-member renumbering: first occurrence over ascending seq ids
  // assigns dense ids in canonical order (a no-op for already-canonical
  // input, e.g. cluster::Clustering::assignment). This mirrors
  // cluster::canonicalize, which cannot be called from here — io/ sits
  // below cluster/ in the layer graph.
  std::map<std::uint32_t, std::uint32_t> remap;
  std::uint32_t next = 0;
  for (std::uint32_t seq = 0; seq < assignment.size(); ++seq) {
    auto [it, inserted] = remap.try_emplace(assignment[seq], next);
    if (inserted) ++next;
    std::fprintf(f, "%u\t%u\n", seq, it->second);
  }
  std::fclose(f);
}

std::vector<std::uint32_t> read_cluster_assignments(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    throw std::runtime_error("cannot read assignments: " + path);
  }
  std::vector<std::uint32_t> assignment;
  std::uint32_t seq = 0, cl = 0;
  // Only the end of the file stops the read: a malformed or truncated line
  // must not pass for the end of the clustering.
  for (;;) {
    const int got = std::fscanf(f, "%u\t%u\n", &seq, &cl);
    if (got == EOF) break;
    if (got != 2) {
      std::fclose(f);
      throw std::runtime_error("cluster assignments: malformed line " +
                               std::to_string(assignment.size() + 1) +
                               " in " + path);
    }
    if (seq != assignment.size()) {
      std::fclose(f);
      throw std::runtime_error("cluster assignments: seq ids must be "
                               "0..n-1 in order in " + path);
    }
    assignment.push_back(cl);
  }
  std::fclose(f);
  return assignment;
}

std::uint64_t edge_bytes() { return 28; }

}  // namespace pastis::io
