// Distributed MCL bench: the Metaclust-shaped planted-partition graph
// clustered by the shared-memory MCL and by the SUMMA-expanded distributed
// MCL at grid sides 1/2/3. Assignments must stay bit-identical (each
// rank's one multiply over its gathered strips keeps even the float
// expansion bitwise equal) and the busiest rank's per-iteration resident
// bytes must shrink as the grid grows — both hard-gated in the exit code.
// Emits BENCH_dist_mcl.json, with modeled seconds at full precision so two
// builds' files compare exactly.
#include <cstdio>
#include <fstream>
#include <iomanip>

#include "bench_common.hpp"

using namespace pastis;
using namespace pastis::bench;

namespace {

/// Planted-partition similarity graph (same family as bench_cluster_scaling).
std::vector<io::SimilarityEdge> make_graph(sparse::Index n,
                                           std::uint32_t mean_block,
                                           double p_intra, double noise_frac,
                                           std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<io::SimilarityEdge> edges;
  sparse::Index v = 0;
  while (v < n) {
    const auto skew = rng.zipf(static_cast<std::uint64_t>(mean_block) * 4,
                               1.1);
    const auto size = static_cast<sparse::Index>(std::min<std::uint64_t>(
        std::max<std::uint64_t>(2, skew + 2), n - v));
    for (sparse::Index i = v; i < v + size; ++i) {
      for (sparse::Index j = i + 1; j < v + size; ++j) {
        if (rng.chance(p_intra)) {
          edges.push_back({i, j,
                           0.4f + 0.6f * static_cast<float>(rng.uniform()),
                           0.9f, 120});
        }
      }
    }
    v += size;
  }
  const auto n_noise =
      static_cast<std::size_t>(noise_frac * static_cast<double>(n));
  for (std::size_t e = 0; e < n_noise; ++e) {
    const auto i = static_cast<sparse::Index>(rng.below(n));
    const auto j = static_cast<sparse::Index>(rng.below(n));
    if (i != j) edges.push_back({i, j, 0.35f, 0.75f, 40});
  }
  return edges;
}

struct Point {
  int side = 0;
  std::uint64_t max_rank_resident = 0;
  double wall_s = 0.0;
  double modeled_s = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto n = static_cast<sparse::Index>(args.i("vertices", 12000));
  const auto mean_block =
      static_cast<std::uint32_t>(args.i("mean-cluster", 32));
  const std::string out =
      args.s("out", pastis::bench::out_path("BENCH_dist_mcl.json"));

  util::banner("distributed MCL — SUMMA expansion over the simulated grid");
  const auto edges = make_graph(n, mean_block, args.d("intra", 0.5),
                                args.d("noise", 1.0),
                                static_cast<std::uint64_t>(args.i("seed", 7)));
  const auto g = cluster::SimilarityGraph::from_edges(n, edges);
  std::printf("vertices %s   edges %s\n\n", util::with_commas(n).c_str(),
              util::with_commas(g.n_edges()).c_str());

  cluster::MclStats shared_stats;
  cluster::Clustering expected;
  {
    util::Timer w;
    expected = cluster::markov_cluster(g, {}, &shared_stats,
                                       &util::ThreadPool::global());
    std::printf("shared memory: %s clusters in %d iterations, %.3fs wall, "
                "peak resident %s\n\n",
                util::with_commas(expected.n_clusters).c_str(),
                shared_stats.iterations, w.seconds(),
                util::bytes_human(
                    static_cast<double>(shared_stats.peak_resident_bytes))
                    .c_str());
  }

  ShapeChecks sc;
  bool identical = true;
  std::vector<Point> points;
  util::TextTable t({"grid", "ranks", "resident max", "wall (s)",
                     "modeled (s)", "clusters", "bit-identical"});
  for (int side : {1, 2, 3}) {
    cluster::MclOptions opt;
    opt.grid_side = side;
    cluster::MclStats stats;
    util::Timer w;
    const auto got = cluster::markov_cluster(g, opt, &stats,
                                             &util::ThreadPool::global());
    Point p;
    p.side = side;
    p.wall_s = w.seconds();
    p.modeled_s = stats.modeled_seconds;
    for (const auto b : stats.rank_peak_resident_bytes) {
      p.max_rank_resident = std::max(p.max_rank_resident, b);
    }
    const bool same = got == expected;
    identical = identical && same;
    sc.check(same, "grid side " + std::to_string(side) +
                       " assignments bit-identical to shared memory "
                       "(hard gate)");
    t.add_row({std::to_string(side) + "x" + std::to_string(side),
               std::to_string(side * side),
               util::bytes_human(static_cast<double>(p.max_rank_resident)),
               f4(p.wall_s), f4(p.modeled_s),
               util::with_commas(got.n_clusters), same ? "yes" : "NO"});
    points.push_back(p);
  }
  t.print();

  util::banner("shape checks");
  const auto& s1 = points.front();
  const auto& s3 = points.back();
  const bool shrinks = s3.max_rank_resident * 2 < s1.max_rank_resident;
  sc.check(shrinks,
           "max-rank resident at side 3 < 50% of side 1 (hard gate; " +
               util::bytes_human(static_cast<double>(s3.max_rank_resident)) +
               " vs " +
               util::bytes_human(static_cast<double>(s1.max_rank_resident)) +
               ")");
  sc.summary();

  {
    std::ofstream os(out);
    os << "{\n"
       << "  \"bench\": \"dist_mcl\",\n"
       << "  \"vertices\": " << n << ",\n"
       << "  \"edges\": " << g.n_edges() << ",\n"
       << "  \"clusters\": " << expected.n_clusters << ",\n"
       << "  \"iterations\": " << shared_stats.iterations << ",\n"
       << "  \"shared_peak_resident_bytes\": "
       << shared_stats.peak_resident_bytes << ",\n"
       << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"resident_shrinks\": " << (shrinks ? "true" : "false") << ",\n"
       << "  \"grids\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& p = points[i];
      os << "    {\"side\": " << p.side
         << ", \"ranks\": " << p.side * p.side
         << ", \"max_rank_resident_bytes\": " << p.max_rank_resident
         << ", \"wall_seconds\": " << p.wall_s
         << ", \"modeled_seconds\": " << std::setprecision(17)
         << p.modeled_s << std::setprecision(6) << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
  }
  std::printf("\nwrote %s\n", out.c_str());
  return identical && shrinks ? 0 : 1;
}
