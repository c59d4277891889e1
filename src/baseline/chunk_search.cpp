#include "baseline/chunk_search.hpp"

#include <array>
#include <string_view>
#include <utility>

#include "core/kmer_matrix.hpp"
#include "core/stages.hpp"

namespace pastis::baseline {

ChunkResult chunk_search(const std::vector<std::string>& seqs,
                         std::uint32_t q_begin, std::uint32_t q_end,
                         std::uint32_t r_begin, std::uint32_t r_end,
                         const core::PastisConfig& cfg,
                         util::ThreadPool* pool) {
  // One sequence part and one k-mer part: the whole chunk as one block.
  const auto chunk_matrix = [&](std::uint32_t begin, std::uint32_t end,
                                bool transposed) {
    const std::array<sparse::Index, 2> bounds{0, end - begin};
    return std::move(core::kmer_matrix_blocks(
        bounds,
        [&](sparse::Index i) -> std::string_view { return seqs[begin + i]; },
        1, transposed, cfg, pool)[0]);
  };
  const auto a = chunk_matrix(q_begin, q_end, /*transposed=*/false);
  const auto at = chunk_matrix(r_begin, r_end, /*transposed=*/true);

  ChunkResult out;
  out.index_bytes = at.bytes();
  sparse::SpGemmStats gstats;
  const auto counts = core::discovery_spgemm<core::OverlapSemiring>(
      a, at, cfg, &gstats, pool);
  out.products = gstats.products;

  core::RankWork work;
  work.reset(1);
  counts.for_each([&](sparse::Index qi, sparse::Index rj,
                      const core::CommonKmers& ck) {
    const std::uint32_t i = q_begin + qi;
    const std::uint32_t j = r_begin + rj;
    if (i == j) {
      out.products -= ck.count;  // one product per k-mer of the sequence
      return;
    }
    if (i > j) return;
    ++out.candidates;
    if (ck.count < cfg.common_kmer_threshold) return;
    work.tasks[0].push_back(core::canonical_task(i, j, ck));
  });
  out.aligned = work.tasks[0].size();

  // MMseqs2 and DIAMOND have no seeded or GPU path (§IV): every candidate
  // gets a full Smith-Waterman, unscreened.
  const align::BatchAligner aligner(cfg.make_scoring(), {});
  core::PastisConfig align_cfg = cfg;
  align_cfg.cascade = align::CascadeOptions{};
  core::align_and_filter(
      work, [&](std::uint32_t id) -> std::string_view { return seqs[id]; },
      aligner, align_cfg, pool);
  out.cells = work.align[0].cells;
  out.edges = std::move(work.edges[0]);
  return out;
}

}  // namespace pastis::baseline
