#include "baseline/replicated_index.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "align/batch.hpp"
#include "core/stages.hpp"
#include "kmer/extract.hpp"
#include "sim/grid.hpp"
#include "sparse/matrix.hpp"
#include "util/timer.hpp"

namespace pastis::baseline {

namespace {

/// Sequence-by-k-mer pattern matrix for seqs[begin, end) (rows re-indexed
/// to the range), one nonzero per distinct per-sequence k-mer — the same
/// candidate rule as PASTIS's k-mer matrix, so shared-k-mer counts from a
/// (+, *) SpGEMM equal PASTIS's overlap counts. Replaces the former
/// hand-rolled unordered_map posting lists: the baseline's inverted index
/// is exactly the transpose of this matrix, and the candidate scan is
/// exactly a sparse multiply, so both now run on the shared (two-phase)
/// SpGEMM kernel.
sparse::SpMat<std::uint32_t> pattern_matrix(const std::vector<std::string>& seqs,
                                            std::uint32_t begin,
                                            std::uint32_t end,
                                            const kmer::Alphabet& alphabet,
                                            const kmer::KmerCodec& codec) {
  if (codec.space() > std::uint64_t(sparse::Index(-1))) {
    throw std::invalid_argument(
        "replicated_index: k-mer space exceeds 32-bit column indices");
  }
  std::vector<sparse::Triple<std::uint32_t>> t;
  for (std::uint32_t s = begin; s < end; ++s) {
    for (const auto& h :
         kmer::extract_distinct_kmers(seqs[s], alphabet, codec)) {
      t.push_back({s - begin, static_cast<sparse::Index>(h.code), 1u});
    }
  }
  return sparse::SpMat<std::uint32_t>::from_triples(
      end - begin, static_cast<sparse::Index>(codec.space()), std::move(t));
}

}  // namespace

std::vector<io::SimilarityEdge> replicated_index_search(
    const std::vector<std::string>& seqs, const core::PastisConfig& cfg,
    const sim::MachineModel& model, int nprocs, ReplicationMode mode,
    ReplicatedIndexStats* stats, util::ThreadPool* pool) {
  util::Timer wall;
  const auto n = static_cast<std::uint32_t>(seqs.size());
  const kmer::Alphabet alphabet(cfg.alphabet);
  const kmer::KmerCodec codec(alphabet.size(), cfg.k);
  const align::Scoring scoring = cfg.make_scoring();

  // MMseqs2 has no seeded/GPU path (§IV): candidates go through full
  // Smith-Waterman regardless of cfg.align_kind. Alignment runs on the
  // same align stage the pipeline and the query engine run
  // (core::align_and_filter) — the baseline's discovery → alignment flow
  // shares their machinery, it only schedules it per replicated chunk
  // instead of per streamed block. The baseline never screens, so the
  // stage sees the cascade off.
  align::BatchAligner::Config bcfg;
  bcfg.kind = align::AlignKind::kFullSW;
  const align::BatchAligner aligner(scoring, bcfg);
  core::PastisConfig align_cfg = cfg;
  align_cfg.cascade = align::CascadeOptions{};
  const align::BatchAligner::SeqAccessor seq_of =
      [&](std::uint32_t id) -> std::string_view { return seqs[id]; };

  std::uint64_t seq_bytes = 0;
  for (const auto& s : seqs) seq_bytes += s.size();

  // Chunk boundaries over the chunked set.
  auto chunk_begin = [&](int q) {
    return sim::ProcGrid::split_point(n, nprocs, q);
  };

  // Per-rank work: in both modes rank q effectively evaluates the candidate
  // pairs (i, j) where one side lies in its chunk. To align each unordered
  // pair exactly once we keep (i < j) with the chunk owning the *smaller*
  // id responsible.
  std::vector<std::vector<io::SimilarityEdge>> rank_edges(
      static_cast<std::size_t>(nprocs));
  std::vector<std::uint64_t> rank_candidates(static_cast<std::size_t>(nprocs));
  std::vector<std::uint64_t> rank_aligned(static_cast<std::size_t>(nprocs));
  std::vector<std::uint64_t> rank_cells(static_cast<std::size_t>(nprocs));
  std::vector<std::uint64_t> rank_products(static_cast<std::size_t>(nprocs));
  std::vector<std::uint64_t> rank_index_bytes(static_cast<std::size_t>(nprocs));

  // The full-range side is identical on every rank (that replication is
  // the baseline's modeled memory wall — each rank is *charged* for its
  // copy below), so the host materializes it once: the replicated query
  // set of mode 1, or the replicated reference index of mode 2.
  const bool ref_chunked = mode == ReplicationMode::kReferenceChunked;
  const auto full_side = pattern_matrix(seqs, 0, n, alphabet, codec);
  const auto full_index =
      ref_chunked ? sparse::SpMat<std::uint32_t>() : full_side.transposed();

  auto rank_task = [&](std::size_t qr) {
    const int q = static_cast<int>(qr);
    const std::uint32_t my_begin = chunk_begin(q);
    const std::uint32_t my_end = chunk_begin(q + 1);

    // The index this rank holds (as the transposed k-mer-by-sequence
    // matrix): its reference chunk (mode 1) or the full set (mode 2).
    const std::uint32_t r_begin = ref_chunked ? my_begin : 0;
    sparse::SpMat<std::uint32_t> chunk_side;  // this rank's chunked half
    if (ref_chunked) {
      chunk_side =
          pattern_matrix(seqs, my_begin, my_end, alphabet, codec).transposed();
    } else {
      chunk_side = pattern_matrix(seqs, my_begin, my_end, alphabet, codec);
    }
    const auto& index = ref_chunked ? chunk_side : full_index;
    if (ref_chunked) {
      rank_index_bytes[qr] = index.bytes() + seq_bytes;  // + replicated queries
    } else {
      rank_index_bytes[qr] =
          index.bytes() +
          (seq_bytes * (my_end - my_begin)) / std::max<std::uint32_t>(1, n) +
          seq_bytes;  // full index + chunk of queries + target residues
    }

    // Queries this rank scans: all (mode 1) or its chunk (mode 2).
    const std::uint32_t q_begin = ref_chunked ? 0 : my_begin;
    const auto& a_query = ref_chunked ? full_side : chunk_side;

    // Candidate discovery: shared-distinct-k-mer counts via the configured
    // SpGEMM kernel (the rank tasks already fan out over the pool; the
    // two-phase kernel may fan out further — nested parallel_for is safe).
    sparse::SpGemmStats gstats;
    const auto counts =
        core::discovery_spgemm<sparse::PlusTimes<std::uint32_t>>(
            a_query, index, cfg, &gstats, pool);
    rank_products[qr] = gstats.products;

    // Prune stage: candidates clearing the shared-k-mer threshold become
    // canonical alignment tasks (query = smaller id, like the pipeline).
    core::RankWork work;
    work.reset(1);
    auto& tasks = work.tasks[0];
    counts.for_each([&](sparse::Index qi, sparse::Index rj,
                        const std::uint32_t& cnt) {
      const std::uint32_t i = q_begin + qi;
      const std::uint32_t j = r_begin + rj;
      if (j == i) {
        // The matrix form includes each sequence's products against
        // itself, which the posting-scan formulation skipped; remove them
        // from the work counter (one product per shared distinct k-mer).
        rank_products[qr] -= cnt;
        return;
      }
      // Unordered pair (i, j) is owned where the smaller id is the query.
      if (i > j) return;
      ++rank_candidates[qr];
      if (cnt < cfg.common_kmer_threshold) return;
      tasks.push_back(align::AlignTask{i, j, 0, 0});
    });
    rank_aligned[qr] = tasks.size();

    // Align + filter stage as one rank's work (rank-level parallelism
    // comes from the chunk fan-out, so the batch itself runs inline).
    core::align_and_filter(work, seq_of, aligner, align_cfg, nullptr);
    rank_cells[qr] = work.align[0].cells;
    rank_edges[qr] = std::move(work.edges[0]);
  };
  util::parallel_for(pool, static_cast<std::size_t>(nprocs), rank_task);

  std::vector<io::SimilarityEdge> edges;
  for (auto& v : rank_edges) edges.insert(edges.end(), v.begin(), v.end());
  io::sort_edges(edges);

  if (stats != nullptr) {
    for (int q = 0; q < nprocs; ++q) {
      const auto qr = static_cast<std::size_t>(q);
      stats->candidates += rank_candidates[qr];
      stats->aligned_pairs += rank_aligned[qr];
      stats->cells += rank_cells[qr];
      stats->peak_rank_bytes =
          std::max(stats->peak_rank_bytes, rank_index_bytes[qr]);
    }
    stats->similar_pairs = edges.size();
    // Intermediate per-chunk results are staged through the filesystem and
    // merged (MMseqs2's MPI workflow): hits are written and read back, and
    // every rank stages the sequence set, so the volume scales with ranks.
    const std::uint64_t hit_bytes = stats->aligned_pairs * 32;
    stats->io_bytes =
        hit_bytes * 2 + seq_bytes * static_cast<std::uint64_t>(nprocs);

    // Modeled time: index scan at the sparse-products rate, alignment on
    // CPU SIMD (MMseqs2 has no GPU path — §IV), IO for staging and merge.
    std::uint64_t max_products = 0, max_cells = 0;
    for (int q = 0; q < nprocs; ++q) {
      const auto qr = static_cast<std::size_t>(q);
      max_products = std::max(max_products, rank_products[qr]);
      max_cells = std::max(max_cells, rank_cells[qr]);
    }
    const double cpu_cups =
        model.cpu_simd_cups_per_core * model.cores_per_node;
    stats->modeled_seconds =
        model.spgemm_time(max_products) +
        static_cast<double>(max_cells) / cpu_cups +
        model.io_time(stats->io_bytes, nprocs);
    stats->wall_seconds = wall.seconds();
  }
  return edges;
}

}  // namespace pastis::baseline
