#include "core/pipeline.hpp"

#include <algorithm>
#include <set>

#include "core/kmer_matrix.hpp"
#include "core/load_balance.hpp"
#include "core/seq_store.hpp"
#include "core/stages.hpp"
#include "dist/summa.hpp"
#include "exec/stream_pipeline.hpp"
#include "exec/timeline.hpp"
#include "io/fasta.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace pastis::core {

namespace {

using dist::DistSpMat;
using sim::Comp;
using sim::SimRuntime;
using sparse::Index;

/// Per-slot state of one in-flight block as it streams through
/// discover → screen → align. Slots are reused (item % depth), so every
/// buffer keeps its capacity across the blocks a slot serves — the
/// executor guarantees the previous occupant retired before reset() runs.
struct BlockSlot {
  DistSpMat<CommonKmers> C;
  sparse::SpGemmStats spgemm;
  std::vector<sim::RankClock> frame;       // per-rank charges
  RankWork work;                           // candidates → tasks → edges
  std::vector<double> sparse_s, align_s;   // per rank, dilated
  std::vector<std::uint64_t> local_bytes;  // per rank

  void reset(int p) {
    const auto np = static_cast<std::size_t>(p);
    spgemm = {};
    frame.assign(np, sim::RankClock{});
    work.reset(p);
    sparse_s.assign(np, 0.0);
    align_s.assign(np, 0.0);
    local_bytes.assign(np, 0);
  }
};

}  // namespace

SimilaritySearch::SimilaritySearch(PastisConfig config,
                                   sim::MachineModel model, int nprocs,
                                   util::ThreadPool* pool)
    : config_(config), model_(model), nprocs_(nprocs), pool_(pool) {}

SearchResult SimilaritySearch::run(std::vector<std::string> seqs) const {
  util::Timer wall;
  const PastisConfig& cfg = config_;
  SimRuntime rt(nprocs_, model_, pool_);
  const int p = rt.nprocs();
  const int side = rt.grid().side();

  SearchResult result;
  SearchStats& st = result.stats;
  st.nprocs = p;
  st.block_rows = cfg.block_rows;
  st.block_cols = cfg.block_cols;
  const int depth = std::max(1, cfg.pipeline_depth);
  st.pipeline_depth = depth;

  DistSeqStore store(std::move(seqs), p);
  const Index n = store.size();
  st.n_seqs = n;
  st.total_residues = store.total_residues();
  // The plan rejects blocking factors below 1 before any work starts.
  const int br = cfg.block_rows;
  const int bc = cfg.block_cols;
  const BlockPlan plan(n, br, bc, cfg.load_balance);

  // ---- input IO (parallel chunked read; §V-B: MPI-IO, <3% of runtime) ----
  // FASTA ≈ residues + headers; the byte volume is charged to the model.
  const std::uint64_t in_bytes = store.total_residues() + 16ull * n;
  st.t_io_in = model_.io_time(in_bytes, p);
  rt.spmd([&](int rank) {
    rt.clock(rank).charge(Comp::kIO, st.t_io_in);
    rt.clock(rank).io_bytes += in_bytes / static_cast<std::uint64_t>(p);
  });

  // ---- setup: A's row stripes, Aᵀ's column stripes --------------------------
  const KmerStripes stripes =
      kmer_matrix_stripes(rt, store, br, bc, cfg, pool_);
  for (const auto& s : stripes.a) st.kmer_nnz += s.nnz();
  st.kmer_cols = stripes.a.front().ncols();

  // Per-rank logical bytes resident through the block loop (stripes + A
  // replacement); the in-flight overlap blocks are windowed in below.
  std::vector<std::uint64_t> setup_bytes(static_cast<std::size_t>(p), 0);
  for (int rank = 0; rank < p; ++rank) {
    std::uint64_t b = 0;
    for (const auto& s : stripes.a) b += s.local(rank).bytes();
    for (const auto& s : stripes.b) b += s.local(rank).bytes();
    setup_bytes[static_cast<std::size_t>(rank)] = b;
  }

  std::vector<double> setup_sparse(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) setup_sparse[static_cast<std::size_t>(r)] = sim::sparse_seconds(rt.clock(r));
  st.t_setup = *std::max_element(setup_sparse.begin(), setup_sparse.end());

  // ---- sequence prefetch accounting ------------------------------------------
  // Needed sequence ranges per rank are static (header comment of
  // seq_store.hpp); transfers start now, overlapped with discovery.
  std::vector<double> fetch_time(static_cast<std::size_t>(p), 0.0);
  {
    std::set<int> row_stripes, col_stripes;
    for (const auto& b : plan.blocks()) {
      row_stripes.insert(b.r);
      col_stripes.insert(b.c);
    }
    rt.spmd([&](int rank) {
      const int gi = rt.grid().row_of(rank);
      const int gj = rt.grid().col_of(rank);
      std::uint64_t bytes = 0;
      for (int r : row_stripes) {
        const Index row0 = sim::ProcGrid::split_point(n, br, r);
        const Index rows = sim::ProcGrid::split_point(n, br, r + 1) - row0;
        const Index b0 = row0 + sim::ProcGrid::split_point(rows, side, gi);
        const Index b1 = row0 + sim::ProcGrid::split_point(rows, side, gi + 1);
        bytes += store.fetch_bytes(rank, b0, b1);
      }
      for (int c : col_stripes) {
        const Index col0 = sim::ProcGrid::split_point(n, bc, c);
        const Index cols = sim::ProcGrid::split_point(n, bc, c + 1) - col0;
        const Index b0 = col0 + sim::ProcGrid::split_point(cols, side, gj);
        const Index b1 = col0 + sim::ProcGrid::split_point(cols, side, gj + 1);
        bytes += store.fetch_bytes(rank, b0, b1);
      }
      fetch_time[static_cast<std::size_t>(rank)] = model_.p2p_time(bytes);
      rt.clock(rank).bytes_recv += bytes;
    });
  }

  // ---- streamed block loop --------------------------------------------------
  // The Fig. 4 loop as a software pipeline (§VI-C generalized): each
  // planned block flows through {discover, screen, align} stages on the
  // streaming executor, so with depth >= 2 block b+1's SUMMA runs
  // concurrently with block b's alignment on the shared host pool. Every
  // stage charges a per-slot clock frame; frames are merged and the
  // overlapped timeline reduced at retirement, which the executor runs
  // strictly in block order — results and counters are therefore
  // bit-identical to the depth-1 serial oracle for any depth.
  const align::BatchAligner aligner = make_batch_aligner(cfg, model_);
  const align::BatchAligner::SeqAccessor seq_of = [&](std::uint32_t id) {
    return store.seq(id);
  };

  // Discovery-compute dilations: the blocked-SUMMA split penalty (§VI-A,
  // always active) and the overlapped CPU-sharing contention (§VI-C).
  const bool overlapped = depth >= 2;
  const double ds = model_.split_dilation(br, bc) *
                    (overlapped ? model_.preblock_sparse_dilation() : 1.0);
  const double da = overlapped ? model_.preblock_align_dilation : 1.0;

  const std::size_t n_blocks = plan.blocks().size();
  st.block_sparse_s.assign(n_blocks, 0.0);
  st.block_align_s.assign(n_blocks, 0.0);
  std::vector<std::vector<io::SimilarityEdge>> rank_edges(
      static_cast<std::size_t>(p));

  exec::OverlapTimeline timeline(p, depth);
  timeline.set_tracer(cfg.telemetry.tracer, "pipeline.");
  exec::ResidentWindow resident(p, depth);
  exec::StreamPipeline* gate = nullptr;

  // Sized from pipe.slot_count() once the executor exists (below).
  std::vector<BlockSlot> slots;

  exec::Stage discover{
      "discover", [&](std::size_t bi, std::size_t si) {
        BlockSlot& s = slots[si];
        s.reset(p);
        const BlockInfo& blk = plan.blocks()[bi];
        dist::SummaOptions opt;
        opt.pool = pool_;
        opt.clocks = s.frame.data();
        s.C = dist::summa<OverlapSemiring>(
            rt, stripes.a[static_cast<std::size_t>(blk.r)],
            stripes.b[static_cast<std::size_t>(blk.c)], opt, &s.spgemm);

        // Apply the overlap sparse dilation to this block's charges and
        // register the block's resident bytes with the admission gate.
        std::uint64_t total_bytes = 0;
        for (int r = 0; r < p; ++r) {
          const auto ri = static_cast<std::size_t>(r);
          const double delta = sim::sparse_seconds(s.frame[ri]);
          const double dilated = delta * ds;
          if (ds != 1.0) s.frame[ri].charge(Comp::kSpGemm, dilated - delta);
          s.sparse_s[ri] = dilated;
          s.local_bytes[ri] = s.C.local(r).bytes();
          total_bytes += s.local_bytes[ri];
        }
        gate->set_resident_bytes(bi, total_bytes);
      }};

  exec::Stage screen{
      "screen", [&](std::size_t bi, std::size_t si) {
        BlockSlot& s = slots[si];
        const BlockInfo& blk = plan.blocks()[bi];
        const bool cascading = cfg.cascade.any();
        // Each rank extracts the alignment candidates its local block owns.
        rt.spmd([&](int rank) {
          auto& clock = s.frame[static_cast<std::size_t>(rank)];
          const auto& local = s.C.local(rank);
          const int gi = rt.grid().row_of(rank);
          const int gj = rt.grid().col_of(rank);
          const Index grow0 = blk.row0 + s.C.row_begin(gi);
          const Index gcol0 = blk.col0 + s.C.col_begin(gj);

          // Extraction scan of the block's local part.
          clock.charge(Comp::kSparseOther,
                       model_.sparse_stream_time(local.bytes()) * ds);

          auto& tasks = s.work.tasks[static_cast<std::size_t>(rank)];
          auto& cands = s.work.cands[static_cast<std::size_t>(rank)];
          local.for_each([&](Index li, Index lj, const CommonKmers& ck) {
            const Index i = grow0 + li;
            const Index j = gcol0 + lj;
            if (ck.count < cfg.common_kmer_threshold) return;
            if (!plan.should_align(blk, i, j)) return;
            // Canonical orientation (query = smaller id) keeps alignment
            // results identical across schemes and blockings.
            if (!cascading) {
              tasks.push_back(canonical_task(i, j, ck));
              return;
            }
            ScreenCandidate c;
            c.task = canonical_task(i, j, ck);
            c.count = ck.count;
            c.n_seeds = canonical_seeds(i, j, ck, c.seeds);
            cands.push_back(c);
          });
          clock.overlap_nnz += local.nnz();
        });
        if (!cascading) return;

        // The tier passes turn the staged candidates into the block's
        // alignment tasks. Their modeled cost lands on the rank clocks
        // (tier 0 beside the sparse extraction passes, tier 1 as device DP
        // work) and on the block's sparse timeline slot — the screen stage
        // is what overlaps the previous block's alignment.
        screen_candidates(s.work, seq_of, aligner, cfg, pool_);
        for (int r = 0; r < p; ++r) {
          const auto ri = static_cast<std::size_t>(r);
          auto& clock = s.frame[ri];
          const auto [t0s, t1s] =
              modeled_screen_seconds(model_, s.work.cascade[ri]);
          if (t0s > 0.0) clock.charge(Comp::kSparseOther, t0s * ds);
          if (t1s > 0.0) clock.charge(Comp::kAlign, t1s * da);
          s.sparse_s[ri] += t0s * ds + t1s * da;
        }
      }};

  exec::Stage align_stage{
      "align", [&](std::size_t bi, std::size_t si) {
        BlockSlot& s = slots[si];
        align_and_filter(s.work, seq_of, aligner, cfg, pool_);
        // Device-model charging, with the overlap contention dilation.
        for (int r = 0; r < p; ++r) {
          const auto ri = static_cast<std::size_t>(r);
          s.frame[ri].similar_pairs += s.work.edges[ri].size();
          s.align_s[ri] =
              charge_alignment(s.frame[ri], model_, s.work.align[ri], da);
        }

        // ---- retirement (the executor runs this stage in block order) ----
        st.spgemm.merge(s.spgemm);
        st.candidates += s.C.nnz();
        rt.merge_frame(s.frame);
        {
          align::CascadeStats block_cascade;
          for (const auto& cs : s.work.cascade) block_cascade.merge(cs);
          st.cascade.merge(block_cascade);
          add_cascade_counters(cfg.telemetry, block_cascade);
        }
        for (int r = 0; r < p; ++r) {
          const auto ri = static_cast<std::size_t>(r);
          rank_edges[ri].insert(rank_edges[ri].end(),
                                s.work.edges[ri].begin(),
                                s.work.edges[ri].end());
        }
        timeline.add(s.sparse_s, s.align_s);
        resident.add(s.local_bytes);
        st.block_sparse_s[bi] =
            *std::max_element(s.sparse_s.begin(), s.sparse_s.end());
        st.block_align_s[bi] =
            *std::max_element(s.align_s.begin(), s.align_s.end());
        s.C = DistSpMat<CommonKmers>();  // release the block early
      }};

  exec::StreamOptions exec_opt;
  exec_opt.depth = depth;
  exec_opt.memory_budget_bytes = cfg.exec_memory_budget_bytes;
  exec_opt.pool = pool_;
  exec_opt.telemetry = cfg.telemetry;
  exec_opt.trace_prefix = "pipeline";
  exec::StreamPipeline pipe(n_blocks, {discover, screen, align_stage},
                            exec_opt);
  gate = &pipe;
  slots.resize(pipe.slot_count());
  pipe.run();

  // ---- cwait: residual sequence-communication wait --------------------------
  // Transfers overlap the setup and the first block's discovery.
  {
    double max_wait = 0.0;
    const double first_sparse =
        n_blocks > 0 ? st.block_sparse_s[0] : 0.0;
    rt.spmd([&](int rank) {
      const double window = setup_sparse[static_cast<std::size_t>(rank)] +
                            first_sparse;
      const double wait = std::max(
          0.0, fetch_time[static_cast<std::size_t>(rank)] - window);
      rt.clock(rank).charge(Comp::kSeqWait, wait);
    });
    for (int r = 0; r < p; ++r) {
      max_wait = std::max(max_wait, rt.clock(r).get(Comp::kSeqWait));
      st.t_seq_fetch =
          std::max(st.t_seq_fetch, fetch_time[static_cast<std::size_t>(r)]);
    }
    st.t_cwait = max_wait;
  }

  // ---- gather edges (deterministic canonical order) --------------------------
  std::size_t total_edges = 0;
  for (const auto& v : rank_edges) total_edges += v.size();
  result.edges.reserve(total_edges);
  for (auto& v : rank_edges) {
    result.edges.insert(result.edges.end(), v.begin(), v.end());
  }
  io::sort_edges(result.edges);
  st.similar_pairs = result.edges.size();

  // ---- output IO ---------------------------------------------------------------
  const std::uint64_t out_bytes = total_edges * io::edge_bytes();
  st.t_io_out = model_.io_time(out_bytes, p);
  rt.spmd([&](int rank) {
    rt.clock(rank).charge(Comp::kIO, st.t_io_out);
    rt.clock(rank).io_bytes += out_bytes / static_cast<std::uint64_t>(p);
  });

  // ---- per-rank block-loop timers (Table I's align/sparse/sum basis) ----------
  // The streaming reduction already holds each rank's pipeline makespan:
  // depth 1 is the serial sum, depth 2 the paper's pre-blocking formula
  // S_0 + Σ max(A_b, S_{b+1}), deeper depths its generalization
  // (exec/timeline.hpp).
  st.rank_loop_s = timeline.makespans();

  // Peak logical memory: stripes + the windowed resident overlap blocks
  // (up to `depth` consecutive blocks in flight).
  rt.spmd([&](int rank) {
    if (n_blocks == 0) return;
    auto& clock = rt.clock(rank);
    clock.peak_memory_bytes =
        std::max(clock.peak_memory_bytes,
                 setup_bytes[static_cast<std::size_t>(rank)] +
                     resident.peak(rank));
  });

  // ---- assemble the timeline ------------------------------------------------
  // The block loop has no global barrier: each rank flows from one block's
  // alignment into the next block's discovery (collectives synchronise
  // row/column teams, which the per-rank loop timers absorb on average).
  // The loop's wall time is therefore the slowest rank's accumulated
  // pipeline makespan.
  st.t_blocks = st.rank_loop_s.empty()
                    ? 0.0
                    : *std::max_element(st.rank_loop_s.begin(),
                                        st.rank_loop_s.end());
  st.t_total = st.t_io_in + st.t_setup + st.t_cwait + st.t_blocks + st.t_io_out;

  // ---- component totals (average over ranks of per-rank sums) -----------------
  st.comp_spgemm = rt.sum_over_ranks(Comp::kSpGemm) / p;
  st.comp_sparse_other = rt.sum_over_ranks(Comp::kSparseOther) / p;
  st.comp_align = rt.sum_over_ranks(Comp::kAlign) / p;
  st.comp_other = rt.sum_over_ranks(Comp::kOther) / p;

  // ---- per-rank detail ----------------------------------------------------------
  st.ranks = rt.clocks();
  for (const auto& c : st.ranks) {
    st.align_cells += c.align_cells;
    st.aligned_pairs += c.pairs_aligned;
    st.peak_rank_bytes = std::max(st.peak_rank_bytes, c.peak_memory_bytes);
  }

  st.wall_seconds = wall.seconds();
  return result;
}

ClusteredSearchResult SimilaritySearch::run_and_cluster(
    std::vector<std::string> seqs) const {
  const auto n = static_cast<sparse::Index>(seqs.size());
  ClusteredSearchResult out;
  out.search = run(std::move(seqs));
  if (config_.cluster_method == cluster::Method::kNone) {
    return out;  // stage skipped: clustering stays empty (method kNone)
  }

  // Unset MCL knobs inherit the pipeline's: the telemetry sinks, and the
  // budget of the same host gate. Note the budget is NOT schedule-only for
  // MCL — it deterministically tightens the column cap (see
  // MclOptions::memory_budget_bytes); set cfg.mcl.memory_budget_bytes
  // explicitly to decouple the two. All budget fallbacks resolve through
  // the PastisConfig helpers (the one documented inheritance chain).
  cluster::MclOptions mcl = config_.mcl;
  if (!mcl.telemetry.enabled()) mcl.telemetry = config_.telemetry;
  mcl.memory_budget_bytes = config_.effective_mcl_memory_budget();
  if (mcl.grid_side >= 1 && mcl.rank_memory_budget_bytes == 0) {
    mcl.rank_memory_budget_bytes = config_.effective_rank_memory_budget();
  }
  out.clustering =
      cluster::cluster_edges(n, out.search.edges, config_.cluster_method,
                             config_.cluster_weighting, mcl,
                             /*mcl_stats=*/nullptr, pool_);
  return out;
}

SearchResult SimilaritySearch::run_fasta(const std::string& fasta_path,
                                         const std::string& out_path) const {
  // Parallel chunked read: rank q owns records whose header byte falls in
  // its byte range (io::read_fasta_chunk). The chunks are concatenated in
  // rank order, which reproduces the file order exactly.
  const std::uint64_t fsize = io::file_size_bytes(fasta_path);
  const int p = nprocs_;
  std::vector<std::vector<io::FastaRecord>> chunks(
      static_cast<std::size_t>(p));
  util::parallel_for(pool_, static_cast<std::size_t>(p), [&](std::size_t q) {
    const std::uint64_t begin = fsize * q / static_cast<std::uint64_t>(p);
    const std::uint64_t end = fsize * (q + 1) / static_cast<std::uint64_t>(p);
    chunks[q] = io::read_fasta_chunk(fasta_path, begin, end - begin);
  });
  std::vector<std::string> seqs;
  for (auto& chunk : chunks) {
    for (auto& rec : chunk) seqs.push_back(std::move(rec.seq));
  }

  SearchResult result = run(std::move(seqs));
  if (!out_path.empty()) {
    io::write_similarity_graph(out_path, result.edges);
  }
  return result;
}

}  // namespace pastis::core
