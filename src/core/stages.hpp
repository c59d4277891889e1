// The one data plane of the discovery → alignment → filter flow.
//
// Three consumers drive the same machinery: the many-against-many pipeline
// (core/pipeline.cpp, paper Fig. 4), the query-serving engine
// (index/query_engine.cpp, the §III annotation use case) and the
// baselines' chunk-pair search (baseline/chunk_search.cpp, run by the
// replicated-index and work-package searches). The first two run their
// executor stages over one per-slot RankWork: each stages its own
// candidates (overlap-semiring seeds vs cross-k-mer seeds plus sketches),
// then both call the same screen_candidates() (the cascade tiers) and
// align_and_filter() (flattened host alignment, the ANI/coverage filter,
// per-rank device accounting), and each keeps only its own modeled
// charging. The chunk search runs discovery_spgemm and canonical_task
// like the pipeline and align_and_filter on a one-rank RankWork per chunk
// pair, with the cascade off.
// Writing the stage logic once keeps all consumers bit-identical by
// construction — the canonical task orientation, the tier loop, the filter
// and the modeled device-time formula exist exactly once.
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "align/batch.hpp"
#include "align/cascade.hpp"
#include "core/common_kmers.hpp"
#include "core/config.hpp"
#include "io/graph_io.hpp"
#include "kmer/codec.hpp"
#include "kmer/nearest.hpp"
#include "sim/clock.hpp"
#include "sim/machine_model.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/triple.hpp"

namespace pastis::core {

/// One sequence's k-mer-matrix nonzeros (Fig. 1 left): distinct k-mers at
/// their first occurrence, plus the m nearest substitute neighbours of each
/// at that position when enabled (§V). Appends triples (row, k-mer code,
/// position) to `out` sorted by code with every code once: a code reached
/// twice (an exact k-mer and a substitute, or two substitutes) keeps its
/// smallest position, as keep_min_pos would. σ^k must fit sparse::Index
/// (kmer_matrix_blocks checks). The sort is one integer sort of the
/// sequence's packed (code, position) keys.
/// Every producer of a sequence-by-k-mer matrix — the pipeline's A, the
/// index's Aᵀ_ref shards, the engine's per-batch A_query, the baselines'
/// chunk matrices — MUST go through core::kmer_matrix_blocks
/// (core/kmer_matrix.hpp), which extracts with this function: the serving
/// layer's and the baselines' bit-identity to the pipeline rests on every
/// side extracting and deduplicating identically.
void extract_sequence_kmers(
    std::string_view seq, sparse::Index row, const kmer::Alphabet& alphabet,
    const kmer::KmerCodec& codec, const kmer::NeighborGenerator& neighbors,
    int subs_kmers, std::vector<sparse::Triple<KmerPos>>& out);

/// The commutative combine for duplicate (sequence, k-mer) entries (an
/// exact k-mer colliding with a substitute, or two substitutes): keep the
/// smallest position. Order-independence preserves determinism.
/// extract_sequence_kmers applies the same rule while it sorts, so its rows
/// need no combine; triple builds over them may still pass this one.
inline void keep_min_pos(KmerPos& acc, const KmerPos& v) {
  if (v.pos < acc.pos) acc = v;
}

/// Canonical alignment task for the candidate at overlap-matrix element
/// (i, j): the alignment query is always the smaller sequence id, and the
/// seed pair follows the element's orientation. Keeping this in one place
/// is what makes alignment results identical across schemes, blockings and
/// serving paths (pipeline header comment; paper's reproducibility claim).
[[nodiscard]] inline align::AlignTask canonical_task(sparse::Index i,
                                                     sparse::Index j,
                                                     const CommonKmers& ck) {
  align::AlignTask t;
  if (i < j) {
    t.q_id = i;
    t.r_id = j;
    t.seed_q = ck.first.pos_a;
    t.seed_r = ck.first.pos_b;
  } else {
    t.q_id = j;
    t.r_id = i;
    t.seed_q = ck.first.pos_b;
    t.seed_r = ck.first.pos_a;
  }
  return t;
}

/// The up-to-two seed pairs the overlap semiring carries for element
/// (i, j) — CommonKmers::first/last, the lexicographic min and max —
/// rewritten into the canonical task orientation (query = smaller id, the
/// same rule as canonical_task). Returns the number of distinct seeds
/// written to `out` (1 when first == last). These are the seeds the
/// cascade's tier-0 diagonal-bucketed ungapped extension screens over.
[[nodiscard]] inline int canonical_seeds(sparse::Index i, sparse::Index j,
                                         const CommonKmers& ck,
                                         align::Seed out[2]) {
  const bool fwd = i < j;
  out[0] = fwd ? align::Seed{ck.first.pos_a, ck.first.pos_b}
               : align::Seed{ck.first.pos_b, ck.first.pos_a};
  if (ck.last.pos_a == ck.first.pos_a && ck.last.pos_b == ck.first.pos_b) {
    return 1;
  }
  out[1] = fwd ? align::Seed{ck.last.pos_a, ck.last.pos_b}
               : align::Seed{ck.last.pos_b, ck.last.pos_a};
  return 2;
}

/// One extracted candidate staged for the cascade screens. The {discover,
/// screen, align} stage graphs (pipeline blocks, serving batches) keep
/// per-slot vectors of these between the extraction pass and the tier
/// passes, so each tier runs as its own traced pass and tier-k of item b
/// can overlap tier-(k+1) of item b-1 on the streaming executor.
struct ScreenCandidate {
  align::AlignTask task;
  std::uint32_t count = 0;        // shared-k-mer count of the pair
  int n_seeds = 0;                // valid entries in `seeds`
  align::Seed seeds[2];           // canonical-orientation min/max seeds
  int sketch_overlap = -1;        // minhash slot agreement; -1 = no sketch
};

/// Per-rank work of one in-flight pipeline block or serving batch, from
/// staged candidates to filtered edges. Both consumers keep one per
/// executor slot; reset() clears every buffer but keeps its capacity, so a
/// reused slot stops reallocating after its first item.
struct RankWork {
  std::vector<std::vector<ScreenCandidate>> cands;     // cascade staging
  std::vector<align::CascadeStats> cascade;            // tier work
  std::vector<std::vector<align::AlignTask>> tasks;    // alignment tasks
  std::vector<align::AlignTask> flat_tasks;            // all ranks, in order
  std::vector<std::size_t> rank_offset;                // rank r's first task
  // Parallel to flat_tasks. Between the stages it holds the survivors'
  // tier-1 probes when they are the tier-2 results (screen_candidates).
  std::vector<align::AlignResult> results;
  std::vector<align::LaneScratch> lanes;
  std::vector<std::vector<io::SimilarityEdge>> edges;  // passed the filter
  std::vector<align::BatchStats> align;                // device accounting

  void reset(int p);
};

/// The cascade screens over every rank's staged `cands`: each enabled tier
/// compacts each rank's list in place, with per-rank work in `cascade`,
/// under its own measured `cascade.tier{0,1}` span carrying
/// pairs_in/pairs_out, so tier k of one item can overlap tier k+1 of the
/// previous one on the streaming executor. Tier 0 runs align::tier0_keep
/// per rank on `pool`. Tier 1 probes every rank's candidates as one
/// flattened BatchAligner::align_tasks batch on `pool`, then applies
/// align::tier1_accept per rank in candidate order. The survivors are
/// appended to the ranks' `tasks`; when tier1_kind is the aligner's own
/// kind, their probes stay in `results` for align_and_filter, which
/// requires that no other tasks were staged. Results do not depend on the
/// schedule (null pool = inline).
void screen_candidates(RankWork& work,
                       const align::BatchAligner::SeqAccessor& seq_of,
                       const align::BatchAligner& aligner,
                       const PastisConfig& cfg, util::ThreadPool* pool);

/// Aligns every rank's `tasks` as one flattened batch on the host pool
/// (BatchAligner::align_tasks, so a skewed rank cannot idle host cores),
/// or, when screen_candidates' tier-1 probes are the results, uses those.
/// Then per rank keeps the edges that pass edge_if_similar in `edges` and
/// the rank's device-model accounting in `align`, which prices tier 2
/// either way. Ranks flagged in `dead` (empty = all alive) are skipped:
/// they own no tasks and account nothing.
void align_and_filter(RankWork& work,
                      const align::BatchAligner::SeqAccessor& seq_of,
                      const align::BatchAligner& aligner,
                      const PastisConfig& cfg, util::ThreadPool* pool,
                      std::span<const char> dead = {});

/// Adds one block/batch's cascade totals to the metrics registry:
/// cascade.tier{0,1}.{pairs_in,pairs_out,rejects}_total plus the measured
/// screen-cell totals. No-op without a metrics sink.
void add_cascade_counters(const obs::Telemetry& telemetry,
                          const align::CascadeStats& cs);

/// Modeled seconds of the cascade screens over one block/batch: tier 0 is a
/// host-side streaming scan over its diagonal cells (charged like the other
/// sparse extraction passes, 4 bytes per scanned cell: two residue loads
/// plus the score-table lookup), tier 1 is DP work on the node's balanced
/// accelerators. Returns {tier0_seconds, tier1_seconds}; callers charge
/// them to Comp::kSparseOther and Comp::kAlign respectively so the
/// simulated grid sees both the screen cost and the tier-2 work reduction.
[[nodiscard]] std::pair<double, double> modeled_screen_seconds(
    const sim::MachineModel& model, const align::CascadeStats& cs);

/// The ADEPT device aligner configured from the search parameters and the
/// machine's accelerator constants (one construction for both consumers).
[[nodiscard]] align::BatchAligner make_batch_aligner(
    const PastisConfig& cfg, const sim::MachineModel& model);

/// Local candidate-discovery SpGEMM: the two-phase kernel on `pool`,
/// instrumented through cfg.telemetry. Every local discovery multiply —
/// the engine's shard products, the baselines, ad-hoc tools — goes
/// through here.
template <sparse::SemiringLike SR>
[[nodiscard]] sparse::SpMat<typename SR::value_type> discovery_spgemm(
    const sparse::SpMat<typename SR::left_type>& a,
    const sparse::SpMat<typename SR::right_type>& b, const PastisConfig& cfg,
    sparse::SpGemmStats* stats = nullptr, util::ThreadPool* pool = nullptr) {
  return sparse::spgemm_hash2p<SR>(a, b, stats, pool, cfg.telemetry);
}

/// The similarity edge for an aligned pair, or nullopt if it fails the
/// ANI/coverage thresholds (Table IV: 0.30 / 0.70).
[[nodiscard]] std::optional<io::SimilarityEdge> edge_if_similar(
    const align::AlignTask& task, const align::AlignResult& result,
    std::size_t len_q, std::size_t len_r, const PastisConfig& cfg);

/// Pure device-kernel seconds for `cells` DP updates spread over the node's
/// balanced accelerators — the CUPS denominator (§VII).
[[nodiscard]] double balanced_kernel_seconds(const sim::MachineModel& model,
                                             std::uint64_t cells);

/// Modeled device seconds for the aligned batch `bstats` — kernel time on
/// balanced devices, per-launch latency and host packing, dilated by
/// `dilation` (the §VI-C pre-blocking contention).
[[nodiscard]] double modeled_align_seconds(const sim::MachineModel& model,
                                           const align::BatchStats& bstats,
                                           double dilation);

/// Charges one rank's aligned batch to `clock`: the modeled device seconds
/// (modeled_align_seconds at `dilation`) on Comp::kAlign, plus the CUPS
/// numerator (cells) and denominator (balanced_kernel_seconds) and the
/// pair count. Returns the charged seconds.
double charge_alignment(sim::RankClock& clock, const sim::MachineModel& model,
                        const align::BatchStats& bstats, double dilation);

}  // namespace pastis::core
