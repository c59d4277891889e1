// Umbrella header: the public API of the PASTIS reproduction.
//
// Typical use (see examples/quickstart.cpp):
//
//   pastis::core::PastisConfig cfg;          // k=6, BLOSUM62 11/2, ...
//   cfg.block_rows = cfg.block_cols = 4;     // blocked 2D sparse SUMMA
//   cfg.load_balance = pastis::core::LoadBalanceScheme::kIndexBased;
//   cfg.pipeline_depth = 2;                  // overlap discovery, alignment
//   pastis::core::SimilaritySearch search(cfg, pastis::sim::MachineModel{},
//                                         /*nprocs=*/16);
//   auto result = search.run(std::move(sequences));
//   pastis::io::write_similarity_graph("out.tsv", result.edges);
#pragma once

#include "align/banded.hpp"
#include "align/batch.hpp"
#include "align/cascade.hpp"
#include "align/scoring.hpp"
#include "align/smith_waterman.hpp"
#include "align/xdrop.hpp"
#include "baseline/bruteforce.hpp"
#include "baseline/replicated_index.hpp"
#include "baseline/workpackage.hpp"
#include "cluster/cluster.hpp"
#include "cluster/components.hpp"
#include "cluster/graph.hpp"
#include "cluster/mcl.hpp"
#include "cluster/result.hpp"
#include "core/common_kmers.hpp"
#include "core/config.hpp"
#include "core/kmer_matrix.hpp"
#include "core/load_balance.hpp"
#include "core/pipeline.hpp"
#include "core/seq_store.hpp"
#include "core/stages.hpp"
#include "core/stats.hpp"
#include "dist/distmat.hpp"
#include "dist/summa.hpp"
#include "exec/stream_pipeline.hpp"
#include "exec/timeline.hpp"
#include "gen/protein_gen.hpp"
#include "index/index_io.hpp"
#include "index/kmer_index.hpp"
#include "index/query_engine.hpp"
#include "io/fasta.hpp"
#include "io/graph_io.hpp"
#include "kmer/alphabet.hpp"
#include "kmer/codec.hpp"
#include "kmer/extract.hpp"
#include "kmer/nearest.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "serve/delta_index.hpp"
#include "serve/result_cache.hpp"
#include "serve/serving_tier.hpp"
#include "sim/clock.hpp"
#include "sim/grid.hpp"
#include "sim/machine_model.hpp"
#include "sim/runtime.hpp"
#include "sparse/matrix.hpp"
#include "sparse/semiring.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/triple.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
