#include "core/stats.hpp"

#include <algorithm>
#include <ostream>

#include "util/format.hpp"

namespace pastis::core {

double SearchStats::cups() const {
  double kernel = 0.0;
  for (const auto& r : ranks) {
    kernel = std::max(kernel, r.align_kernel_seconds);
  }
  return kernel <= 0.0 ? 0.0 : static_cast<double>(align_cells) / kernel;
}

util::MinAvgMax SearchStats::rank_aligned_pairs() const {
  util::MinAvgMax m;
  for (const auto& r : ranks) m.add(static_cast<double>(r.pairs_aligned));
  return m;
}

util::MinAvgMax SearchStats::rank_cells() const {
  util::MinAvgMax m;
  for (const auto& r : ranks) m.add(static_cast<double>(r.align_cells));
  return m;
}

util::MinAvgMax SearchStats::rank_align_seconds() const {
  util::MinAvgMax m;
  for (const auto& r : ranks) m.add(r.get(sim::Comp::kAlign));
  return m;
}

util::MinAvgMax SearchStats::rank_sparse_seconds() const {
  util::MinAvgMax m;
  for (const auto& r : ranks) {
    m.add(r.get(sim::Comp::kSpGemm) + r.get(sim::Comp::kSparseOther));
  }
  return m;
}

void print_search_report(std::ostream& os, const SearchStats& s) {
  using util::fixed;
  using util::si_unit;
  using util::with_commas;

  os << "--- search report -------------------------------------------\n";
  os << "processes (grid)        " << s.nprocs << "\n";
  os << "blocking factor         " << s.block_rows << "x" << s.block_cols;
  if (s.pipeline_depth >= 2) {
    os << "  (pipeline depth " << s.pipeline_depth << ")";
  }
  os << "\n";
  os << "input sequences         " << with_commas(s.n_seqs) << "\n";
  os << "total residues          " << with_commas(s.total_residues) << "\n";
  os << "k-mer matrix            " << with_commas(s.n_seqs) << " x "
     << with_commas(s.kmer_cols) << ", nnz " << with_commas(s.kmer_nnz)
     << "\n";
  os << "discovered candidates   " << with_commas(s.candidates) << "\n";
  os << "performed alignments    " << with_commas(s.aligned_pairs);
  if (s.candidates > 0) {
    os << "  (" << fixed(100.0 * double(s.aligned_pairs) / double(s.candidates), 1)
       << "% of candidates)";
  }
  os << "\n";
  os << "similar pairs (output)  " << with_commas(s.similar_pairs);
  if (s.aligned_pairs > 0) {
    os << "  ("
       << fixed(100.0 * double(s.similar_pairs) / double(s.aligned_pairs), 1)
       << "% of aligned)";
  }
  os << "\n";
  os << "SpGEMM products         " << with_commas(s.spgemm.products)
     << "  (compression " << fixed(s.spgemm.compression_factor(), 2) << ")\n";
  os << "DP cells updated        " << with_commas(s.align_cells) << "\n";
  os << "--- modeled time (s) ----------------------------------------\n";
  os << "io (in)                 " << fixed(s.t_io_in, 4) << "\n";
  os << "setup (A, transpose)    " << fixed(s.t_setup, 4) << "\n";
  os << "cwait                   " << fixed(s.t_cwait, 4) << "\n";
  os << "block loop              " << fixed(s.t_blocks, 4) << "\n";
  os << "io (out)                " << fixed(s.t_io_out, 4) << "\n";
  os << "total                   " << fixed(s.t_total, 4) << "\n";
  os << "components (max rank): align " << fixed(s.comp_align, 4)
     << ", spgemm " << fixed(s.comp_spgemm, 4) << ", sparse(other) "
     << fixed(s.comp_sparse_other, 4) << ", other " << fixed(s.comp_other, 4)
     << "\n";
  os << "--- rates ----------------------------------------------------\n";
  os << "alignments per second   " << si_unit(s.alignments_per_second())
     << "\n";
  os << "cell updates per second " << si_unit(s.cups()) << "CUPS\n";
  os << "imbalance               align "
     << fixed(s.align_imbalance_pct(), 1) << "%, sparse "
     << fixed(s.sparse_imbalance_pct(), 1) << "%\n";
  os << "peak rank memory        "
     << util::bytes_human(static_cast<double>(s.peak_rank_bytes)) << "\n";
  os << "harness wall time       " << fixed(s.wall_seconds, 2) << " s\n";
  os << "--------------------------------------------------------------\n";
}

}  // namespace pastis::core
