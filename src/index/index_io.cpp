#include "index/index_io.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "kmer/codec.hpp"
#include "sim/grid.hpp"
#include "sparse/triple.hpp"

namespace pastis::index {

namespace {

constexpr char kMagic[8] = {'P', 'A', 'S', 'T', 'I', 'D', 'X', '\0'};
constexpr char kFooter[8] = {'X', 'D', 'I', 'T', 'S', 'A', 'P', '\0'};

/// Bytes one posting contributes to the logical in-memory estimate: DCSR
/// stores per nonzero a column id (4), a payload (4) and, worst case, a
/// row-directory entry (4) plus row-pointer slot (8).
constexpr std::uint64_t kBytesPerPosting = 20;

/// On-disk bytes per posting: (row u32, col u32, pos u32).
constexpr std::uint64_t kDiskBytesPerPosting = 12;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is, const char* what) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) {
    throw std::runtime_error(std::string("index_io: truncated file reading ") +
                             what);
  }
  return v;
}

/// v3 segment manifest entry: the header-level description of one LSM
/// delta segment (serve/delta_index.hpp), enough to gate memory and find
/// placement loads without materializing postings.
struct SegmentMeta {
  std::uint64_t n_refs = 0;
  std::uint64_t ref_residues = 0;
  std::uint64_t total_nnz = 0;  // sum of shard_nnz (not stored; derived)
  std::vector<std::uint64_t> shard_nnz;
};

struct Header {
  IndexParams params;
  std::uint64_t n_refs = 0;        // base only
  std::uint64_t ref_residues = 0;  // base only
  std::uint32_t n_shards = 0;
  std::uint64_t kmer_space = 0;
  std::uint64_t total_nnz = 0;     // base only
  /// v2 placement section: per-shard postings counts, so per-rank resident
  /// bytes of any serving placement are computable before materializing.
  std::vector<std::uint64_t> shard_nnz;
  /// v3 segment manifest (empty for v2 files and plain saves).
  std::vector<SegmentMeta> segments;
  /// v4 minhash sketch slots per base reference (0 = no sketch table). The
  /// table itself sits between the header and the base body and is read by
  /// read_sketch_table() after gate_load has validated the counts.
  std::uint32_t sketch_len = 0;

  [[nodiscard]] std::uint64_t all_nnz() const {
    std::uint64_t n = total_nnz;
    for (const auto& g : segments) n += g.total_nnz;
    return n;
  }
  [[nodiscard]] std::uint64_t all_refs() const {
    std::uint64_t n = n_refs;
    for (const auto& g : segments) n += g.n_refs;
    return n;
  }
  [[nodiscard]] std::uint64_t all_ref_residues() const {
    std::uint64_t n = ref_residues;
    for (const auto& g : segments) n += g.ref_residues;
    return n;
  }

  [[nodiscard]] std::uint64_t logical_bytes() const {
    return all_ref_residues() + all_nnz() * kBytesPerPosting +
           n_refs * std::uint64_t{sketch_len} * sizeof(std::uint64_t);
  }

  /// The modeled resident bytes per shard (the placement's load vector);
  /// folds base and delta segment postings — a shard is served from both.
  [[nodiscard]] std::vector<std::uint64_t> shard_resident_bytes() const {
    std::vector<std::uint64_t> out;
    out.reserve(shard_nnz.size());
    for (const auto nnz : shard_nnz) out.push_back(nnz * kBytesPerPosting);
    for (const auto& g : segments) {
      for (std::size_t s = 0; s < out.size(); ++s) {
        out[s] += g.shard_nnz[s] * kBytesPerPosting;
      }
    }
    return out;
  }
};

void write_header(std::ostream& os, const Header& h) {
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, kIndexFormatVersion);
  write_pod<std::int32_t>(os, h.params.k);
  write_pod<std::int32_t>(os, static_cast<std::int32_t>(h.params.alphabet));
  write_pod<std::int32_t>(os, h.params.subs_kmers);
  write_pod<std::int32_t>(os, h.params.subs_max_loss);
  write_pod<std::int32_t>(os, static_cast<std::int32_t>(h.params.matrix));
  write_pod<std::int32_t>(os, h.params.gap_open);
  write_pod<std::int32_t>(os, h.params.gap_extend);
  write_pod(os, h.n_refs);
  write_pod(os, h.ref_residues);
  write_pod(os, h.n_shards);
  write_pod(os, h.kmer_space);
  write_pod(os, h.total_nnz);
  for (const auto nnz : h.shard_nnz) write_pod(os, nnz);
  // v3 segment manifest (always written; empty = no deltas).
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(h.segments.size()));
  for (const auto& g : h.segments) {
    write_pod(os, g.n_refs);
    write_pod(os, g.ref_residues);
    for (const auto nnz : g.shard_nnz) write_pod(os, nnz);
  }
  // v4 sketch slot count (the table follows the header).
  write_pod(os, h.sketch_len);
}

Header read_header(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("index_io: not a PASTIS index file (bad magic)");
  }
  // v2 files (no segment manifest) stay loadable: the serving tier's
  // format bump must not orphan existing indexes.
  const auto version = read_pod<std::uint32_t>(is, "version");
  if (version < 2 || version > kIndexFormatVersion) {
    throw std::runtime_error("index_io: unsupported index format version " +
                             std::to_string(version) + " (expected 2.." +
                             std::to_string(kIndexFormatVersion) + ")");
  }
  Header h;
  h.params.k = read_pod<std::int32_t>(is, "params.k");
  // Enum fields must be range-checked here: casting an out-of-range value
  // and handing it to Alphabet/Scoring is undefined behaviour, not an
  // exception we could translate.
  const auto alphabet_raw = read_pod<std::int32_t>(is, "params.alphabet");
  if (alphabet_raw < 0 ||
      alphabet_raw > static_cast<std::int32_t>(kmer::Alphabet::Kind::kMurphy10)) {
    throw std::runtime_error("index_io: corrupt header: bad alphabet kind");
  }
  h.params.alphabet = static_cast<kmer::Alphabet::Kind>(alphabet_raw);
  h.params.subs_kmers = read_pod<std::int32_t>(is, "params.subs_kmers");
  h.params.subs_max_loss = read_pod<std::int32_t>(is, "params.subs_max_loss");
  const auto matrix_raw = read_pod<std::int32_t>(is, "params.matrix");
  if (matrix_raw < 0 ||
      matrix_raw > static_cast<std::int32_t>(align::Scoring::Matrix::kPam250)) {
    throw std::runtime_error("index_io: corrupt header: bad scoring matrix");
  }
  h.params.matrix = static_cast<align::Scoring::Matrix>(matrix_raw);
  h.params.gap_open = read_pod<std::int32_t>(is, "params.gap_open");
  h.params.gap_extend = read_pod<std::int32_t>(is, "params.gap_extend");
  h.n_refs = read_pod<std::uint64_t>(is, "n_refs");
  h.ref_residues = read_pod<std::uint64_t>(is, "ref_residues");
  h.n_shards = read_pod<std::uint32_t>(is, "n_shards");
  h.kmer_space = read_pod<std::uint64_t>(is, "kmer_space");
  h.total_nnz = read_pod<std::uint64_t>(is, "total_nnz");
  // Placement section. The count gates the allocation (a bit-flipped
  // n_shards must throw, not allocate gigabytes).
  if (h.n_shards == 0 || h.n_shards > (1u << 24)) {
    throw std::runtime_error("index_io: corrupt header: bad shard count");
  }
  h.shard_nnz.resize(h.n_shards);
  std::uint64_t placed = 0;
  for (std::uint32_t s = 0; s < h.n_shards; ++s) {
    h.shard_nnz[s] = read_pod<std::uint64_t>(is, "placement shard nnz");
    placed += h.shard_nnz[s];
  }
  if (placed != h.total_nnz) {
    throw std::runtime_error(
        "index_io: corrupt header: placement section disagrees with "
        "total_nnz");
  }
  // v3 segment manifest (a v2 file simply has none).
  if (version >= 3) {
    const auto n_segments = read_pod<std::uint32_t>(is, "segment count");
    if (n_segments > (1u << 16)) {
      throw std::runtime_error("index_io: corrupt header: bad segment count");
    }
    h.segments.resize(n_segments);
    for (auto& g : h.segments) {
      g.n_refs = read_pod<std::uint64_t>(is, "segment n_refs");
      g.ref_residues = read_pod<std::uint64_t>(is, "segment ref_residues");
      g.shard_nnz.resize(h.n_shards);
      g.total_nnz = 0;
      for (std::uint32_t s = 0; s < h.n_shards; ++s) {
        g.shard_nnz[s] = read_pod<std::uint64_t>(is, "segment shard nnz");
        g.total_nnz += g.shard_nnz[s];
      }
    }
  }
  // v4 sketch slot count. The table itself is NOT read here — its size
  // depends on n_refs, which only gate_load validates against the file
  // size; read_sketch_table() consumes it after the gate.
  if (version >= 4) {
    h.sketch_len = read_pod<std::uint32_t>(is, "sketch_len");
    if (h.sketch_len > 4096) {
      throw std::runtime_error("index_io: corrupt header: bad sketch length");
    }
  }
  return h;
}

/// Reads the v4 sketch table sitting between the header and the base body.
/// Must run after gate_load (which bounds n_refs × sketch_len by the file
/// size, so the allocation here is safe even for corrupt headers).
std::vector<std::uint64_t> read_sketch_table(std::istream& is,
                                             const Header& h) {
  std::vector<std::uint64_t> table(h.n_refs *
                                   static_cast<std::uint64_t>(h.sketch_len));
  if (!table.empty()) {
    is.read(reinterpret_cast<char*>(table.data()),
            static_cast<std::streamsize>(table.size() * sizeof(std::uint64_t)));
    if (!is) {
      throw std::runtime_error(
          "index_io: truncated file reading sketch table");
    }
  }
  return table;
}

/// Re-throws the std::invalid_argument that corrupt param fields (k,
/// alphabet, matrix out of range) trigger in downstream constructors as
/// the std::runtime_error this module's contract promises for corruption.
template <typename Fn>
auto guard_corruption(Fn fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("index_io: corrupt header: ") +
                             e.what());
  }
}

}  // namespace

namespace {

/// The v2 body layout (also the v3 segment format, reused verbatim):
/// ref lengths, concatenated residues, then the shard stripes.
void write_index_body(std::ostream& os, const KmerIndex& index) {
  for (Index i = 0; i < index.n_refs(); ++i) {
    write_pod<std::uint32_t>(os,
                             static_cast<std::uint32_t>(index.ref(i).size()));
  }
  for (Index i = 0; i < index.n_refs(); ++i) {
    const auto seq = index.ref(i);
    os.write(seq.data(), static_cast<std::streamsize>(seq.size()));
  }

  std::vector<char> buf;
  for (int s = 0; s < index.n_shards(); ++s) {
    const auto& shard = index.shard(s);
    write_pod<std::uint64_t>(os, shard.nnz());
    // Pack the shard's postings into one fixed-width block (12 bytes per
    // posting) and write it with a single call.
    buf.resize(shard.nnz() * kDiskBytesPerPosting);
    char* out = buf.data();
    shard.for_each([&](Index row, Index col, const KmerPos& v) {
      const std::uint32_t fields[3] = {row, col, v.pos};
      std::memcpy(out, fields, sizeof(fields));
      out += sizeof(fields);
    });
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
}

}  // namespace

void save_index(const std::string& path, const KmerIndex& index) {
  save_index(path, index, {});
}

void save_index(const std::string& path, const KmerIndex& base,
                std::span<const KmerIndex> segments) {
  for (const auto& seg : segments) {
    if (!(seg.params() == base.params()) ||
        seg.n_shards() != base.n_shards() ||
        seg.kmer_space() != base.kmer_space()) {
      throw std::invalid_argument(
          "index_io: segment params/shards do not match the base index");
    }
  }
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    throw std::runtime_error("index_io: cannot open for writing: " + path);
  }

  Header h;
  h.params = base.params();
  h.n_refs = base.n_refs();
  h.ref_residues = base.ref_residues();
  h.n_shards = static_cast<std::uint32_t>(base.n_shards());
  h.kmer_space = base.kmer_space();
  h.total_nnz = base.nnz();
  h.shard_nnz.reserve(h.n_shards);
  for (int s = 0; s < base.n_shards(); ++s) {
    h.shard_nnz.push_back(base.shard(s).nnz());
  }
  h.segments.reserve(segments.size());
  for (const auto& seg : segments) {
    SegmentMeta g;
    g.n_refs = seg.n_refs();
    g.ref_residues = seg.ref_residues();
    g.total_nnz = seg.nnz();
    g.shard_nnz.reserve(h.n_shards);
    for (int s = 0; s < seg.n_shards(); ++s) {
      g.shard_nnz.push_back(seg.shard(s).nnz());
    }
    h.segments.push_back(std::move(g));
  }
  h.sketch_len = static_cast<std::uint32_t>(base.sketch_len());
  write_header(os, h);

  if (!base.sketches().empty()) {
    os.write(reinterpret_cast<const char*>(base.sketches().data()),
             static_cast<std::streamsize>(base.sketches().size() *
                                          sizeof(std::uint64_t)));
  }

  write_index_body(os, base);
  for (const auto& seg : segments) write_index_body(os, seg);

  os.write(kFooter, sizeof(kFooter));
  if (!os) {
    throw std::runtime_error("index_io: write failed: " + path);
  }
}

std::uint64_t peek_index_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("index_io: cannot open: " + path);
  }
  return read_header(is).logical_bytes();
}

namespace {

/// Per-rank resident bytes under the balanced placement of the header's
/// shards: placed postings (+ replicas) plus the rank's near-equal slice
/// of the reference residues (alignment ownership is block-partitioned).
std::vector<std::uint64_t> rank_resident_from_header(const Header& h,
                                                     int n_ranks,
                                                     int replication) {
  const auto pl =
      ShardPlacement::balance(h.shard_resident_bytes(), n_ranks, replication);
  std::vector<std::uint64_t> out = pl.rank_resident_bytes;
  const auto ref_share =
      (h.all_ref_residues() + static_cast<std::uint64_t>(n_ranks) - 1) /
      static_cast<std::uint64_t>(n_ranks);
  for (auto& b : out) b += ref_share;
  return out;
}

}  // namespace

std::vector<std::uint64_t> peek_rank_resident_bytes(const std::string& path,
                                                    int n_ranks,
                                                    int replication) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("index_io: cannot open: " + path);
  }
  return rank_resident_from_header(read_header(is), n_ranks, replication);
}

KmerIndex load_index(const std::string& path, std::uint64_t max_bytes) {
  return load_index(path, RankBudgetGate{1, 1, max_bytes});
}

namespace {

/// Header sanity + the per-rank memory gate, both decided before any
/// posting is materialized. Counts fold base + segments (every declared
/// section must fit inside the file — a bit-flipped count must throw, not
/// trigger an exabyte allocation that would bypass the budget gate).
void gate_load(const std::string& path, const Header& h,
               const RankBudgetGate& gate) {
  const std::uint64_t file_size = std::filesystem::file_size(path);
  if (h.n_shards == 0 ||
      h.all_refs() > file_size / sizeof(std::uint32_t) ||
      h.all_ref_residues() > file_size ||
      h.all_nnz() > file_size / kDiskBytesPerPosting ||
      (h.sketch_len > 0 &&
       h.n_refs > file_size / (std::uint64_t{h.sketch_len} *
                               sizeof(std::uint64_t)))) {
    throw std::runtime_error(
        "index_io: header counts exceed the file size (corrupt header)");
  }

  // Per-rank memory gate: decided from the header's placement section
  // alone. The whole-index budget of the v1 format is the 1-rank special
  // case (placement on one rank = everything resident there).
  if (gate.rank_memory_budget_bytes != 0) {
    const auto per_rank =
        rank_resident_from_header(h, gate.n_ranks, gate.replication);
    std::uint64_t worst = 0;
    for (const auto b : per_rank) worst = std::max(worst, b);
    if (worst > gate.rank_memory_budget_bytes) {
      throw std::runtime_error(
          "index_io: placement needs ~" + std::to_string(worst) +
          " resident bytes on its fullest of " +
          std::to_string(gate.n_ranks) + " rank(s), over the " +
          std::to_string(gate.rank_memory_budget_bytes) +
          "-byte per-rank budget");
    }
  }
}

/// Reads one v2-layout body (ref lengths + residues + shard stripes) and
/// assembles the KmerIndex. Used for the base (`where` = "") and for each
/// v3 segment (`where` = "segment g "). Every posting must lie inside its
/// shard, name a reference of this body and start a whole k-mer of it, and
/// each shard must hold exactly the header's count of distinct postings;
/// a violation throws std::runtime_error naming the shard.
KmerIndex read_index_body(std::istream& is, const Header& h,
                          std::uint64_t n_refs, std::uint64_t ref_residues,
                          const std::vector<std::uint64_t>& shard_nnz,
                          const std::string& where) {
  std::vector<std::uint32_t> lengths(n_refs);
  is.read(reinterpret_cast<char*>(lengths.data()),
          static_cast<std::streamsize>(n_refs * sizeof(std::uint32_t)));
  if (!is) {
    throw std::runtime_error("index_io: truncated file reading ref lengths");
  }
  std::uint64_t residues = 0;
  for (const auto len : lengths) residues += len;
  if (residues != ref_residues) {
    throw std::runtime_error("index_io: corrupt reference section");
  }
  std::vector<std::string> refs(n_refs);
  for (std::uint64_t i = 0; i < n_refs; ++i) {
    refs[i].resize(lengths[i]);
    is.read(refs[i].data(), lengths[i]);
  }
  if (!is) {
    throw std::runtime_error("index_io: truncated reference section");
  }

  const auto k = static_cast<std::uint64_t>(h.params.k);
  std::vector<sparse::SpMat<KmerPos>> shards;
  shards.reserve(h.n_shards);
  std::vector<char> buf;
  for (std::uint32_t s = 0; s < h.n_shards; ++s) {
    const auto corrupt = [&](const char* what) {
      return std::runtime_error("index_io: " + where + "shard " +
                                std::to_string(s) + ": " + what);
    };
    const auto nnz = read_pod<std::uint64_t>(is, "shard nnz");
    if (nnz != shard_nnz[s]) {
      throw corrupt("postings disagree with the header");
    }
    // One bulk read per shard (the format is fixed-width little-endian).
    buf.resize(nnz * kDiskBytesPerPosting);
    is.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!is) {
      throw std::runtime_error("index_io: truncated file reading postings");
    }
    const Index rows =
        sim::ProcGrid::split_point(static_cast<Index>(h.kmer_space),
                                   static_cast<int>(h.n_shards),
                                   static_cast<int>(s) + 1) -
        sim::ProcGrid::split_point(static_cast<Index>(h.kmer_space),
                                   static_cast<int>(h.n_shards),
                                   static_cast<int>(s));
    std::vector<sparse::Triple<KmerPos>> triples;
    triples.reserve(nnz);
    const char* in = buf.data();
    for (std::uint64_t t = 0; t < nnz; ++t) {
      std::uint32_t fields[3];
      std::memcpy(fields, in, sizeof(fields));
      in += sizeof(fields);
      if (fields[0] >= rows || fields[1] >= n_refs) {
        throw corrupt("posting outside the shard");
      }
      if (fields[2] + k > lengths[fields[1]]) {
        throw corrupt("posting position past its reference's last k-mer");
      }
      triples.push_back({fields[0], fields[1], KmerPos{fields[2]}});
    }
    shards.push_back(sparse::SpMat<KmerPos>::from_triples(
        rows, static_cast<Index>(n_refs), std::move(triples)));
    if (shards.back().nnz() != nnz) {
      throw corrupt("duplicate postings");
    }
  }

  return guard_corruption([&] {
    return KmerIndex::from_parts(h.params, static_cast<int>(h.n_shards),
                                 std::move(refs), std::move(shards));
  });
}

void check_footer(std::istream& is) {
  char footer[8];
  is.read(footer, sizeof(footer));
  if (!is || std::memcmp(footer, kFooter, sizeof(kFooter)) != 0) {
    throw std::runtime_error("index_io: missing footer (truncated file)");
  }
}

void check_codec(const Header& h) {
  guard_corruption([&] {
    const kmer::Alphabet alphabet(h.params.alphabet);
    const kmer::KmerCodec codec(alphabet.size(), h.params.k);
    if (codec.space() != h.kmer_space) {
      throw std::runtime_error("index_io: header k-mer space disagrees with k");
    }
  });
}

}  // namespace

KmerIndex load_index(const std::string& path, const RankBudgetGate& gate) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("index_io: cannot open: " + path);
  }
  const Header h = read_header(is);
  if (!h.segments.empty()) {
    // Dropping deltas silently would serve a truncated reference set.
    throw std::runtime_error(
        "index_io: file carries " + std::to_string(h.segments.size()) +
        " delta segment(s); use load_index_parts to load them");
  }
  gate_load(path, h, gate);
  check_codec(h);
  auto sketches = read_sketch_table(is, h);
  KmerIndex base =
      read_index_body(is, h, h.n_refs, h.ref_residues, h.shard_nnz, "");
  base.set_sketches(static_cast<int>(h.sketch_len), std::move(sketches));
  check_footer(is);
  return base;
}

IndexParts load_index_parts(const std::string& path,
                            const RankBudgetGate& gate) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("index_io: cannot open: " + path);
  }
  const Header h = read_header(is);
  gate_load(path, h, gate);
  check_codec(h);
  auto sketches = read_sketch_table(is, h);
  IndexParts parts;
  parts.base =
      read_index_body(is, h, h.n_refs, h.ref_residues, h.shard_nnz, "");
  parts.base.set_sketches(static_cast<int>(h.sketch_len),
                          std::move(sketches));
  parts.segments.reserve(h.segments.size());
  for (std::size_t g = 0; g < h.segments.size(); ++g) {
    const auto& seg = h.segments[g];
    parts.segments.push_back(
        read_index_body(is, h, seg.n_refs, seg.ref_residues, seg.shard_nnz,
                        "segment " + std::to_string(g) + " "));
  }
  check_footer(is);
  return parts;
}

}  // namespace pastis::index
