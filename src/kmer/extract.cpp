#include "kmer/extract.hpp"

namespace pastis::kmer {

std::vector<KmerHit> extract_kmers(std::string_view seq,
                                   const Alphabet& alphabet,
                                   const KmerCodec& codec) {
  std::vector<KmerHit> hits;
  const int k = codec.k();
  if (static_cast<int>(seq.size()) < k) return hits;
  hits.reserve(seq.size() - static_cast<std::size_t>(k) + 1);

  // Rolling encode: drop the leading residue's contribution, shift, append.
  std::uint64_t head_weight = 1;
  for (int i = 0; i < k - 1; ++i) {
    head_weight *= static_cast<std::uint64_t>(codec.sigma());
  }

  std::uint64_t code = 0;
  int valid_run = 0;  // residues of the current window already encoded
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const std::uint8_t c = alphabet.encode(seq[i]);
    if (c == Alphabet::kInvalid) {
      valid_run = 0;
      code = 0;
      continue;
    }
    if (valid_run == k) {
      code -= head_weight *
              static_cast<std::uint64_t>(
                  alphabet.encode(seq[i - static_cast<std::size_t>(k)]));
      --valid_run;
    }
    code = code * static_cast<std::uint64_t>(codec.sigma()) + c;
    ++valid_run;
    if (valid_run == k) {
      hits.push_back(
          {code, static_cast<std::uint32_t>(i + 1 - static_cast<std::size_t>(k))});
    }
  }
  return hits;
}

}  // namespace pastis::kmer
