#include "index/placement.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace pastis::index {

std::uint64_t ShardPlacement::max_rank_resident_bytes() const {
  std::uint64_t m = 0;
  for (const auto b : rank_resident_bytes) m = std::max(m, b);
  return m;
}

void ShardPlacement::validate() const {
  if (n_ranks < 1) {
    throw std::invalid_argument("ShardPlacement: need n_ranks >= 1");
  }
  if (replication < 1 || replication > n_ranks) {
    throw std::invalid_argument(
        "ShardPlacement: replication must be in [1, n_ranks]");
  }
  if (replicas.size() != primary.size()) {
    throw std::invalid_argument(
        "ShardPlacement: replicas and primary must cover the same shards");
  }
  for (int s = 0; s < n_shards(); ++s) {
    const auto si = static_cast<std::size_t>(s);
    const int prim = primary[si];
    if (prim < 0 || prim >= n_ranks) {
      throw std::invalid_argument("ShardPlacement: shard " +
                                  std::to_string(s) +
                                  " primary rank out of range");
    }
    const auto& holders = replicas[si];
    if (holders.size() != static_cast<std::size_t>(replication)) {
      throw std::invalid_argument(
          "ShardPlacement: shard " + std::to_string(s) + " has " +
          std::to_string(holders.size()) + " holders, expected replication " +
          std::to_string(replication));
    }
    if (holders.front() != prim) {
      throw std::invalid_argument("ShardPlacement: shard " +
                                  std::to_string(s) +
                                  " holder list must lead with the primary");
    }
    for (std::size_t i = 0; i < holders.size(); ++i) {
      if (holders[i] < 0 || holders[i] >= n_ranks) {
        throw std::invalid_argument("ShardPlacement: shard " +
                                    std::to_string(s) +
                                    " replica rank out of range");
      }
      for (std::size_t j = i + 1; j < holders.size(); ++j) {
        if (holders[i] == holders[j]) {
          throw std::invalid_argument(
              "ShardPlacement: shard " + std::to_string(s) +
              " placed twice on rank " + std::to_string(holders[i]) +
              " — duplicate replicas void the availability contract");
        }
      }
    }
  }
}

std::vector<int> ShardPlacement::shards_of(int rank) const {
  std::vector<int> out;
  for (int s = 0; s < n_shards(); ++s) {
    if (primary[static_cast<std::size_t>(s)] == rank) out.push_back(s);
  }
  return out;
}

namespace {

/// Shard ids heaviest first, ties to the smaller id: the order of both the
/// move pass and the replica deal.
std::vector<int> heaviest_first(std::span<const std::uint64_t> shard_bytes) {
  std::vector<int> order(shard_bytes.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto ba = shard_bytes[static_cast<std::size_t>(a)];
    const auto bb = shard_bytes[static_cast<std::size_t>(b)];
    return ba != bb ? ba > bb : a < b;
  });
  return order;
}

/// The least-loaded rank not holding the shard (ties to the smaller rank),
/// or -1 when every rank holds it.
int least_loaded_non_holder(const std::vector<std::uint64_t>& load,
                            const std::vector<int>& holders) {
  int to = -1;
  for (int r = 0; r < static_cast<int>(load.size()); ++r) {
    if (std::find(holders.begin(), holders.end(), r) != holders.end()) {
      continue;
    }
    if (to < 0 || load[static_cast<std::size_t>(r)] <
                      load[static_cast<std::size_t>(to)]) {
      to = r;
    }
  }
  return to;
}

}  // namespace

ShardPlacement ShardPlacement::balance(
    std::span<const std::uint64_t> shard_bytes, int n_ranks,
    int replication) {
  if (n_ranks < 1) {
    throw std::invalid_argument("ShardPlacement: need n_ranks >= 1");
  }
  if (replication < 1 || replication > n_ranks) {
    throw std::invalid_argument(
        "ShardPlacement: replication must be in [1, n_ranks]");
  }
  // A round-robin deal in shard order, one copy per shard, evened out by
  // rebalance's move pass.
  ShardPlacement seed;
  seed.n_ranks = n_ranks;
  for (int s = 0; s < static_cast<int>(shard_bytes.size()); ++s) {
    seed.primary.push_back(s % n_ranks);
    seed.replicas.push_back({s % n_ranks});
  }
  ShardPlacement pl = rebalance(seed, shard_bytes).placement;
  pl.replication = replication;

  // Availability replicas: heaviest shards first, each extra copy on the
  // least-loaded rank not already holding the shard.
  const std::vector<int> order = heaviest_first(shard_bytes);
  for (int copy = 1; copy < replication; ++copy) {
    for (const int s : order) {
      auto& holders = pl.replicas[static_cast<std::size_t>(s)];
      const int to = least_loaded_non_holder(pl.rank_resident_bytes, holders);
      holders.push_back(to);
      pl.rank_resident_bytes[static_cast<std::size_t>(to)] +=
          shard_bytes[static_cast<std::size_t>(s)];
    }
  }
  return pl;
}

RebalanceResult ShardPlacement::rebalance(
    const ShardPlacement& current, std::span<const std::uint64_t> shard_bytes) {
  current.validate();
  if (static_cast<int>(shard_bytes.size()) != current.n_shards()) {
    throw std::invalid_argument(
        "ShardPlacement::rebalance: shard_bytes size disagrees with the "
        "current placement");
  }
  RebalanceResult res;
  ShardPlacement& pl = res.placement;
  pl = current;

  // Rank loads recomputed against the DRIFTED byte counts (every holder —
  // primary and replicas — pays residency).
  pl.rank_resident_bytes.assign(static_cast<std::size_t>(pl.n_ranks), 0);
  const int n = pl.n_shards();
  for (int s = 0; s < n; ++s) {
    for (const int r : pl.replicas[static_cast<std::size_t>(s)]) {
      pl.rank_resident_bytes[static_cast<std::size_t>(r)] +=
          shard_bytes[static_cast<std::size_t>(s)];
    }
  }

  // Greedy move pass: heaviest shards first, each primary moved to the
  // least-loaded rank not already holding the shard (moving onto a replica
  // holder would collapse two copies) when the move strictly lowers the
  // donor's load above the target's post-move load — i.e. when it reduces
  // the pairwise peak.
  for (const int s : heaviest_first(shard_bytes)) {
    const auto si = static_cast<std::size_t>(s);
    const auto b = shard_bytes[si];
    const int from = pl.primary[si];
    auto& holders = pl.replicas[si];
    const int to = least_loaded_non_holder(pl.rank_resident_bytes, holders);
    if (to < 0) continue;  // every rank holds a copy; nowhere to move
    if (pl.rank_resident_bytes[static_cast<std::size_t>(to)] + b <
        pl.rank_resident_bytes[static_cast<std::size_t>(from)]) {
      pl.rank_resident_bytes[static_cast<std::size_t>(from)] -= b;
      pl.rank_resident_bytes[static_cast<std::size_t>(to)] += b;
      pl.primary[si] = to;
      // The primary copy MOVES: the donor drops it, the target gains it,
      // so the replication count is preserved and the holder list keeps
      // leading with the primary.
      holders.erase(std::find(holders.begin(), holders.end(), from));
      holders.insert(holders.begin(), to);
      res.migrations.push_back({s, from, to, b});
    }
  }
  pl.validate();
  return res;
}

}  // namespace pastis::index
