// Vertex-to-rank partitioning.
//
// DNND assigns each vertex (feature + neighbor list) to a rank "based on
// the hash values of the vertex IDs" (paper §4) — great load balance,
// zero locality: a vertex's neighbors land on random ranks, so nearly all
// neighbor checks go off-node. This module makes the mapping pluggable:
//
//   Partition::hash(R)             the paper's scheme (default everywhere)
//   Partition::range(bounds)       contiguous id ranges per rank; paired
//                                  with an RP-tree reordering of the
//                                  dataset it becomes locality-aware
//                                  (Pyramid-style): spatial neighbors get
//                                  nearby ids, nearby ids share a rank
//
// Every rank holds the same Partition (O(R) state), so ownership is
// computable anywhere without communication — the invariant the whole
// message protocol relies on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/feature_store.hpp"
#include "core/rp_tree.hpp"
#include "core/types.hpp"
#include "util/hash.hpp"

namespace dnnd::core {

class Partition {
 public:
  /// Paper default: owner = mix(id) mod R.
  static Partition hash(int num_ranks) {
    if (num_ranks < 1) throw std::invalid_argument("Partition: ranks < 1");
    Partition p;
    p.num_ranks_ = num_ranks;
    return p;
  }

  /// Range scheme: rank r owns ids in [bounds[r-1], bounds[r]) with an
  /// implicit bounds[-1] = 0; ids >= bounds.back() belong to the last
  /// rank. `upper_bounds` must be non-decreasing, one entry per rank.
  static Partition range(std::vector<VertexId> upper_bounds) {
    if (upper_bounds.empty()) {
      throw std::invalid_argument("Partition: empty bounds");
    }
    if (!std::is_sorted(upper_bounds.begin(), upper_bounds.end())) {
      throw std::invalid_argument("Partition: bounds not sorted");
    }
    Partition p;
    p.num_ranks_ = static_cast<int>(upper_bounds.size());
    p.bounds_ = std::move(upper_bounds);
    return p;
  }

  /// Equal-count ranges over a dense id space [0, n).
  static Partition even_ranges(std::size_t n, int num_ranks) {
    std::vector<VertexId> bounds;
    bounds.reserve(static_cast<std::size_t>(num_ranks));
    for (int r = 1; r <= num_ranks; ++r) {
      bounds.push_back(static_cast<VertexId>(
          n * static_cast<std::size_t>(r) /
          static_cast<std::size_t>(num_ranks)));
    }
    return range(std::move(bounds));
  }

  [[nodiscard]] int owner(VertexId id) const noexcept {
    if (bounds_.empty()) return util::owner_rank(id, num_ranks_);
    const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), id);
    const auto idx = static_cast<int>(it - bounds_.begin());
    return idx < num_ranks_ ? idx : num_ranks_ - 1;
  }

  [[nodiscard]] int num_ranks() const noexcept { return num_ranks_; }
  [[nodiscard]] bool is_hash() const noexcept { return bounds_.empty(); }

 private:
  Partition() = default;
  int num_ranks_ = 1;
  std::vector<VertexId> bounds_;  ///< empty = hash mode
};

/// Replica placement for the serving layer (ISSUE 10): the shard whose
/// home rank is h is mirrored onto `factor` ranks — h, h+1, ...,
/// h+factor-1 (mod R) — a chained successor list, so every rank hosts
/// exactly `factor` shards and losing any `factor - 1` consecutive ranks
/// still leaves each shard with a live replica. Like Partition, the map
/// is closed-form O(1) state every rank evaluates without communication;
/// the preferred replica (slot 0) is always the home rank itself, so a
/// fault-free query takes exactly the pre-replication route.
class ReplicaMap {
 public:
  /// Identity map: factor 1, every shard served only by its home rank.
  ReplicaMap() = default;

  ReplicaMap(int num_ranks, int factor)
      : num_ranks_(num_ranks), factor_(factor) {
    if (num_ranks < 1) throw std::invalid_argument("ReplicaMap: ranks < 1");
    if (factor < 1) throw std::invalid_argument("ReplicaMap: factor < 1");
    // More replicas than ranks adds copies with nowhere distinct to live.
    factor_ = std::min(factor_, num_ranks_);
  }

  [[nodiscard]] int num_ranks() const noexcept { return num_ranks_; }
  [[nodiscard]] int factor() const noexcept { return factor_; }

  /// Rank hosting replica slot `slot` of the shard homed at `home`.
  [[nodiscard]] int replica(int home, int slot) const noexcept {
    return (home + slot) % num_ranks_;
  }

  /// True when `rank` holds a copy of home's shard.
  [[nodiscard]] bool hosts(int rank, int home) const noexcept {
    const int delta = (rank - home + num_ranks_) % num_ranks_;
    return delta < factor_;
  }

  /// Home ranks whose shards `rank` mirrors, nearest predecessor first,
  /// excluding `rank`'s own shard.
  [[nodiscard]] std::vector<int> mirrored_homes(int rank) const {
    std::vector<int> homes;
    homes.reserve(static_cast<std::size_t>(factor_ - 1));
    for (int slot = 1; slot < factor_; ++slot) {
      homes.push_back((rank - slot + num_ranks_) % num_ranks_);
    }
    return homes;
  }

 private:
  int num_ranks_ = 1;
  int factor_ = 1;
};

/// Builds a new store with dense ids 0..N-1 assigned in `order`; returns
/// the reordered store plus old-id lookup (new id -> original id).
template <typename T>
std::pair<FeatureStore<T>, std::vector<VertexId>> reorder_dense(
    const FeatureStore<T>& points, const std::vector<VertexId>& order) {
  FeatureStore<T> out;
  std::vector<VertexId> original;
  original.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    out.add(static_cast<VertexId>(i), points[order[i]]);
    original.push_back(order[i]);
  }
  return {std::move(out), std::move(original)};
}

}  // namespace dnnd::core
