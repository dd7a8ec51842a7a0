// Random-projection tree order for locality partitioning.
//
// Recursively splits the points on the sign of a projection onto the
// difference of two randomly chosen anchors (the classic RP-split used by
// Dasgupta & Freund and by PyNNDescent), stopping at leaves of at most
// kRpLeafSize points. Listing the leaves left to right makes spatial
// neighbors contiguous, which is what range placement needs
// (core/partition.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/feature_store.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

namespace dnnd::core {

namespace detail {

inline constexpr std::size_t kRpLeafSize = 30;
inline constexpr std::size_t kRpMaxDepth = 64;  ///< guards degenerate splits

/// <q, a - b>, accumulated in float element by element.
template <typename T>
[[nodiscard]] float rp_project(std::span<const T> q, std::span<const T> a,
                               std::span<const T> b) {
  float dot = 0;
  for (std::size_t i = 0; i < q.size(); ++i) {
    dot += static_cast<float>(q[i]) *
           (static_cast<float>(a[i]) - static_cast<float>(b[i]));
  }
  return dot;
}

/// Splits order[begin, end) in place, then its left and right halves.
template <typename T>
void rp_split(const FeatureStore<T>& points, std::vector<VertexId>& order,
              std::uint32_t begin, std::uint32_t end, std::size_t depth,
              util::Xoshiro256& rng) {
  if (end - begin <= kRpLeafSize || depth >= kRpMaxDepth) return;

  // Pick two distinct anchor points from the range.
  const std::uint32_t span = end - begin;
  const VertexId a = order[begin + rng.uniform_below(span)];
  VertexId b = a;
  for (int tries = 0; tries < 8 && b == a; ++tries) {
    b = order[begin + rng.uniform_below(span)];
  }
  if (b == a) return;  // give up: all samples collided

  // Threshold at the midpoint of the two anchors' projections, so the
  // split passes between them.
  const auto pa = points[a];
  const auto pb = points[b];
  const float threshold =
      0.5f * (rp_project(pa, pa, pb) + rp_project(pb, pa, pb));
  const auto mid = std::partition(
      order.begin() + begin, order.begin() + end,
      [&](VertexId v) { return rp_project(points[v], pa, pb) <= threshold; });
  auto cut = static_cast<std::uint32_t>(mid - order.begin());
  if (cut == begin || cut == end) {
    // Degenerate split (duplicates / colinear data): fall back to a
    // balanced cut so depth stays logarithmic.
    cut = begin + span / 2;
  }
  rp_split(points, order, begin, cut, depth + 1, rng);
  rp_split(points, order, cut, end, depth + 1, rng);
}

}  // namespace detail

/// Spatial reordering for locality partitioning: returns the ids of
/// `points` permuted by one RP-tree's leaf traversal (points in the same
/// leaf — spatial neighbors — become contiguous).
template <typename T>
std::vector<VertexId> rp_tree_order(const FeatureStore<T>& points,
                                    std::uint64_t seed = 1337) {
  std::vector<VertexId> order(points.ids().begin(), points.ids().end());
  util::Xoshiro256 rng(seed);
  detail::rp_split(points, order, 0, static_cast<std::uint32_t>(order.size()),
                   0, rng);
  return order;
}

}  // namespace dnnd::core
