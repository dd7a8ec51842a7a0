// Exact k-NN by exhaustive comparison.
//
// The §5.2 ground truth: "The brute-force approach performs similarity
// comparisons between all pairs in the datasets." O(N²) distance
// evaluations, halved by symmetry. Also provides exact query answers for
// generating synthetic query ground truth (the Big-ANN datasets ship
// theirs; ours are computed).
//
// The row loops evaluate fixed 512-row chunks through
// core::evaluate_rows (one batch-kernel call per chunk when the functor
// has one, else one call per row) and apply updates in pairwise order.
#pragma once

#include <algorithm>
#include <span>
#include <type_traits>
#include <vector>

#include "core/distance_kernels.hpp"
#include "core/feature_store.hpp"
#include "core/knn_graph.hpp"
#include "core/neighbor_list.hpp"
#include "core/types.hpp"

namespace dnnd::baselines {

namespace detail {

/// Evaluates `query` against rows [begin, end) of `points` in 512-row
/// chunks and calls sink(row_index, distance) in row order.
template <typename T, typename DistanceFn, typename Sink>
void eval_rows(const core::FeatureStore<T>& points, std::span<const T> query,
               DistanceFn& distance, std::size_t begin, std::size_t end,
               Sink&& sink) {
  constexpr std::size_t kChunk = 512;
  std::vector<const T*> rows;
  std::vector<core::Dist> dists;
  for (std::size_t base = begin; base < end; base += kChunk) {
    const std::size_t count = std::min(kChunk, end - base);
    dists.resize(count);
    core::evaluate_rows(
        distance, query, count,
        [&](std::size_t j) { return points.row(base + j); }, dists.data(),
        rows);
    for (std::size_t j = 0; j < count; ++j) sink(base + j, dists[j]);
  }
}

}  // namespace detail

/// Exact K-NNG over all pairs (θ symmetric: each pair evaluated once).
/// Vertices are the store's *ids* (which need not be dense — e.g. a
/// survivor set after deletions); the graph spans [0, max id].
template <typename T, typename DistanceFn>
core::KnnGraph brute_force_knn_graph(const core::FeatureStore<T>& points,
                                     DistanceFn distance, std::size_t k) {
  const std::size_t n = points.size();
  std::vector<core::NeighborList> lists(n, core::NeighborList(k));
  core::VertexId max_id = 0;
  for (std::size_t i = 0; i < n; ++i) {
    max_id = std::max(max_id, points.id_at(i));
    detail::eval_rows(points, points.row(i), distance, i + 1, n,
                      [&](std::size_t j, core::Dist d) {
                        lists[i].update(points.id_at(j), d, false);
                        lists[j].update(points.id_at(i), d, false);
                      });
  }
  core::KnnGraph graph(n == 0 ? 0 : max_id + 1);
  for (std::size_t i = 0; i < n; ++i) {
    graph.set_neighbors(points.id_at(i), lists[i].sorted());
  }
  return graph;
}

/// Exact top-k ids for one query, ascending by distance.
template <typename T, typename DistanceFn>
std::vector<core::VertexId> brute_force_query(
    const core::FeatureStore<T>& points,
    std::type_identity_t<std::span<const T>> query, DistanceFn distance,
    std::size_t k) {
  core::NeighborList best(k);
  detail::eval_rows(points, query, distance, 0, points.size(),
                    [&](std::size_t i, core::Dist d) {
                      best.update(points.id_at(i), d, false);
                    });
  std::vector<core::VertexId> ids;
  ids.reserve(best.size());
  for (const auto& nb : best.sorted()) ids.push_back(nb.id);
  return ids;
}

/// Exact ground truth for a query batch.
template <typename T, typename DistanceFn>
std::vector<std::vector<core::VertexId>> brute_force_query_batch(
    const core::FeatureStore<T>& points, const core::FeatureStore<T>& queries,
    DistanceFn distance, std::size_t k) {
  std::vector<std::vector<core::VertexId>> out;
  out.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    out.push_back(brute_force_query(points, queries.row(i), distance, k));
  }
  return out;
}

}  // namespace dnnd::baselines
