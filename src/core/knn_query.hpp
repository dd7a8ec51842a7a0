// Approximate nearest-neighbor search on a k-NN graph (paper §3.3).
//
// Greedy best-first traversal with two heaps:
//   * frontier (min-heap on distance): vertices to expand next,
//   * result (max-heap of size l): best l found so far.
//
// Termination: frontier empty, or the closest frontier vertex is already
// farther than the admission bound. PyNNDescent's epsilon parameter
// relaxes the bound to (1 + epsilon) · d_max, trading time for recall —
// this is the knob the Figure-2 tradeoff curves sweep.
//
// The paper's query program is shared-memory (C++/OpenMP over the gathered
// graph); batch_search mirrors that with a std::thread worker pool.
#pragma once

#include <atomic>
#include <cstdint>
#include <queue>
#include <span>
#include <thread>
#include <vector>

#include "core/distance_kernels.hpp"
#include "core/feature_store.hpp"
#include "core/knn_graph.hpp"
#include "core/neighbor_list.hpp"
#include "core/types.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace dnnd::core {

struct SearchParams {
  std::size_t num_neighbors = 10;  ///< l: results per query
  double epsilon = 0.0;            ///< frontier admission slack (§3.3)
  /// Random entry points seeded into the frontier. 0 = use num_neighbors
  /// (the paper's "l points are chosen randomly"). Larger values guard
  /// against poorly connected graphs — the role PyNNDescent's RP-tree
  /// initialization plays in the original implementation.
  std::size_t num_entry_points = 0;
  std::uint64_t seed = 99;         ///< entry-point sampling
};

struct SearchResult {
  std::vector<Neighbor> neighbors;  ///< ascending distance, size <= l
  std::uint64_t distance_evals = 0;
  std::size_t visited = 0;
  /// Fraction of the query's sub-requests that were answered: 1.0 on any
  /// fault-free path; < 1.0 when every replica of some shard was dead and
  /// the distributed service completed the query in degraded mode with
  /// the best results still reachable (it degrades, never hangs or
  /// throws — the ISSUE 10 serving contract).
  double coverage = 1.0;
  bool degraded = false;  ///< shorthand for coverage < 1
};

/// Store must expose the FeatureStore read interface (operator[](id),
/// row(i), id_at(i), size(), empty()); FeatureStore<T> and
/// PersistentFeatureView<T> both qualify — the latter queries straight
/// out of a mapped datastore without loading it.
template <typename T, typename DistanceFn, typename Store = FeatureStore<T>>
class GraphSearcher {
 public:
  GraphSearcher(const KnnGraph& graph, const Store& points,
                DistanceFn distance)
      : graph_(&graph), points_(&points), distance_(std::move(distance)) {}

  [[nodiscard]] SearchResult search(std::span<const T> query,
                                    const SearchParams& params) const {
    SearchResult result;
    const std::size_t n = graph_->num_vertices();
    if (n == 0 || params.num_neighbors == 0 || points_->empty()) return result;

    util::Xoshiro256 rng(params.seed);
    NeighborList best(params.num_neighbors);

    // Min-heap frontier of (distance, id).
    using Entry = std::pair<Dist, VertexId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> frontier;
    std::vector<bool> visited(n, false);

    const std::size_t entries = std::min(
        params.num_entry_points > 0 ? params.num_entry_points
                                    : params.num_neighbors,
        n);
    // Random entries are drawn from the *point store* rather than the id
    // range: after dynamic deletions vertex ids are no longer dense, and
    // only stored points can be evaluated.
    const std::size_t live = points_->size();
    std::size_t attempts = 0;
    while (result.visited < entries && attempts < 4 * entries + 16) {
      ++attempts;
      const VertexId v = points_->id_at(rng.uniform_below(live));
      if (v >= n || visited[v]) continue;
      visited[v] = true;
      ++result.visited;
      const Dist d = eval(result, query, v);
      best.update(v, d, false);
      frontier.emplace(d, v);
    }

    const double slack = 1.0 + params.epsilon;
    if constexpr (BatchDistance<DistanceFn, T>) {
      // Batch-capable functor: gather the popped vertex's unvisited
      // neighbors, evaluate them through the one-query-vs-many kernel,
      // then admit in edge order. The admission bound is re-read per
      // candidate exactly as in the scalar loop below, so both paths
      // expand the same vertices in the same order.
      std::vector<VertexId> batch;
      std::vector<const T*> rows;
      std::vector<Dist> dists;
      while (!frontier.empty()) {
        const auto [d, v] = frontier.top();
        frontier.pop();
        // d_max is +inf until `best` fills, so early expansion is unbounded.
        const Dist d_max = best.furthest_distance();
        if (static_cast<double>(d) >
            slack * static_cast<double>(d_max)) {
          break;
        }
        batch.clear();
        rows.clear();
        for (const Neighbor& edge : graph_->neighbors(v)) {
          const VertexId w = edge.id;
          if (visited[w]) continue;
          visited[w] = true;
          ++result.visited;
          batch.push_back(w);
          rows.push_back((*points_)[w].data());
        }
        if (batch.empty()) continue;
        dists.resize(batch.size());
        result.distance_evals += batch.size();
        distance_.batch(query.data(), rows.data(), batch.size(),
                        query.size(), dists.data());
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const Dist dw = dists[i];
          const Dist bound = best.furthest_distance();
          if (static_cast<double>(dw) < slack * static_cast<double>(bound)) {
            frontier.emplace(dw, batch[i]);
            best.update(batch[i], dw, false);
          }
        }
      }
    } else {
      while (!frontier.empty()) {
        const auto [d, v] = frontier.top();
        frontier.pop();
        // d_max is +inf until `best` fills, so early expansion is unbounded.
        const Dist d_max = best.furthest_distance();
        if (static_cast<double>(d) >
            slack * static_cast<double>(d_max)) {
          break;
        }
        for (const Neighbor& edge : graph_->neighbors(v)) {
          const VertexId w = edge.id;
          if (visited[w]) continue;
          visited[w] = true;
          ++result.visited;
          const Dist dw = eval(result, query, w);
          const Dist bound = best.furthest_distance();
          if (static_cast<double>(dw) < slack * static_cast<double>(bound)) {
            frontier.emplace(dw, w);
            best.update(w, dw, false);
          }
        }
      }
    }

    result.neighbors = best.sorted();
    return result;
  }

  /// Runs all queries with `num_threads` workers (0 = hardware default).
  template <typename QueryStore = FeatureStore<T>>
  [[nodiscard]] std::vector<SearchResult> batch_search(
      const QueryStore& queries, const SearchParams& params,
      unsigned num_threads = 0) const {
    const std::size_t q = queries.size();
    std::vector<SearchResult> results(q);
    if (q == 0) return results;
    if (num_threads == 0) {
      num_threads = std::max(1u, std::thread::hardware_concurrency());
    }
    num_threads = static_cast<unsigned>(
        std::min<std::size_t>(num_threads, q));

    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= q) break;
        SearchParams p = params;
        p.seed = util::mix64(params.seed + i);  // decorrelate entry points
        results[i] = search(queries.row(i), p);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
    return results;
  }

 private:
  Dist eval(SearchResult& result, std::span<const T> query, VertexId v) const {
    ++result.distance_evals;
    return distance_(query, (*points_)[v]);
  }

  const KnnGraph* graph_;
  const Store* points_;
  DistanceFn distance_;
};

/// Deduction guide: GraphSearcher(graph, store, fn) infers T from the
/// store's value type.
template <typename Store, typename DistanceFn>
GraphSearcher(const KnnGraph&, const Store&, DistanceFn)
    -> GraphSearcher<typename Store::value_type, DistanceFn, Store>;

}  // namespace dnnd::core
