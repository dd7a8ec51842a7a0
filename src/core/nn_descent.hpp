// Serial NN-Descent: faithful single-process implementation of Algorithm 1.
//
// This is the reference the distributed engine is validated against: both
// must converge to graphs of equivalent recall, and the serial version is
// also the shared-memory baseline for the scaling study (1-rank point).
//
// Parameters follow the paper: K (neighbors), ρ (sample rate, default
// 0.8), δ (termination threshold, default 0.001) — the loop terminates
// when the number of successful neighbor-list updates in an iteration
// drops below δ·K·N.
//
// Every DistanceFn runs the same staged code: each evaluation step goes
// through core::evaluate_rows, which makes one batch-kernel call when the
// functor has one and one call per row otherwise, with the same values.
//
// Intra-rank threading (config.threads > 1) splits the vertex-block
// stages across the pool: the evaluation in initialize(), the read-only
// split of every list, and both passes of the reversed-matrix scatter.
// Each stage runs ceil(n / kVertexGrain) tasks that write private,
// index-addressed slots, merged in fixed task order; everything that owns
// the rng stream stays sequential. The decomposition depends on the work
// size only — never the thread count — so the graph, the convergence
// counter c, the eval/update counters AND stats.tasks are bit-identical
// for any thread count (threads == 1 runs the same decomposition inline,
// with no threads spawned). The neighbor checks run on the calling
// thread: each center's updates are an ordered sequence, and splitting
// one center's handful of evaluations across the pool costs more than
// the evaluations themselves.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/distance_kernels.hpp"
#include "core/feature_store.hpp"
#include "core/knn_graph.hpp"
#include "core/neighbor_list.hpp"
#include "core/thread_pool.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

namespace dnnd::core {

struct NnDescentConfig {
  std::size_t k = 10;
  double rho = 0.8;       ///< sample rate ρ
  double delta = 0.001;   ///< termination threshold δ
  std::size_t max_iterations = 64;  ///< safety bound beyond Algorithm 1
  std::uint64_t seed = 7;
  /// Intra-build worker threads; 0 = auto (DNND_THREADS_PER_RANK, else 1).
  std::size_t threads = 0;
};

struct NnDescentStats {
  std::size_t iterations = 0;
  std::uint64_t distance_evals = 0;
  std::uint64_t updates = 0;
  std::vector<std::uint64_t> updates_per_iteration;
  /// Pool tasks dispatched: one per vertex block per staged pass, i.e.
  /// ceil(n / 256) * (1 + 3 * iterations), for any thread count.
  std::uint64_t tasks = 0;
};

/// DistanceFn: Dist(std::span<const T>, std::span<const T>).
template <typename T, typename DistanceFn>
class NnDescent {
 public:
  NnDescent(const FeatureStore<T>& points, DistanceFn distance,
            NnDescentConfig config)
      : points_(&points),
        distance_(std::move(distance)),
        config_(config),
        pool_(resolve_threads(config.threads)) {}

  /// Runs Algorithm 1 to convergence and returns the K-NNG.
  KnnGraph build() {
    const std::size_t n = points_->size();
    util::Xoshiro256 rng(config_.seed);
    lists_.assign(n, NeighborList(config_.k));

    initialize(rng);

    const auto threshold = static_cast<std::uint64_t>(
        config_.delta * static_cast<double>(config_.k) *
        static_cast<double>(n));
    for (std::size_t iter = 0; iter < config_.max_iterations; ++iter) {
      ++stats_.iterations;
      const std::uint64_t c = iterate(rng);
      stats_.updates_per_iteration.push_back(c);
      stats_.updates += c;
      if (c < threshold || c == 0) break;
    }
    return export_graph();
  }

  [[nodiscard]] const NnDescentStats& stats() const noexcept { return stats_; }

 private:
  /// Grain of every pool stage: vertices per task.
  static constexpr std::size_t kVertexGrain = 256;

  /// Dispatches one vertex-block stage through the pool and accounts its
  /// tasks (count is thread-count-independent).
  template <typename Fn>
  void run_blocks(std::size_t n, Fn&& fn) {
    stats_.tasks += ThreadPool::block_count(n, kVertexGrain);
    pool_.for_blocks(n, kVertexGrain, std::forward<Fn>(fn));
  }

  /// Lines 2–5: K random neighbors per vertex.
  void initialize(util::Xoshiro256& rng) {
    const std::size_t n = points_->size();
    // Stage 1 (sequential: owns the rng stream): draw every vertex's
    // distinct partner ids. No draw depends on a distance: warm-up updates
    // always insert (the list is never full here), so acceptance depends
    // only on previously accepted draws.
    std::vector<std::vector<VertexId>> drawn(n);
    for (std::size_t vi = 0; vi < n; ++vi) {
      const auto v = static_cast<VertexId>(vi);
      auto& mine = drawn[vi];
      while (mine.size() < config_.k && mine.size() + 1 < n) {
        const auto u = static_cast<VertexId>(rng.uniform_below(n));
        if (u == v || std::find(mine.begin(), mine.end(), u) != mine.end()) {
          continue;
        }
        mine.push_back(u);
      }
      stats_.distance_evals += mine.size();
    }
    // Stage 2 (parallel, slot = the vertex's own list): evaluate each
    // vertex's partners and apply in draw order. Writes touch only
    // lists_[vi] — private to the task that owns block vi.
    run_blocks(n, [&](std::size_t, std::size_t begin, std::size_t end) {
      std::vector<const T*> rows;
      std::vector<Dist> dists;
      for (std::size_t vi = begin; vi < end; ++vi) {
        const auto& mine = drawn[vi];
        dists.resize(mine.size());
        evaluate_rows(
            distance_, (*points_)[static_cast<VertexId>(vi)], mine.size(),
            [&](std::size_t j) { return (*points_)[mine[j]]; },
            dists.data(), rows);
        for (std::size_t j = 0; j < mine.size(); ++j) {
          lists_[vi].update(mine[j], dists[j], true);
        }
      }
    });
  }

  /// One round of lines 7–23. Returns the update counter c.
  std::uint64_t iterate(util::Xoshiro256& rng) {
    const std::size_t n = points_->size();
    const auto sample_k = static_cast<std::size_t>(
        config_.rho * static_cast<double>(config_.k));

    // Lines 8–10: split each list into old / sampled-new; flip flags.
    // Stage 1 (parallel, slots old_ids[vi] / fresh[vi]): read-only split
    // of every list in its deterministic heap order.
    std::vector<std::vector<VertexId>> old_ids(n), new_ids(n);
    std::vector<std::vector<std::size_t>> fresh(n);
    run_blocks(n, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t vi = begin; vi < end; ++vi) {
        const auto entries = std::as_const(lists_[vi]).entries();
        for (std::size_t e = 0; e < entries.size(); ++e) {
          if (entries[e].is_new) {
            fresh[vi].push_back(e);
          } else {
            old_ids[vi].push_back(entries[e].id);
          }
        }
      }
    });
    // Stage 2 (sequential: owns the rng stream and the flag flips).
    for (std::size_t vi = 0; vi < n; ++vi) {
      auto entries = lists_[vi].entries();
      util::shuffle(fresh[vi].begin(), fresh[vi].end(), rng);
      const std::size_t take = std::min(sample_k, fresh[vi].size());
      for (std::size_t s = 0; s < take; ++s) {
        entries[fresh[vi][s]].is_new = false;  // line 10
        new_ids[vi].push_back(entries[fresh[vi][s]].id);
      }
    }

    // Lines 11–12: reversed matrices.
    std::vector<std::vector<VertexId>> rev_old(n), rev_new(n);
    build_reversed(n, old_ids, new_ids, rev_old, rev_new);

    // Lines 14–16: merge a ρK-sample of the reversed lists (sequential:
    // owns the rng stream).
    for (std::size_t vi = 0; vi < n; ++vi) {
      merge_sample(old_ids[vi], rev_old[vi], sample_k, rng);
      merge_sample(new_ids[vi], rev_new[vi], sample_k, rng);
    }

    // Lines 17–22: neighbor checks. The candidates of one center u1 are
    // gathered (filtered against the list state before any of u1's
    // updates), evaluated with one evaluate_rows() call, and applied in
    // the original pair order, so the result is a pure function of the
    // values — identical across functors and dispatch paths.
    std::uint64_t c = 0;
    std::vector<VertexId> cand;
    std::vector<const T*> rows;
    std::vector<Dist> dists;
    for (std::size_t vi = 0; vi < n; ++vi) {
      const auto& nu = new_ids[vi];
      const auto& ol = old_ids[vi];
      for (std::size_t i = 0; i < nu.size(); ++i) {
        const VertexId u1 = nu[i];
        cand.clear();
        const auto gather = [&](VertexId u2) {
          if (u1 == u2) return;
          // Skip a pair both sides already hold — the serial analogue of
          // the §4.3.2/§4.3.3 savings and purely a work saver: update()
          // no-ops on contained ids, so a pair that becomes redundant
          // mid-row cannot change the graph.
          if (lists_[u1].contains(u2) && lists_[u2].contains(u1)) return;
          cand.push_back(u2);
        };
        for (std::size_t j = i + 1; j < nu.size(); ++j) gather(nu[j]);
        for (const VertexId u2 : ol) gather(u2);
        if (cand.empty()) continue;
        dists.resize(cand.size());
        stats_.distance_evals += cand.size();
        evaluate_rows(
            distance_, (*points_)[u1], cand.size(),
            [&](std::size_t m) { return (*points_)[cand[m]]; }, dists.data(),
            rows);
        for (std::size_t m = 0; m < cand.size(); ++m) {
          c += static_cast<std::uint64_t>(
              lists_[u1].update(cand[m], dists[m], true));
          c += static_cast<std::uint64_t>(
              lists_[cand[m]].update(u1, dists[m], true));
        }
      }
    }
    return c;
  }

  /// Lines 11–12 as a two-pass slotted scatter: pass 1 buckets each
  /// source block's (target, source) pairs by target stripe (slot =
  /// [task][stripe]); pass 2 scatters one target stripe per task,
  /// draining buckets in task order. Both passes preserve source-vertex
  /// order per target, so rev_*[u] is byte-identical to the serial
  /// scatter.
  void build_reversed(std::size_t n,
                      const std::vector<std::vector<VertexId>>& old_ids,
                      const std::vector<std::vector<VertexId>>& new_ids,
                      std::vector<std::vector<VertexId>>& rev_old,
                      std::vector<std::vector<VertexId>>& rev_new) {
    const std::size_t blocks = ThreadPool::block_count(n, kVertexGrain);
    auto stripe_of = [](VertexId u) {
      return static_cast<std::size_t>(u) / kVertexGrain;
    };
    struct Bucket {
      std::vector<std::pair<VertexId, VertexId>> old_pairs;  // (target, src)
      std::vector<std::pair<VertexId, VertexId>> new_pairs;
    };
    std::vector<Bucket> buckets(blocks * blocks);
    run_blocks(n, [&](std::size_t task, std::size_t begin, std::size_t end) {
      Bucket* row = buckets.data() + task * blocks;
      for (std::size_t vi = begin; vi < end; ++vi) {
        const auto v = static_cast<VertexId>(vi);
        for (const VertexId u : old_ids[vi]) {
          row[stripe_of(u)].old_pairs.emplace_back(u, v);
        }
        for (const VertexId u : new_ids[vi]) {
          row[stripe_of(u)].new_pairs.emplace_back(u, v);
        }
      }
    });
    stats_.tasks += blocks;
    pool_.run(blocks, [&](std::size_t s) {
      for (std::size_t t = 0; t < blocks; ++t) {
        const Bucket& b = buckets[t * blocks + s];
        for (const auto& [u, v] : b.old_pairs) rev_old[u].push_back(v);
        for (const auto& [u, v] : b.new_pairs) rev_new[u].push_back(v);
      }
    });
  }

  static void merge_sample(std::vector<VertexId>& dst,
                           std::vector<VertexId>& reversed,
                           std::size_t sample_k, util::Xoshiro256& rng) {
    util::shuffle(reversed.begin(), reversed.end(), rng);
    const std::size_t take = std::min(sample_k, reversed.size());
    for (std::size_t i = 0; i < take; ++i) {
      const VertexId u = reversed[i];
      if (std::find(dst.begin(), dst.end(), u) == dst.end()) {
        dst.push_back(u);
      }
    }
  }

  KnnGraph export_graph() const {
    KnnGraph graph(lists_.size());
    for (std::size_t vi = 0; vi < lists_.size(); ++vi) {
      graph.set_neighbors(static_cast<VertexId>(vi), lists_[vi].sorted());
    }
    return graph;
  }

  const FeatureStore<T>* points_;
  DistanceFn distance_;
  NnDescentConfig config_;
  ThreadPool pool_;
  std::vector<NeighborList> lists_;
  NnDescentStats stats_;
};

/// Deduction-friendly helper.
template <typename T, typename DistanceFn>
KnnGraph build_nn_descent(const FeatureStore<T>& points, DistanceFn distance,
                          const NnDescentConfig& config,
                          NnDescentStats* stats_out = nullptr) {
  NnDescent<T, DistanceFn> builder(points, std::move(distance), config);
  KnnGraph graph = builder.build();
  if (stats_out != nullptr) *stats_out = builder.stats();
  return graph;
}

}  // namespace dnnd::core
