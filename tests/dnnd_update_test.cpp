// Tests for dynamic graph updates (paper §7 future work: points are added
// or deleted, followed by a short NN-Descent refinement phase).
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/brute_force.hpp"
#include "comm/environment.hpp"
#include "core/distance.hpp"
#include "core/dnnd_runner.hpp"
#include "core/recall.hpp"
#include "data/synthetic.hpp"

namespace {

using namespace dnnd;  // NOLINT

struct L2Fn {
  float operator()(std::span<const float> a, std::span<const float> b) const {
    return core::l2(a, b);
  }
};

data::GaussianMixture family() {
  data::MixtureSpec spec;
  spec.dim = 8;
  spec.num_clusters = 10;
  spec.center_range = 5.0f;
  spec.cluster_std = 1.5f;
  spec.seed = 61;
  return data::GaussianMixture(spec);
}

core::DnndConfig config() {
  core::DnndConfig cfg;
  cfg.k = 8;
  return cfg;
}

// -- FeatureStore::remove_batch ------------------------------------------------

TEST(FeatureStoreRemove, CompactsAndPreservesSurvivors) {
  core::FeatureStore<float> store(5, 2, {0, 0, 1, 1, 2, 2, 3, 3, 4, 4});
  const std::vector<core::VertexId> removed = {1, 3};
  // The compaction: the old row of each surviving row, in new row order.
  EXPECT_EQ(store.remove_batch(removed), (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.row_of(4), 2u);
  EXPECT_FALSE(store.contains(1));
  EXPECT_FALSE(store.contains(3));
  EXPECT_EQ(store[0][0], 0.0f);
  EXPECT_EQ(store[2][1], 2.0f);
  EXPECT_EQ(store[4][0], 4.0f);
}

TEST(FeatureStoreRemove, IgnoresUnknownIdsAndEmptyBatches) {
  core::FeatureStore<float> store(2, 1, {7, 8});
  const std::vector<std::size_t> identity = {0, 1};
  EXPECT_EQ(store.remove_batch(std::vector<core::VertexId>{}), identity);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.remove_batch(std::vector<core::VertexId>{99}), identity);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store[1][0], 8.0f);
}

// -- dynamic inserts --------------------------------------------------------------

TEST(DnndUpdate, InsertedPointsReachBuildQualityAfterRefine) {
  const auto fam = family();
  const auto initial = fam.sample(400, 1);
  // The eventual full dataset: initial points plus 100 more from the same
  // distribution, with ids continuing after the initial range.
  const auto extra_raw = fam.sample(100, 3);
  core::FeatureStore<float> extra;
  for (std::size_t i = 0; i < extra_raw.size(); ++i) {
    extra.add(static_cast<core::VertexId>(400 + i), extra_raw.row(i));
  }
  core::FeatureStore<float> full;
  for (std::size_t i = 0; i < initial.size(); ++i) {
    full.add(initial.id_at(i), initial.row(i));
  }
  for (std::size_t i = 0; i < extra.size(); ++i) {
    full.add(extra.id_at(i), extra.row(i));
  }

  comm::Environment env(comm::Config{.num_ranks = 4});
  core::DnndRunner<float, L2Fn> runner(env, config(), L2Fn{});
  runner.distribute(initial);
  runner.build();

  runner.add_points(extra);
  const auto stats = runner.refine();
  EXPECT_GE(stats.iterations, 1u);

  const auto graph = runner.gather();
  ASSERT_EQ(graph.num_vertices(), 500u);
  const auto exact = baselines::brute_force_knn_graph(full, L2Fn{}, 8);
  EXPECT_GT(core::graph_recall(graph, exact, 8), 0.85);
  // New vertices specifically must have good rows, not just the average.
  double new_recall = 0;
  for (core::VertexId v = 400; v < 500; ++v) {
    const auto got = graph.neighbors(v);
    const auto want = exact.neighbors(v);
    std::size_t hits = 0;
    for (const auto& g : got) {
      for (const auto& w : want) {
        if (g.id == w.id) {
          ++hits;
          break;
        }
      }
    }
    new_recall += static_cast<double>(hits) / 8.0;
  }
  EXPECT_GT(new_recall / 100.0, 0.8) << "inserted vertices under-connected";
}

TEST(DnndUpdate, RefineIsCheaperThanRebuild) {
  const auto fam = family();
  const auto initial = fam.sample(600, 1);
  const auto extra_raw = fam.sample(30, 3);
  core::FeatureStore<float> extra;
  for (std::size_t i = 0; i < extra_raw.size(); ++i) {
    extra.add(static_cast<core::VertexId>(600 + i), extra_raw.row(i));
  }

  comm::Environment env(comm::Config{.num_ranks = 4});
  core::DnndRunner<float, L2Fn> runner(env, config(), L2Fn{});
  runner.distribute(initial);
  const auto build_stats = runner.build();

  runner.add_points(extra);
  const auto refine_stats = runner.refine();
  // A 5% insert should cost a small fraction of the original build: the
  // convergence counter only pays for new-flagged entries.
  EXPECT_LT(refine_stats.total_updates, build_stats.total_updates / 2);
}

// -- dynamic deletes --------------------------------------------------------------

TEST(DnndUpdate, DeletedVerticesDisappearEverywhere) {
  const auto initial = family().sample(300, 1);
  comm::Environment env(comm::Config{.num_ranks = 4});
  core::DnndRunner<float, L2Fn> runner(env, config(), L2Fn{});
  runner.distribute(initial);
  runner.build();

  const std::vector<core::VertexId> removed = {5, 17, 100, 299};
  runner.remove_points(removed);
  runner.refine();
  const auto graph = runner.gather();

  for (const auto victim : removed) {
    EXPECT_TRUE(graph.neighbors(victim).empty());
  }
  for (core::VertexId v = 0; v < 300; ++v) {
    for (const auto& n : graph.neighbors(v)) {
      for (const auto victim : removed) {
        EXPECT_NE(n.id, victim) << "dangling edge " << v << "->" << victim;
      }
    }
  }
}

TEST(DnndUpdate, QualityHoldsAfterDeleteAndRefine) {
  const auto initial = family().sample(400, 1);
  comm::Environment env(comm::Config{.num_ranks = 4});
  core::DnndRunner<float, L2Fn> runner(env, config(), L2Fn{});
  runner.distribute(initial);
  runner.build();

  // Remove every 8th point.
  std::vector<core::VertexId> removed;
  for (core::VertexId v = 0; v < 400; v += 8) removed.push_back(v);
  runner.remove_points(removed);
  runner.refine();

  // Ground truth over survivors only (ids stay global).
  core::FeatureStore<float> survivors;
  for (core::VertexId v = 0; v < 400; ++v) {
    if (v % 8 != 0) survivors.add(v, initial[v]);
  }
  const auto graph = runner.gather();
  // Per-vertex recall over survivors.
  double sum = 0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    const auto v = survivors.id_at(i);
    const auto want =
        baselines::brute_force_query(survivors, survivors[v], L2Fn{}, 9);
    // want[0] == v itself.
    const auto got = graph.neighbors(v);
    std::size_t hits = 0;
    for (const auto& g : got) {
      for (std::size_t j = 1; j < want.size(); ++j) {
        if (g.id == want[j]) {
          ++hits;
          break;
        }
      }
    }
    sum += static_cast<double>(hits) / 8.0;
    ++counted;
  }
  EXPECT_GT(sum / static_cast<double>(counted), 0.8);
}

TEST(DnndUpdate, RemoveAfterOptimizeDropsTheOptimizedRows) {
  // optimize() then remove_points() with no refine() in between: gather()
  // must not hand back the optimized rows, which predate the deletion.
  const auto initial = family().sample(400, 1);
  comm::Environment env(comm::Config{.num_ranks = 4});
  core::DnndRunner<float, L2Fn> runner(env, config(), L2Fn{});
  runner.distribute(initial);
  runner.build();
  runner.optimize();

  std::vector<core::VertexId> removed;
  for (core::VertexId v = 0; v < 400; v += 5) removed.push_back(v);
  runner.remove_points(removed);
  const auto graph = runner.gather();

  auto is_removed = [&](core::VertexId id) { return id % 5 == 0; };
  std::size_t removed_rows = 0, removed_refs = 0;
  for (core::VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (is_removed(v) && !graph.neighbors(v).empty()) ++removed_rows;
    for (const auto& n : graph.neighbors(v)) {
      if (is_removed(n.id)) ++removed_refs;
    }
  }
  EXPECT_EQ(removed_rows, 0u);
  EXPECT_EQ(removed_refs, 0u);
}

TEST(DnndUpdate, RowStateFollowsFeatureRowsThroughMutation) {
  // Every engine keeps its neighbor rows in its feature store's row
  // order; deletions compact both and inserts append to both.
  const auto fam = family();
  const auto initial = fam.sample(400, 1);
  const auto extra_raw = fam.sample(60, 3);
  core::FeatureStore<float> extra;
  // Inserted ids interleave below the initial maximum once the victims
  // are gone, so row order and id order part ways.
  std::vector<core::VertexId> removed;
  for (core::VertexId v = 0; v < 400; v += 7) removed.push_back(v);
  for (std::size_t i = 0; i < extra_raw.size(); ++i) {
    extra.add(static_cast<core::VertexId>(i < 30 ? removed[i] : 400 + i),
              extra_raw.row(i));
  }

  comm::Environment env(comm::Config{.num_ranks = 4});
  core::DnndRunner<float, L2Fn> runner(env, config(), L2Fn{});
  runner.distribute(initial);
  runner.build();
  runner.remove_points(removed);
  runner.add_points(extra);
  runner.refine();

  auto is_removed = [&](core::VertexId id) {
    return std::binary_search(removed.begin(), removed.end(), id) &&
           !extra.contains(id);
  };
  for (int r = 0; r < 4; ++r) {
    const auto& engine = runner.engine(r);
    const auto rows = engine.shard_rows();
    const auto& ids = engine.local_points().ids();
    ASSERT_EQ(rows.size(), ids.size()) << "rank " << r;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].first, ids[i]) << "rank " << r << " row " << i;
      EXPECT_FALSE(is_removed(rows[i].first));
      EXPECT_FALSE(rows[i].second.empty()) << "vertex " << rows[i].first;
      for (const auto& n : rows[i].second) {
        EXPECT_FALSE(is_removed(n.id))
            << "dangling edge " << rows[i].first << "->" << n.id;
      }
    }
  }
}

TEST(DnndUpdate, InsertThenDeleteRoundTrip) {
  const auto fam = family();
  const auto initial = fam.sample(300, 1);
  const auto extra_raw = fam.sample(50, 3);
  core::FeatureStore<float> extra;
  std::vector<core::VertexId> extra_ids;
  for (std::size_t i = 0; i < extra_raw.size(); ++i) {
    const auto id = static_cast<core::VertexId>(300 + i);
    extra.add(id, extra_raw.row(i));
    extra_ids.push_back(id);
  }
  comm::Environment env(comm::Config{.num_ranks = 4});
  core::DnndRunner<float, L2Fn> runner(env, config(), L2Fn{});
  runner.distribute(initial);
  runner.build();
  runner.add_points(extra);
  runner.refine();
  runner.remove_points(extra_ids);
  runner.refine();

  const auto graph = runner.gather();
  const auto exact = baselines::brute_force_knn_graph(initial, L2Fn{}, 8);
  // Compare only original vertices (removed ids have empty rows).
  double sum = 0;
  for (core::VertexId v = 0; v < 300; ++v) {
    const auto got = graph.neighbors(v);
    const auto want = exact.neighbors(v);
    std::size_t hits = 0;
    for (const auto& g : got) {
      EXPECT_LT(g.id, 300u) << "edge to deleted vertex survived";
      for (const auto& w : want) {
        if (g.id == w.id) {
          ++hits;
          break;
        }
      }
    }
    sum += static_cast<double>(hits) / 8.0;
  }
  EXPECT_GT(sum / 300.0, 0.8);
}

}  // namespace
