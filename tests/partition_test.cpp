// Tests for vertex partitioning: hash and range schemes, the RP-tree
// locality reordering, and the end-to-end property that locality-aware
// placement preserves quality while cutting off-node traffic.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "baselines/brute_force.hpp"
#include "comm/environment.hpp"
#include "core/distance.hpp"
#include "core/dnnd_runner.hpp"
#include "core/partition.hpp"
#include "core/recall.hpp"
#include "data/synthetic.hpp"

namespace {

using namespace dnnd;  // NOLINT
using core::Partition;
using core::VertexId;

struct L2Fn {
  float operator()(std::span<const float> a, std::span<const float> b) const {
    return core::l2(a, b);
  }
};

TEST(Partition, HashMatchesPaperScheme) {
  const auto p = Partition::hash(16);
  EXPECT_TRUE(p.is_hash());
  EXPECT_EQ(p.num_ranks(), 16);
  for (VertexId id = 0; id < 500; ++id) {
    EXPECT_EQ(p.owner(id), util::owner_rank(id, 16));
  }
}

TEST(Partition, RangeOwnership) {
  // rank 0: [0, 10), rank 1: [10, 25), rank 2: [25, ...)
  const auto p = Partition::range({10, 25, 40});
  EXPECT_FALSE(p.is_hash());
  EXPECT_EQ(p.owner(0), 0);
  EXPECT_EQ(p.owner(9), 0);
  EXPECT_EQ(p.owner(10), 1);
  EXPECT_EQ(p.owner(24), 1);
  EXPECT_EQ(p.owner(25), 2);
  EXPECT_EQ(p.owner(39), 2);
  // Beyond the last bound: clamps to the last rank.
  EXPECT_EQ(p.owner(1000), 2);
}

TEST(Partition, EvenRangesBalance) {
  const auto p = Partition::even_ranges(1000, 7);
  std::vector<int> counts(7, 0);
  for (VertexId id = 0; id < 1000; ++id) ++counts[p.owner(id)];
  for (const int c : counts) {
    EXPECT_GE(c, 1000 / 7);
    EXPECT_LE(c, 1000 / 7 + 1);
  }
}

TEST(Partition, InvalidArgumentsRejected) {
  EXPECT_THROW(Partition::hash(0), std::invalid_argument);
  EXPECT_THROW(Partition::range({}), std::invalid_argument);
  EXPECT_THROW(Partition::range({5, 3}), std::invalid_argument);
}

TEST(Partition, RpTreeOrderIsAPermutation) {
  data::MixtureSpec spec;
  spec.dim = 8;
  spec.seed = 3;
  const auto points = data::GaussianMixture(spec).sample(300, 1);
  const auto order = core::rp_tree_order(points);
  ASSERT_EQ(order.size(), 300u);
  std::set<VertexId> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), 300u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 299u);

  // Stores too small to split come back as they are.
  EXPECT_TRUE(core::rp_tree_order(core::FeatureStore<float>{}).empty());
  const core::FeatureStore<float> one(1, 2, {1.f, 2.f});
  EXPECT_EQ(core::rp_tree_order(one), std::vector<VertexId>{0});
}

TEST(Partition, RpOrderGroupsSpatialNeighbors) {
  // Adjacent positions in the leaf order should be far closer on average
  // than random pairs.
  data::MixtureSpec spec;
  spec.dim = 8;
  spec.num_clusters = 10;
  spec.center_range = 10.0f;
  spec.seed = 5;
  const auto points = data::GaussianMixture(spec).sample(400, 1);
  const auto order = core::rp_tree_order(points);
  util::Xoshiro256 rng(17);
  double adjacent = 0, random = 0;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    adjacent += core::l2(points[order[i]], points[order[i + 1]]);
    random += core::l2(points[static_cast<VertexId>(rng.uniform_below(400))],
                       points[static_cast<VertexId>(rng.uniform_below(400))]);
  }
  EXPECT_LT(adjacent, 0.6 * random);
}

TEST(Partition, ReorderDenseRoundTrips) {
  data::MixtureSpec spec;
  spec.dim = 4;
  spec.seed = 9;
  const auto points = data::GaussianMixture(spec).sample(50, 1);
  std::vector<VertexId> order(50);
  std::iota(order.rbegin(), order.rend(), 0);  // reverse order
  const auto [reordered, original] = core::reorder_dense(points, order);
  ASSERT_EQ(reordered.size(), 50u);
  for (VertexId v = 0; v < 50; ++v) {
    EXPECT_EQ(original[v], 49u - v);
    const auto a = reordered[v];
    const auto b = points[49 - v];
    for (std::size_t d = 0; d < 4; ++d) EXPECT_EQ(a[d], b[d]);
  }
}

TEST(Partition, RunnerRejectsMismatchedRankCount) {
  comm::Environment env(comm::Config{.num_ranks = 4});
  core::DnndConfig cfg;
  EXPECT_THROW(
      (core::DnndRunner<float, L2Fn>(env, cfg, L2Fn{},
                                     Partition::hash(8))),
      std::invalid_argument);
}

TEST(Partition, LocalityPartitionKeepsQualityAndCutsTraffic) {
  data::MixtureSpec spec;
  spec.dim = 16;
  spec.num_clusters = 16;
  spec.center_range = 6.0f;
  spec.cluster_std = 1.0f;
  spec.seed = 23;
  const auto points = data::GaussianMixture(spec).sample(600, 1);
  core::DnndConfig cfg;
  cfg.k = 8;

  auto run = [&](const core::FeatureStore<float>& base,
                 std::optional<Partition> partition) {
    comm::Environment env(comm::Config{.num_ranks = 8});
    core::DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{},
                                         std::move(partition));
    runner.distribute(base);
    runner.build();
    const auto exact = baselines::brute_force_knn_graph(base, L2Fn{}, 8);
    const double recall = core::graph_recall(runner.gather(), exact, 8);
    return std::pair{recall, env.aggregate_stats().total_remote_bytes()};
  };

  const auto [hash_recall, hash_bytes] = run(points, std::nullopt);

  const auto order = core::rp_tree_order(points);
  const auto [reordered, original] = core::reorder_dense(points, order);
  const auto [loc_recall, loc_bytes] =
      run(reordered, Partition::even_ranges(reordered.size(), 8));

  EXPECT_GT(hash_recall, 0.9);
  EXPECT_GT(loc_recall, 0.9);
  EXPECT_LT(static_cast<double>(loc_bytes),
            0.9 * static_cast<double>(hash_bytes))
      << "locality placement should keep more neighbor checks on-node";
}

}  // namespace
