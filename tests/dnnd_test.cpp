// Tests for distributed NN-Descent: correctness across rank counts and
// drivers, the §4.3 communication-saving techniques (including the
// losslessness of pruning), §4.4 batching, and §4.5 graph optimization.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "baselines/brute_force.hpp"
#include "core/distance.hpp"
#include "comm/environment.hpp"
#include "core/dnnd_runner.hpp"
#include "core/recall.hpp"
#include "data/synthetic.hpp"

namespace {

using namespace dnnd;  // NOLINT
using comm::Config;
using comm::DriverKind;
using comm::Environment;
using core::DnndConfig;
using core::DnndRunner;

struct L2Fn {
  float operator()(std::span<const float> a, std::span<const float> b) const {
    return core::l2(a, b);
  }
};

core::FeatureStore<float> clustered(std::size_t n, std::uint64_t seed = 21) {
  data::MixtureSpec spec;
  spec.dim = 8;
  spec.num_clusters = 10;
  spec.seed = seed;
  return data::GaussianMixture(spec).sample(n, 1);
}

DnndConfig base_config(std::size_t k = 8) {
  DnndConfig cfg;
  cfg.k = k;
  cfg.batch_size = 4096;  // small batches: exercises §4.4 repeatedly
  return cfg;
}

// -- correctness across rank counts ------------------------------------------

class RankCounts : public ::testing::TestWithParam<int> {};

TEST_P(RankCounts, MatchesBruteForceRecall) {
  const auto points = clustered(400);
  const auto exact = baselines::brute_force_knn_graph(points, L2Fn{}, 8);

  Environment env(Config{.num_ranks = GetParam()});
  DnndRunner<float, L2Fn> runner(env, base_config(), L2Fn{});
  runner.distribute(points);
  const auto stats = runner.build();
  const auto graph = runner.gather();

  EXPECT_GT(core::graph_recall(graph, exact, 8), 0.9)
      << "ranks=" << GetParam();
  EXPECT_GE(stats.iterations, 1u);
  EXPECT_GT(stats.distance_evals, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankCounts, ::testing::Values(1, 2, 4, 8),
                         [](const auto& info) {
                           return "r" + std::to_string(info.param);
                         });

TEST(Dnnd, EveryRowIsFullSortedAndSelfLoopFree) {
  const auto points = clustered(300);
  Environment env(Config{.num_ranks = 4});
  DnndRunner<float, L2Fn> runner(env, base_config(), L2Fn{});
  runner.distribute(points);
  runner.build();
  const auto graph = runner.gather();
  for (core::VertexId v = 0; v < 300; ++v) {
    const auto row = graph.neighbors(v);
    EXPECT_EQ(row.size(), 8u);
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_NE(row[i].id, v);
      EXPECT_FLOAT_EQ(row[i].distance, L2Fn{}(points[v], points[row[i].id]));
      if (i > 0) { EXPECT_GE(row[i].distance, row[i - 1].distance); }
    }
  }
}

TEST(Dnnd, ThreadedDriverReachesSameQuality) {
  const auto points = clustered(300);
  const auto exact = baselines::brute_force_knn_graph(points, L2Fn{}, 8);
  Environment env(Config{.num_ranks = 4, .driver = DriverKind::kThreaded});
  DnndRunner<float, L2Fn> runner(env, base_config(), L2Fn{});
  runner.distribute(points);
  runner.build();
  EXPECT_GT(core::graph_recall(runner.gather(), exact, 8), 0.9);
}

TEST(Dnnd, DeterministicUnderSequentialDriver) {
  const auto points = clustered(200);
  auto run_once = [&]() {
    Environment env(Config{.num_ranks = 4});
    DnndRunner<float, L2Fn> runner(env, base_config(), L2Fn{});
    runner.distribute(points);
    runner.build();
    return runner.gather();
  };
  EXPECT_EQ(run_once(), run_once());
}

/// FNV-1a over every row's (id, distance bits), rows in vertex order.
std::uint64_t graph_fingerprint(const core::KnnGraph& graph) {
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&](std::uint32_t word) {
    for (int b = 0; b < 4; ++b) {
      h ^= (word >> (8 * b)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  };
  for (core::VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (const core::Neighbor& n : graph.neighbors(v)) {
      mix(n.id);
      mix(std::bit_cast<std::uint32_t>(n.distance));
    }
  }
  return h;
}

TEST(Dnnd, SequentialBuildMatchesPinnedFingerprint) {
  // The sequential driver's graph and counters, pinned. How the engine
  // stores its per-vertex state is not part of the algorithm, so a
  // change of representation must leave every bit here in place; only an
  // intended algorithm change may re-pin, and it must say why. Batched
  // kernel, 4 ranks and several §4.4 chunks per iteration, so the pin
  // covers every optimized handler.
  data::MixtureSpec spec;
  spec.dim = 32;
  spec.num_clusters = 16;
  spec.seed = 26;
  const data::GaussianMixture family(spec);
  const auto points = family.sample(2000, 1);
  Environment env(Config{.num_ranks = 4});
  DnndRunner<float, core::L2Kernel<float>> runner(env, base_config(10), {});
  runner.distribute(points);
  runner.build();
  auto metrics = env.aggregate_metrics();
  EXPECT_EQ(graph_fingerprint(runner.gather()), 0x4e368244fbe8017cULL);
  EXPECT_EQ(metrics.counter_value("engine.distance_evals"), 546050U);
  EXPECT_EQ(metrics.counter_value("engine.updates"), 124158U);

  // Deletions compact each shard; half the inserts reuse deleted ids, so
  // a shard's row order stops following id order before the refinement.
  std::vector<core::VertexId> removed;
  for (core::VertexId v = 0; v < 2000; v += 7) removed.push_back(v);
  const auto fresh = family.sample(100, 2);
  core::FeatureStore<float> added;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    added.add(i < 50 ? removed[i] : static_cast<core::VertexId>(2000 + i),
              fresh.row(i));
  }
  runner.remove_points(removed);
  runner.add_points(added);
  runner.refine();
  metrics = env.aggregate_metrics();
  EXPECT_EQ(graph_fingerprint(runner.gather()), 0x5d48f1fb29ea62e4ULL);
  EXPECT_EQ(metrics.counter_value("engine.distance_evals"), 723868U);
  EXPECT_EQ(metrics.counter_value("engine.updates"), 140715U);
}

// -- §4.3 communication saving -------------------------------------------------

/// Paper-level (logical) check messages of one build: the candidate pairs
/// carried by remote bundles, one per-pair message each.
std::uint64_t logical_msgs(const Environment& env, const char* type) {
  return env.aggregate_metrics().counter_value(
      std::string("engine.logical_msgs.") + type);
}

TEST(Dnnd, OptimizedAndUnoptimizedReachSimilarRecall) {
  const auto points = clustered(400);
  const auto exact = baselines::brute_force_knn_graph(points, L2Fn{}, 8);
  for (const bool optimized : {true, false}) {
    Environment env(Config{.num_ranks = 4});
    auto cfg = base_config();
    cfg.optimized_checks = optimized;
    DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
    runner.distribute(points);
    runner.build();
    EXPECT_GT(core::graph_recall(runner.gather(), exact, 8), 0.9)
        << "optimized=" << optimized;
  }
}

TEST(Dnnd, OptimizedChecksCutMessageVolumeRoughlyInHalf) {
  // The Figure-4 claim at test scale: neighbor-check traffic (messages
  // and bytes) drops by ~50% with the §4.3 techniques enabled.
  const auto points = clustered(500);
  auto run = [&](bool optimized) {
    Environment env(Config{.num_ranks = 8});
    auto cfg = base_config();
    cfg.optimized_checks = optimized;
    DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
    runner.distribute(points);
    runner.build();
    const auto stats = env.aggregate_stats();
    std::uint64_t messages = 0, bytes = 0;
    for (const char* label : {"type1", "type2plus", "type3", "type1_unopt",
                              "type2_unopt"}) {
      const auto c = stats.by_label(label);
      messages += c.remote_messages;
      bytes += c.remote_bytes;
    }
    return std::pair{messages, bytes};
  };
  const auto [opt_msgs, opt_bytes] = run(true);
  const auto [unopt_msgs, unopt_bytes] = run(false);
  EXPECT_LT(static_cast<double>(opt_msgs),
            0.75 * static_cast<double>(unopt_msgs));
  EXPECT_LT(static_cast<double>(opt_bytes),
            0.70 * static_cast<double>(unopt_bytes));
}

TEST(Dnnd, DistancePruningIsLossless) {
  // §4.3.3 suppresses Type-3 replies whose distance cannot improve u1's
  // list. Disabling it must not change achievable quality (same seed ⇒
  // same sampling ⇒ comparable graphs), only the message count.
  const auto points = clustered(300);
  const auto exact = baselines::brute_force_knn_graph(points, L2Fn{}, 8);
  std::uint64_t type3_with = 0, type3_without = 0;
  // A Type-3 bundle replies once per (u1, rank), so the pairs it carries
  // must shrink too.
  std::uint64_t logical_with = 0, logical_without = 0;
  for (const bool pruning : {true, false}) {
    Environment env(Config{.num_ranks = 4});
    auto cfg = base_config();
    cfg.distance_pruning = pruning;
    DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
    runner.distribute(points);
    runner.build();
    EXPECT_GT(core::graph_recall(runner.gather(), exact, 8), 0.9);
    const auto t3 = env.aggregate_stats().by_label("type3").total_messages();
    (pruning ? type3_with : type3_without) = t3;
    (pruning ? logical_with : logical_without) = logical_msgs(env, "type3");
  }
  EXPECT_LT(type3_with, type3_without);
  EXPECT_GT(logical_with, 0u);
  EXPECT_LT(logical_with, logical_without);
}

TEST(Dnnd, RedundantCheckReductionCutsType2Messages) {
  const auto points = clustered(300);
  std::uint64_t logical_with = 0, logical_without = 0;
  auto type2_count = [&](bool reduction) {
    Environment env(Config{.num_ranks = 4});
    auto cfg = base_config();
    cfg.redundant_check_reduction = reduction;
    DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
    runner.distribute(points);
    runner.build();
    (reduction ? logical_with : logical_without) =
        logical_msgs(env, "type2plus");
    return env.aggregate_stats().by_label("type2plus").total_messages();
  };
  EXPECT_LT(type2_count(true), type2_count(false));
  EXPECT_GT(logical_with, 0u);
  EXPECT_LT(logical_with, logical_without);
}

TEST(Dnnd, Type2PlusBundlesShipEachFeatureOncePerRank) {
  // A per-pair Type-2+ message carries u1's feature once per evaluated
  // pair, so its bytes exceed evaluations x feature bytes. A bundle
  // carries the feature once per (u1, rank) for every u2 that rank owns.
  // Keep the dimension paper-like (DEEP is 96-d): at low dimension the
  // bundle's u2 ids weigh more against the feature.
  data::MixtureSpec spec;
  spec.dim = 96;
  spec.num_clusters = 10;
  spec.seed = 21;
  const auto points = data::GaussianMixture(spec).sample(400, 1);
  Environment env(Config{.num_ranks = 4});
  // The default batch size: one chunk per iteration, as in a real build.
  DnndConfig cfg;
  cfg.k = 8;
  DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
  runner.distribute(points);
  runner.build();
  const double bytes = static_cast<double>(
      env.aggregate_stats().by_label("type2plus").total_bytes());
  const double evals = static_cast<double>(
      env.aggregate_metrics().counter_value("engine.distance_evals"));
  const double feature_bytes = 96.0 * sizeof(float);
  ASSERT_GT(evals, 0.0);
  EXPECT_LT(bytes, 0.25 * evals * feature_bytes)
      << "type2plus bytes per evaluation: " << bytes / evals;
}

// -- §4.4 batching ----------------------------------------------------------------

TEST(Dnnd, BatchSizeDoesNotChangeResults) {
  const auto points = clustered(250);
  auto build_with_batch = [&](std::uint64_t batch) {
    Environment env(Config{.num_ranks = 4});
    auto cfg = base_config();
    cfg.batch_size = batch;
    DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
    runner.distribute(points);
    runner.build();
    return runner.gather();
  };
  // Batching only changes *when* barriers happen; with the sequential
  // driver the message delivery interleaving changes, so graphs need not
  // be identical — but quality must hold for tiny and huge batches alike.
  const auto exact = baselines::brute_force_knn_graph(points, L2Fn{}, 8);
  EXPECT_GT(core::graph_recall(build_with_batch(64), exact, 8), 0.9);
  EXPECT_GT(core::graph_recall(build_with_batch(1 << 30), exact, 8), 0.9);
}

// -- §4.5 graph optimization ---------------------------------------------------

TEST(Dnnd, OptimizeAddsReverseEdgesAndBoundsDegree) {
  const auto points = clustered(300);
  Environment env(Config{.num_ranks = 4});
  auto cfg = base_config();
  cfg.prune_factor_m = 1.5;
  DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
  runner.distribute(points);
  runner.build();
  const auto before = runner.gather();
  runner.optimize();
  const auto after = runner.gather();

  EXPECT_GT(after.num_edges(), before.num_edges());
  const auto max_degree =
      static_cast<std::size_t>(static_cast<double>(cfg.k) * cfg.prune_factor_m);
  EXPECT_LE(after.max_degree(), max_degree);
  // No duplicate ids or self loops in optimized rows.
  for (core::VertexId v = 0; v < after.num_vertices(); ++v) {
    const auto row = after.neighbors(v);
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_NE(row[i].id, v);
      for (std::size_t j = i + 1; j < row.size(); ++j) {
        EXPECT_NE(row[i].id, row[j].id);
      }
    }
  }
}

TEST(Dnnd, SimulatedParallelTimeShrinksWithMoreRanks) {
  // The Figure-3 scaling property in miniature: max-per-rank work at 8
  // ranks is well below the 1-rank total. Use paper-like dimensionality
  // (DEEP1B is 96-d) so distance evaluation dominates the cost model as it
  // does in the real system; at toy dims the per-byte network charge
  // swamps compute and scaling flattens (which is itself the paper's
  // 16→32-node behaviour).
  data::MixtureSpec spec;
  spec.dim = 48;
  spec.num_clusters = 10;
  spec.seed = 21;
  const auto points = data::GaussianMixture(spec).sample(600, 1);
  auto sim_units = [&](int ranks) {
    Environment env(Config{.num_ranks = ranks});
    DnndRunner<float, L2Fn> runner(env, base_config(), L2Fn{});
    runner.distribute(points);
    return runner.build().simulated_parallel_units;
  };
  const double t1 = sim_units(1);
  const double t8 = sim_units(8);
  EXPECT_LT(t8, t1 / 2.5) << "expected ≥2.5x simulated speedup at 8 ranks";
}

TEST(Dnnd, BuildBeforeDistributeThrows) {
  Environment env(Config{.num_ranks = 2});
  DnndRunner<float, L2Fn> runner(env, base_config(), L2Fn{});
  EXPECT_THROW(runner.build(), std::logic_error);
}

TEST(Dnnd, SingleRankMatchesSerialSemantics) {
  // One rank sends every message to itself; the algorithm must still be
  // plain NN-Descent and reach reference quality.
  const auto points = clustered(300);
  const auto exact = baselines::brute_force_knn_graph(points, L2Fn{}, 8);
  Environment env(Config{.num_ranks = 1});
  DnndRunner<float, L2Fn> runner(env, base_config(), L2Fn{});
  runner.distribute(points);
  runner.build();
  EXPECT_GT(core::graph_recall(runner.gather(), exact, 8), 0.9);
  // Nothing went "off node".
  EXPECT_EQ(env.aggregate_stats().total_remote_messages(), 0u);
}

}  // namespace
