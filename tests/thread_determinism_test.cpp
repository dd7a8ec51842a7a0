// Thread-count parity matrix: the intra-rank thread pool must be
// *invisible* in every output bit. For each subsystem that threads its
// hot loops (serial NN-Descent, the distributed engine under both
// drivers, the shared-memory searcher, and the distributed query
// service), a reference run at threads=1 is bit-compared against runs at
// threads ∈ {2, 4, 8}: the graph, the recall, the convergence counters,
// the full merged metrics registry (minus wall-clock values), and the
// schedule-shape counters (engine.tasks / stats.tasks) must all be
// EXACTLY equal — not statistically close.
//
// Why this holds (the determinism argument the production code is built
// around): every parallel stage writes private, index-addressed slots;
// one canonical merge applies them in fixed (task-index, intra-task)
// order; the task decomposition is a function of the work size only; and
// everything that owns an rng stream stays sequential. See
// core/nn_descent.hpp and DESIGN.md ("Threading model").
//
// Scope notes baked into the matrix:
//   - Serial NN-Descent runs two functors: the kernel functor and a
//     batch-less twin. Every functor takes the same pool stages
//     (core::evaluate_rows makes one batch call, or one call per row), so
//     both must be thread-count-invariant. That the two functors agree
//     with each other is tests/distance_kernel_test.cpp's job.
//   - Cross-driver bit-equality additionally needs the schedule-
//     independent config from chaos_test.cpp (delta = 0,
//     redundant_check_reduction = false); with the default config each
//     driver is compared against its own threads=1 reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "baselines/brute_force.hpp"
#include "comm/environment.hpp"
#include "core/distance.hpp"
#include "core/distance_kernels.hpp"
#include "core/distributed_query.hpp"
#include "core/dnnd_runner.hpp"
#include "core/knn_query.hpp"
#include "core/nn_descent.hpp"
#include "core/recall.hpp"
#include "core/thread_pool.hpp"
#include "data/synthetic.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace dnnd;  // NOLINT
using comm::Config;
using comm::DriverKind;
using comm::Environment;
using core::DnndConfig;
using core::DnndRunner;

using L2Batch = core::L2Kernel<float>;

/// A batch-less twin of L2Batch: the same operator(), no `batch` member.
struct L2Twin {
  core::Dist operator()(std::span<const float> a,
                        std::span<const float> b) const {
    return L2Batch{}(a, b);
  }
};
static_assert(!core::BatchDistance<L2Twin, float>);

core::FeatureStore<float> clustered(std::size_t n, std::uint64_t seed = 21) {
  data::MixtureSpec spec;
  spec.dim = 8;
  spec.num_clusters = 10;
  spec.seed = seed;
  return data::GaussianMixture(spec).sample(n, 1);
}

/// Deterministic counters of a merged registry: name -> value, skipping
/// wall-clock metrics (the only counters allowed to differ between two
/// bit-identical runs).
std::map<std::string, std::uint64_t> counter_map(
    const telemetry::MetricsRegistry& registry) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& m : registry.all()) {
    if (m.kind != telemetry::MetricKind::kCounter) continue;
    if (m.name.ends_with("_us") || m.name.ends_with("_seconds") ||
        m.name.ends_with("_ticks")) {
      continue;
    }
    out[m.name] = m.counter;
  }
  return out;
}

// -- resolve_threads: the config/env/default precedence ----------------------

/// Restores DNND_THREADS_PER_RANK on scope exit so the matrix legs that
/// export it for a whole ctest run are not perturbed by this test.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    if (const char* old = std::getenv("DNND_THREADS_PER_RANK")) {
      saved_ = old;
    }
    if (value == nullptr) {
      ::unsetenv("DNND_THREADS_PER_RANK");
    } else {
      ::setenv("DNND_THREADS_PER_RANK", value, 1);
    }
  }
  ~ScopedThreadsEnv() {
    if (saved_.has_value()) {
      ::setenv("DNND_THREADS_PER_RANK", saved_->c_str(), 1);
    } else {
      ::unsetenv("DNND_THREADS_PER_RANK");
    }
  }
  ScopedThreadsEnv(const ScopedThreadsEnv&) = delete;
  ScopedThreadsEnv& operator=(const ScopedThreadsEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

TEST(ResolveThreads, ConfigBeatsEnvBeatsDefault) {
  {
    ScopedThreadsEnv env(nullptr);
    EXPECT_EQ(core::resolve_threads(0), 1u);  // nothing set: serial
    EXPECT_EQ(core::resolve_threads(6), 6u);  // explicit config wins
  }
  {
    ScopedThreadsEnv env("3");
    EXPECT_EQ(core::resolve_threads(0), 3u);  // env fills the auto value
    EXPECT_EQ(core::resolve_threads(2), 2u);  // config still wins
  }
  for (const char* bad : {"0", "-4", "banana", "", "9999"}) {
    ScopedThreadsEnv env(bad);
    EXPECT_EQ(core::resolve_threads(0), 1u) << "env='" << bad << "'";
  }
}

// -- serial NN-Descent: graph + stats parity ---------------------------------

struct SerialRun {
  core::KnnGraph graph;
  core::NnDescentStats stats;
};

template <typename Fn = L2Batch>
SerialRun run_serial(const core::FeatureStore<float>& points,
                     std::uint64_t seed, std::size_t threads) {
  core::NnDescentConfig cfg;
  cfg.k = 10;
  cfg.seed = seed;
  cfg.threads = threads;
  SerialRun run;
  run.graph = core::build_nn_descent(points, Fn{}, cfg, &run.stats);
  return run;
}

class SerialThreadParity
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

template <typename Fn>
void expect_serial_thread_parity(const core::FeatureStore<float>& points,
                                 std::uint64_t seed, std::size_t threads) {
  const SerialRun ref = run_serial<Fn>(points, seed, 1);
  const SerialRun run = run_serial<Fn>(points, seed, threads);

  EXPECT_TRUE(run.graph == ref.graph)
      << "graph diverged at threads=" << threads;
  EXPECT_EQ(run.stats.iterations, ref.stats.iterations);
  EXPECT_EQ(run.stats.distance_evals, ref.stats.distance_evals);
  EXPECT_EQ(run.stats.updates, ref.stats.updates);
  EXPECT_EQ(run.stats.updates_per_iteration, ref.stats.updates_per_iteration);
  // Schedule shape: the task decomposition depends on the work size only —
  // one task per 256-vertex block per staged pass (initialize()'s
  // evaluation, then per iteration the list split and both reversed-matrix
  // passes). The neighbor checks run inline, so no section is per center.
  EXPECT_EQ(run.stats.tasks, ref.stats.tasks);
  const std::uint64_t blocks = (points.size() + 255) / 256;
  EXPECT_EQ(run.stats.tasks, blocks * (1 + 3 * run.stats.iterations));
}

TEST_P(SerialThreadParity, BitIdenticalToSingleThread) {
  const auto [seed, threads] = GetParam();
  const auto points = clustered(500, seed);
  {
    SCOPED_TRACE("kernel functor");
    expect_serial_thread_parity<L2Batch>(points, seed, threads);
  }
  {
    SCOPED_TRACE("batch-less twin");
    expect_serial_thread_parity<L2Twin>(points, seed, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SerialThreadParity,
    ::testing::Combine(::testing::Values<std::uint64_t>(7, 31),
                       ::testing::Values<std::size_t>(2, 4, 8)),
    [](const auto& info) {
      return "s" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SerialThreadParity, QualityIsUnchangedByThreading) {
  const auto points = clustered(500, 7);
  const auto exact = baselines::brute_force_knn_graph(points, L2Batch{}, 10);
  const SerialRun a = run_serial(points, 7, 1);
  const SerialRun b = run_serial(points, 7, 4);
  const double recall_a = core::graph_recall(a.graph, exact, 10);
  EXPECT_DOUBLE_EQ(core::graph_recall(b.graph, exact, 10), recall_a);
  EXPECT_GT(recall_a, 0.9);
}

// -- distributed engine: per-driver parity matrix ----------------------------

struct EngineRun {
  core::KnnGraph graph;
  double recall = 0.0;
  std::map<std::string, std::uint64_t> counters;
};

EngineRun run_engine(const core::FeatureStore<float>& points,
                     const core::KnnGraph& exact, DriverKind driver,
                     const DnndConfig& engine_cfg, std::size_t threads) {
  Environment env(Config{.num_ranks = 4, .driver = driver});
  DnndConfig cfg = engine_cfg;
  cfg.threads_per_rank = threads;
  DnndRunner<float, L2Batch> runner(env, cfg, L2Batch{});
  runner.distribute(points);
  runner.build();
  EngineRun run;
  run.graph = runner.gather();
  run.recall = core::graph_recall(run.graph, exact, engine_cfg.k);
  run.counters = counter_map(env.aggregate_metrics());
  return run;
}

DnndConfig engine_config() {
  DnndConfig cfg;
  cfg.k = 8;
  cfg.batch_size = 4096;
  cfg.seed = 5;
  return cfg;
}

struct EngineCase {
  DriverKind driver;
  std::size_t threads;
};

std::string engine_case_name(
    const ::testing::TestParamInfo<EngineCase>& info) {
  return std::string(info.param.driver == DriverKind::kSequential ? "seq"
                                                                  : "thr") +
         "_t" + std::to_string(info.param.threads);
}

class EngineThreadParity : public ::testing::TestWithParam<EngineCase> {};

/// delta = 0 + redundant-check reduction off: the chaos_test.cpp
/// configuration under which a build is a pure function of the inputs,
/// independent of the message schedule. Required for any bit-compare
/// involving the threaded DRIVER (whose inter-rank schedule varies run
/// to run — a pre-existing property, orthogonal to intra-rank threads).
DnndConfig schedule_free_config() {
  DnndConfig cfg;
  cfg.k = 8;
  cfg.delta = 0.0;
  cfg.max_iterations = 10;
  cfg.batch_size = 4096;
  cfg.redundant_check_reduction = false;
  cfg.seed = 5;
  return cfg;
}

TEST_P(EngineThreadParity, BitIdenticalToSingleThreadSameDriver) {
  const EngineCase& c = GetParam();
  const auto points = clustered(400);
  const auto exact = baselines::brute_force_knn_graph(points, L2Batch{}, 8);
  // Per-driver reference. The sequential driver runs the DEFAULT config:
  // its schedule is deterministic, so the whole counter registry must
  // match. The threaded driver's inter-rank message interleaving varies
  // run to run, which makes success-counting metrics (engine.updates)
  // differ even between two identical threads=1 runs — so its legs use
  // the schedule-free config and assert graph + recall bit-identity,
  // which that config guarantees for ANY schedule.
  const bool sequential = c.driver == DriverKind::kSequential;
  const DnndConfig cfg =
      sequential ? engine_config() : schedule_free_config();
  const EngineRun ref = run_engine(points, exact, c.driver, cfg, 1);
  const EngineRun run = run_engine(points, exact, c.driver, cfg, c.threads);

  EXPECT_TRUE(run.graph == ref.graph) << "graph diverged";
  EXPECT_DOUBLE_EQ(run.recall, ref.recall);
  EXPECT_GT(ref.recall, 0.9);
  if (sequential) {
    // Full counter parity, engine.tasks included: the merged registry is
    // bit-identical once wall-clock metrics are dropped.
    EXPECT_EQ(run.counters, ref.counters);
    ASSERT_TRUE(run.counters.contains("engine.tasks"));
    EXPECT_GT(run.counters.at("engine.tasks"), 0u);
    EXPECT_EQ(run.counters.at("engine.tasks"),
              ref.counters.at("engine.tasks"));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineThreadParity,
    ::testing::Values(EngineCase{DriverKind::kSequential, 2},
                      EngineCase{DriverKind::kSequential, 4},
                      EngineCase{DriverKind::kSequential, 8},
                      EngineCase{DriverKind::kThreaded, 2},
                      EngineCase{DriverKind::kThreaded, 4},
                      EngineCase{DriverKind::kThreaded, 8}),
    engine_case_name);

TEST(EngineThreadParity, CrossDriverBitIdentityUnderScheduleFreeConfig) {
  // With delta = 0 and redundant-check reduction off (the chaos_test.cpp
  // configuration) the build is schedule-independent, so all four
  // (driver x threads) corners produce one graph.
  const auto points = clustered(320, 29);
  const auto exact = baselines::brute_force_knn_graph(points, L2Batch{}, 10);
  DnndConfig cfg;
  cfg.k = 10;
  cfg.delta = 0.0;
  cfg.max_iterations = 10;
  cfg.batch_size = 4096;
  cfg.redundant_check_reduction = false;
  cfg.seed = 11;

  const EngineRun ref =
      run_engine(points, exact, DriverKind::kSequential, cfg, 1);
  for (const DriverKind driver :
       {DriverKind::kSequential, DriverKind::kThreaded}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const EngineRun run = run_engine(points, exact, driver, cfg, threads);
      EXPECT_TRUE(run.graph == ref.graph)
          << "driver=" << (driver == DriverKind::kSequential ? "seq" : "thr")
          << " threads=" << threads;
      EXPECT_DOUBLE_EQ(run.recall, ref.recall);
    }
  }
  EXPECT_GT(ref.recall, 0.9);
}

// -- shared-memory searcher: batch_search thread parity ----------------------

TEST(QueryThreadParity, BatchSearchResultsIndependentOfWorkerCount) {
  const auto points = clustered(500, 13);
  const auto queries = clustered(40, 14);
  core::NnDescentConfig build_cfg;
  build_cfg.k = 10;
  build_cfg.seed = 3;
  const auto graph = core::build_nn_descent(points, L2Batch{}, build_cfg);
  const core::GraphSearcher<float, L2Batch> searcher(graph, points,
                                                     L2Batch{});
  core::SearchParams params;
  params.num_neighbors = 10;
  params.epsilon = 0.25;

  const auto ref = searcher.batch_search(queries, params, 1);
  for (const unsigned workers : {2u, 4u, 8u}) {
    const auto got = searcher.batch_search(queries, params, workers);
    ASSERT_EQ(got.size(), ref.size()) << "workers=" << workers;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].neighbors, ref[i].neighbors)
          << "workers=" << workers << " query=" << i;
      EXPECT_EQ(got[i].distance_evals, ref[i].distance_evals);
      EXPECT_EQ(got[i].visited, ref[i].visited);
    }
  }
}

// -- distributed query service: handler-side eval threading ------------------

TEST(QueryThreadParity, DistributedServiceResultsIndependentOfThreads) {
  const auto points = clustered(500, 91);
  const auto queries = clustered(30, 92);
  core::SearchParams params;
  params.num_neighbors = 10;
  params.epsilon = 0.25;
  params.num_entry_points = 24;

  auto run_service = [&](std::size_t threads) {
    Environment env(Config{.num_ranks = 4});
    DnndConfig cfg;
    cfg.k = 10;
    cfg.threads_per_rank = threads;
    DnndRunner<float, L2Batch> runner(env, cfg, L2Batch{});
    runner.distribute(points);
    runner.build();
    core::DistributedQueryService<float, L2Batch> service(
        env, runner.gather(), points, L2Batch{}, {}, threads);
    auto results = service.run(queries, params);
    return std::make_pair(std::move(results),
                          counter_map(env.aggregate_metrics()));
  };

  const auto [ref, ref_counters] = run_service(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const auto [got, counters] = run_service(threads);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].neighbors, ref[i].neighbors)
          << "threads=" << threads << " query=" << i;
      EXPECT_EQ(got[i].distance_evals, ref[i].distance_evals);
    }
    EXPECT_EQ(counters, ref_counters) << "threads=" << threads;
    ASSERT_TRUE(counters.contains("query.tasks"));
    EXPECT_GT(counters.at("query.tasks"), 0u);
  }
}

}  // namespace
