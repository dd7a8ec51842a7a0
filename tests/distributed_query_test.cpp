// Tests for the distributed query service: equivalence with the
// shared-memory searcher's quality, correctness of the message protocol,
// and behaviour across rank counts, drivers, and mutated indexes.
#include <gtest/gtest.h>

#include "baselines/brute_force.hpp"
#include "comm/environment.hpp"
#include "core/distance.hpp"
#include "core/distributed_query.hpp"
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

struct Workload {
  core::FeatureStore<float> base;
  core::FeatureStore<float> queries;
  std::vector<std::vector<core::VertexId>> truth;
};

Workload make_workload(std::size_t n = 600, std::size_t nq = 30) {
  data::MixtureSpec spec;
  spec.dim = 8;
  spec.num_clusters = 10;
  spec.center_range = 4.0f;
  spec.cluster_std = 1.5f;
  spec.seed = 91;
  const data::GaussianMixture family(spec);
  Workload w{family.sample(n, 1), family.sample(nq, 2), {}};
  w.truth = baselines::brute_force_query_batch(w.base, w.queries, L2Fn{}, 10);
  return w;
}

core::SearchParams default_params() {
  core::SearchParams params;
  params.num_neighbors = 10;
  params.epsilon = 0.25;
  params.num_entry_points = 24;
  return params;
}

class QueryRanks : public ::testing::TestWithParam<int> {};

TEST_P(QueryRanks, HighRecallWithoutGather) {
  const auto w = make_workload();
  comm::Environment env(comm::Config{.num_ranks = GetParam()});
  core::DnndConfig cfg;
  cfg.k = 10;
  core::DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
  runner.distribute(w.base);
  runner.build();
  runner.optimize();

  core::DistributedQueryService<float, L2Fn> service(env, runner, L2Fn{});
  const auto results = service.run(w.queries, default_params());
  ASSERT_EQ(results.size(), w.queries.size());
  std::vector<std::vector<core::Neighbor>> computed;
  for (const auto& r : results) {
    EXPECT_EQ(r.neighbors.size(), 10u);
    computed.push_back(r.neighbors);
  }
  EXPECT_GT(core::mean_query_recall(computed, w.truth, 10), 0.9)
      << "ranks=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Ranks, QueryRanks, ::testing::Values(1, 3, 8),
                         [](const auto& info) {
                           return "r" + std::to_string(info.param);
                         });

TEST(DistributedQuery, ReportedDistancesAreExact) {
  const auto w = make_workload(300, 10);
  comm::Environment env(comm::Config{.num_ranks = 4});
  core::DnndConfig cfg;
  cfg.k = 8;
  core::DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
  runner.distribute(w.base);
  runner.build();
  core::DistributedQueryService<float, L2Fn> service(env, runner, L2Fn{});
  const auto results = service.run(w.queries, default_params());
  for (std::size_t qi = 0; qi < w.queries.size(); ++qi) {
    for (const auto& n : results[qi].neighbors) {
      EXPECT_FLOAT_EQ(n.distance, L2Fn{}(w.queries.row(qi), w.base[n.id]));
    }
    // Sorted ascending, distinct ids.
    for (std::size_t i = 1; i < results[qi].neighbors.size(); ++i) {
      EXPECT_GE(results[qi].neighbors[i].distance,
                results[qi].neighbors[i - 1].distance);
      for (std::size_t j = 0; j < i; ++j) {
        EXPECT_NE(results[qi].neighbors[i].id, results[qi].neighbors[j].id);
      }
    }
  }
}

TEST(DistributedQuery, MatchesSharedMemorySearcherQuality) {
  const auto w = make_workload();
  comm::Environment env(comm::Config{.num_ranks = 4});
  core::DnndConfig cfg;
  cfg.k = 10;
  core::DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
  runner.distribute(w.base);
  runner.build();
  runner.optimize();

  // Shared-memory reference over the gathered graph.
  const auto graph = runner.gather();
  core::GraphSearcher searcher(graph, w.base, L2Fn{});
  std::vector<std::vector<core::Neighbor>> shared;
  for (std::size_t qi = 0; qi < w.queries.size(); ++qi) {
    shared.push_back(
        searcher.search(w.queries.row(qi), default_params()).neighbors);
  }
  const double shared_recall = core::mean_query_recall(shared, w.truth, 10);

  core::DistributedQueryService<float, L2Fn> service(env, runner, L2Fn{});
  const auto results = service.run(w.queries, default_params());
  std::vector<std::vector<core::Neighbor>> distributed;
  for (const auto& r : results) distributed.push_back(r.neighbors);
  const double distributed_recall =
      core::mean_query_recall(distributed, w.truth, 10);

  EXPECT_GT(distributed_recall, shared_recall - 0.08)
      << "distributed traversal should match the shared-memory searcher";
}

TEST(DistributedQuery, ThreadedDriverAgrees) {
  const auto w = make_workload(400, 16);
  comm::Environment env(
      comm::Config{.num_ranks = 4, .driver = comm::DriverKind::kThreaded});
  core::DnndConfig cfg;
  cfg.k = 10;
  core::DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
  runner.distribute(w.base);
  runner.build();
  core::DistributedQueryService<float, L2Fn> service(env, runner, L2Fn{});
  const auto results = service.run(w.queries, default_params());
  std::vector<std::vector<core::Neighbor>> computed;
  for (const auto& r : results) computed.push_back(r.neighbors);
  EXPECT_GT(core::mean_query_recall(computed, w.truth, 10), 0.85);
}

TEST(DistributedQuery, EpsilonTradesWorkForRecall) {
  const auto w = make_workload();
  comm::Environment env(comm::Config{.num_ranks = 4});
  core::DnndConfig cfg;
  cfg.k = 10;
  core::DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
  runner.distribute(w.base);
  runner.build();
  runner.optimize();
  core::DistributedQueryService<float, L2Fn> service(env, runner, L2Fn{});

  std::uint64_t prev_evals = 0;
  double prev_recall = -1;
  for (const double epsilon : {0.0, 0.2, 0.4}) {
    auto params = default_params();
    params.epsilon = epsilon;
    const auto results = service.run(w.queries, params);
    std::uint64_t evals = 0;
    std::vector<std::vector<core::Neighbor>> computed;
    for (const auto& r : results) {
      evals += r.distance_evals;
      computed.push_back(r.neighbors);
    }
    const double recall = core::mean_query_recall(computed, w.truth, 10);
    EXPECT_GE(recall + 0.03, prev_recall);
    EXPECT_GT(evals, prev_evals);
    prev_evals = evals;
    prev_recall = recall;
  }
  EXPECT_GT(prev_recall, 0.93);
}

TEST(DistributedQuery, WorksAfterDynamicUpdates) {
  auto w = make_workload(400, 12);
  comm::Environment env(comm::Config{.num_ranks = 4});
  core::DnndConfig cfg;
  cfg.k = 10;
  core::DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
  runner.distribute(w.base);
  runner.build();

  // Delete a slice, refine, re-attach a new service and query survivors.
  std::vector<core::VertexId> removed;
  for (core::VertexId v = 0; v < 400; v += 5) removed.push_back(v);
  runner.remove_points(removed);
  runner.refine();

  core::FeatureStore<float> survivors;
  for (core::VertexId v = 0; v < 400; ++v) {
    if (v % 5 != 0) survivors.add(v, w.base[v]);
  }
  const auto truth =
      baselines::brute_force_query_batch(survivors, w.queries, L2Fn{}, 10);

  core::DistributedQueryService<float, L2Fn> service(env, runner, L2Fn{});
  const auto results = service.run(w.queries, default_params());
  std::vector<std::vector<core::Neighbor>> computed;
  for (const auto& r : results) {
    for (const auto& n : r.neighbors) {
      EXPECT_NE(n.id % 5, 0u) << "deleted vertex returned by a query";
    }
    computed.push_back(r.neighbors);
  }
  EXPECT_GT(core::mean_query_recall(computed, truth, 10), 0.8);
}

TEST(DistributedQuery, RepeatedRunsAnswerIdentically) {
  // Seeds come from a per-query rng, not from rank state that advances
  // from batch to batch, so one service answers the same batch the same
  // way every time: the neighbors and the work spent finding them.
  const auto w = make_workload();
  comm::Environment env(comm::Config{.num_ranks = 4});
  core::DnndConfig cfg;
  cfg.k = 10;
  core::DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
  runner.distribute(w.base);
  runner.build();
  core::DistributedQueryService<float, L2Fn> service(env, runner, L2Fn{});
  const auto first = service.run(w.queries, default_params());
  const auto second = service.run(w.queries, default_params());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t qi = 0; qi < first.size(); ++qi) {
    EXPECT_EQ(first[qi].neighbors, second[qi].neighbors) << "query " << qi;
    EXPECT_EQ(first[qi].distance_evals, second[qi].distance_evals)
        << "query " << qi;
  }
}

TEST(DistributedQuery, EmptyQueryBatch) {
  const auto w = make_workload(100, 0);
  comm::Environment env(comm::Config{.num_ranks = 2});
  core::DnndConfig cfg;
  cfg.k = 6;
  core::DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
  runner.distribute(w.base);
  runner.build();
  core::DistributedQueryService<float, L2Fn> service(env, runner, L2Fn{});
  EXPECT_TRUE(service.run(w.queries, default_params()).empty());
}

}  // namespace
