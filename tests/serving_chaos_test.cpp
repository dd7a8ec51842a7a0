// Chaos harness for the replicated query-serving path (ISSUE 10).
//
// The serving protocol's contract, asserted here:
//
//   1. replication is invisible when nothing fails: replication_factor=2
//      answers bit-identically to replication_factor=1 on a fault-free
//      transport (slot-0 routing == home routing);
//   2. with rf=2 and one replica of every shard crash-killed mid-stream,
//      results stay bit-identical to the fault-free run and every query
//      reports coverage == 1 — the failure detector plus idempotent
//      re-issue hide the crashes completely;
//   3. with a whole shard dead (rf=1 + crash), every query still
//      completes — degraded, with coverage < 1 reported explicitly, and
//      the run never hangs and never throws;
//   4. hedged duplicates are bit-transparent: rf=2 under heavy message
//      loss, where stragglers get hedged, returns the same bytes as the
//      fault-free rf=1 run;
//   5. a rank every engine declared dead receives no sub-request, and
//      dead-rank-aware seed sampling consumes the same rng stream when
//      nothing is dead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "baselines/brute_force.hpp"
#include "comm/environment.hpp"
#include "core/distance.hpp"
#include "core/distributed_query.hpp"
#include "core/recall.hpp"
#include "data/synthetic.hpp"
#include "mpi/fault_injector.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace {

using namespace dnnd;  // NOLINT
using comm::Config;
using comm::Environment;
using core::ReplicaMap;
using core::SearchParams;
using core::SearchResult;
using core::ServingConfig;
using mpi::CrashFault;
using mpi::EdgePolicy;
using mpi::FaultPlan;

struct L2Fn {
  float operator()(std::span<const float> a, std::span<const float> b) const {
    return core::l2(a, b);
  }
};

constexpr std::size_t kN = 480;
constexpr std::size_t kQ = 40;
constexpr std::size_t kK = 10;
constexpr int kRanks = 4;

struct Workload {
  core::FeatureStore<float> base;
  core::FeatureStore<float> queries;
  core::KnnGraph graph;  ///< exact k-NN graph — deterministic index
};

const Workload& workload() {
  static const Workload w = [] {
    data::MixtureSpec spec;
    spec.dim = 8;
    spec.num_clusters = 10;
    spec.center_range = 4.0f;
    spec.cluster_std = 1.5f;
    spec.seed = 47;
    const data::GaussianMixture family(spec);
    Workload out{family.sample(kN, 1), family.sample(kQ, 2), {}};
    out.graph = baselines::brute_force_knn_graph(out.base, L2Fn{}, kK);
    // Undirected index (the paper's query-time graph): pure k-NN digraphs
    // are poorly navigable for greedy search.
    out.graph.merge_reverse_edges(2 * kK);
    return out;
  }();
  return w;
}

SearchParams serving_params() {
  SearchParams params;
  params.num_neighbors = kK;
  params.epsilon = 0.25;
  params.num_entry_points = 16;
  params.seed = 1234;
  return params;
}

/// Runs the serving service over the exact graph under `plan`.
std::vector<SearchResult> run_queries(const ServingConfig& serving,
                                      FaultPlan plan) {
  Config cfg{.num_ranks = kRanks};
  cfg.fault_plan = std::move(plan);
  Environment env(cfg);
  const Workload& w = workload();
  core::DistributedQueryService<float, L2Fn> service(
      env, w.graph, w.base, L2Fn{}, serving, /*threads=*/1);
  return service.run(w.queries, serving_params());
}

void expect_bit_identical(const std::vector<SearchResult>& got,
                          const std::vector<SearchResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t qi = 0; qi < got.size(); ++qi) {
    SCOPED_TRACE("query " + std::to_string(qi));
    ASSERT_EQ(got[qi].neighbors.size(), want[qi].neighbors.size());
    for (std::size_t i = 0; i < got[qi].neighbors.size(); ++i) {
      EXPECT_EQ(got[qi].neighbors[i].id, want[qi].neighbors[i].id);
      EXPECT_EQ(got[qi].neighbors[i].distance, want[qi].neighbors[i].distance);
    }
    EXPECT_DOUBLE_EQ(got[qi].coverage, want[qi].coverage);
    EXPECT_EQ(got[qi].degraded, want[qi].degraded);
  }
}

double recall_of(const std::vector<SearchResult>& results) {
  const Workload& w = workload();
  const auto truth =
      baselines::brute_force_query_batch(w.base, w.queries, L2Fn{}, kK);
  std::vector<std::vector<core::Neighbor>> computed;
  computed.reserve(results.size());
  for (const auto& r : results) computed.push_back(r.neighbors);
  return core::mean_query_recall(computed, truth, kK);
}

// -- ReplicaMap placement (tentpole plumbing) ----------------------------

TEST(ReplicaMap, ChainedSuccessorPlacement) {
  const ReplicaMap map(4, 2);
  EXPECT_EQ(map.factor(), 2);
  for (int home = 0; home < 4; ++home) {
    EXPECT_EQ(map.replica(home, 0), home) << "slot 0 must be the home rank";
    EXPECT_EQ(map.replica(home, 1), (home + 1) % 4);
    EXPECT_TRUE(map.hosts(home, home));
    EXPECT_TRUE(map.hosts((home + 1) % 4, home));
    EXPECT_FALSE(map.hosts((home + 2) % 4, home));
  }
  // Rank r mirrors exactly the shards whose chain reaches it.
  EXPECT_EQ(map.mirrored_homes(0), std::vector<int>{3});
  EXPECT_EQ(map.mirrored_homes(2), std::vector<int>{1});
}

TEST(ReplicaMap, FactorClampsToWorldSize) {
  const ReplicaMap map(3, 8);
  EXPECT_EQ(map.factor(), 3);
  for (int home = 0; home < 3; ++home) {
    for (int r = 0; r < 3; ++r) EXPECT_TRUE(map.hosts(r, home));
  }
  EXPECT_THROW(ReplicaMap(0, 1), std::invalid_argument);
  EXPECT_THROW(ReplicaMap(2, 0), std::invalid_argument);
}

TEST(ReplicaMap, DefaultIsIdentity) {
  const ReplicaMap map;
  EXPECT_EQ(map.factor(), 1);
  EXPECT_EQ(map.replica(0, 0), 0);
  EXPECT_TRUE(map.mirrored_homes(0).empty());
}

// -- dead-rank-aware seed sampling (satellite 1) -------------------------

TEST(SeedSampling, SkipsDeadShardsAndRedraws) {
  const std::vector<std::uint64_t> weights{10, 10, 10, 10};
  util::Xoshiro256 rng(7);
  int hits[4] = {0, 0, 0, 0};
  for (int i = 0; i < 400; ++i) {
    const auto draw = core::sample_live_weighted_shard(
        rng, weights, 40, [](int r) { return r != 1; }, 64);
    ASSERT_GE(draw.home, 0);
    ASSERT_NE(draw.home, 1) << "drew a dead shard";
    ASSERT_LT(draw.index, 10u) << "index must be within the shard";
    ++hits[draw.home];
  }
  for (const int r : {0, 2, 3}) {
    EXPECT_GT(hits[r], 0) << "shard " << r << " never drawn";
  }
}

TEST(SeedSampling, ConsumesSameStreamWhenNothingIsDead) {
  const std::vector<std::uint64_t> weights{5, 20, 5, 10};
  util::Xoshiro256 a(11), b(11);
  for (int i = 0; i < 200; ++i) {
    const auto draw = core::sample_live_weighted_shard(
        a, weights, 40, [](int) { return true; }, 64);
    // Reference: the pre-failover sampler — one draw, split by scan.
    std::uint64_t pick = b.uniform_below(40);
    int home = 0;
    for (std::size_t r = 0; r < weights.size(); ++r) {
      if (pick < weights[r]) {
        home = static_cast<int>(r);
        break;
      }
      pick -= weights[r];
    }
    EXPECT_EQ(draw.home, home);
    EXPECT_EQ(draw.index, pick);
  }
}

TEST(SeedSampling, AllDeadReturnsNoShard) {
  const std::vector<std::uint64_t> weights{3, 3};
  util::Xoshiro256 rng(3);
  const auto draw = core::sample_live_weighted_shard(
      rng, weights, 6, [](int) { return false; }, 16);
  EXPECT_EQ(draw.home, -1);
}

TEST(SeedSampling, NeverRoutesToADeclaredDeadRank) {
  // Every engine declares rank 3 dead, though it never crashed. With rf=2
  // shard 3 also lives on rank 0, so routing around rank 3 loses nothing:
  // answers match the rf=2 reference at full coverage, and no seed, row
  // or eval request ever reaches rank 3.
  ServingConfig rf2;
  rf2.replication_factor = 2;
  const auto reference = run_queries(rf2, FaultPlan{});

  Environment env(Config{.num_ranks = kRanks});
  const Workload& w = workload();
  core::DistributedQueryService<float, L2Fn> service(
      env, w.graph, w.base, L2Fn{}, rf2, /*threads=*/1);
  for (int r = 0; r < kRanks; ++r) service.engine_rank(r).mark_rank_dead(3);
  const auto results = service.run(w.queries, serving_params());

  expect_bit_identical(results, reference);
  for (const auto& r : results) EXPECT_DOUBLE_EQ(r.coverage, 1.0);
  if constexpr (telemetry::kEnabled) {
    for (const char* name : {"comm.recv.q_seed_req", "comm.recv.q_row_req",
                             "comm.recv.q_eval_batch"}) {
      EXPECT_EQ(env.telemetry(3).metrics().counter_value(name), 0u)
          << name << ": a request reached the rank everyone declared dead";
    }
    EXPECT_GT(env.aggregate_metrics().counter_value("comm.recv.q_seed_req"),
              0u);
  }
}

// -- fault-free serving: replication is invisible ------------------------

TEST(ServingChaos, FaultFreeServesWithFullCoverage) {
  const auto results = run_queries(ServingConfig{}, FaultPlan{});
  ASSERT_EQ(results.size(), kQ);
  for (const auto& r : results) {
    EXPECT_DOUBLE_EQ(r.coverage, 1.0);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.neighbors.size(), kK);
  }
  EXPECT_GT(recall_of(results), 0.9);
}

TEST(ServingChaos, ReplicationFactorTwoIsBitIdenticalFaultFree) {
  const auto rf1 = run_queries(ServingConfig{}, FaultPlan{});
  ServingConfig rf2;
  rf2.replication_factor = 2;
  const auto replicated = run_queries(rf2, FaultPlan{});
  expect_bit_identical(replicated, rf1);
}

TEST(ServingChaos, AggressiveHedgingIsBitTransparent) {
  // Losing a quarter of all datagrams stalls first attempts behind
  // retransmits past the hedge threshold, so rf=2 sends many hedged
  // duplicates to the second replica. Whichever copy answers first wins;
  // the bytes must match the fault-free rf=1 run.
  const auto reference = run_queries(ServingConfig{}, FaultPlan{});
  ServingConfig rf2;
  rf2.replication_factor = 2;
  Config cfg{.num_ranks = kRanks};
  cfg.fault_plan.defaults = EdgePolicy{.drop = 0.25};
  Environment env(cfg);
  const Workload& w = workload();
  core::DistributedQueryService<float, L2Fn> service(
      env, w.graph, w.base, L2Fn{}, rf2, /*threads=*/1);
  const auto hedged = service.run(w.queries, serving_params());

  expect_bit_identical(hedged, reference);
  if constexpr (telemetry::kEnabled) {
    EXPECT_GT(env.aggregate_metrics().counter_value("query.hedge.sent"), 0u);
  }
}

// -- the acceptance case: one replica of every shard killed mid-stream ---

TEST(ServingChaos, KilledReplicasAreInvisibleWithRf2) {
  ServingConfig rf2;
  rf2.replication_factor = 2;
  const auto reference = run_queries(rf2, FaultPlan{});

  // Ranks 1 and 3 die during the query epoch. Under chained-successor
  // placement with rf=2 every shard keeps one live replica:
  //   shard 0 -> {0,1}: 0 lives   shard 1 -> {1,2}: 2 lives
  //   shard 2 -> {2,3}: 2 lives   shard 3 -> {3,0}: 0 lives
  FaultPlan plan;
  plan.crashes.push_back(
      CrashFault{.rank = 1, .at_tick = 40, .after_serving_epoch = true});
  plan.crashes.push_back(
      CrashFault{.rank = 3, .at_tick = 90, .after_serving_epoch = true});

  Config cfg{.num_ranks = kRanks};
  cfg.fault_plan = plan;
  Environment env(cfg);
  const Workload& w = workload();
  core::DistributedQueryService<float, L2Fn> service(
      env, w.graph, w.base, L2Fn{}, rf2, /*threads=*/1);
  const auto results = service.run(w.queries, serving_params());

  // Both crashes actually fired mid-epoch and were detected.
  EXPECT_EQ(env.fault_stats().crashes_triggered, 2u);
  ASSERT_EQ(service.rank_failures().size(), 2u);
  std::vector<int> failed;
  for (const auto& f : service.rank_failures()) {
    failed.push_back(f.failed_rank);
    EXPECT_GE(f.detected_by, 0);
    EXPECT_NE(f.detected_by, f.failed_rank);
    EXPECT_GT(f.silent_ticks, 0u);
  }
  std::sort(failed.begin(), failed.end());
  EXPECT_EQ(failed, (std::vector<int>{1, 3}));

  // The headline invariant: results are bit-identical to the fault-free
  // run and no query degraded — failover hid both crashes completely.
  expect_bit_identical(results, reference);
  for (const auto& r : results) EXPECT_DOUBLE_EQ(r.coverage, 1.0);

  if constexpr (telemetry::kEnabled) {
    const auto metrics = env.aggregate_metrics();
    const std::uint64_t failover =
        metrics.counter_value("query.failover.rerouted") +
        metrics.counter_value("query.failover.reissues") +
        metrics.counter_value("query.failover.resubmitted");
    EXPECT_GT(failover, 0u) << "two mid-stream crashes exercised no failover";
    EXPECT_EQ(metrics.counter_value("query.degraded.completed"), 0u);
    EXPECT_GT(metrics.gauge_value("mem.replica.features"), 0);
    EXPECT_GT(metrics.gauge_value("mem.replica.rows"), 0);
  }
}

// -- graceful degradation: a whole shard dies ----------------------------

TEST(ServingChaos, WholeShardDeadDegradesGracefully) {
  // No replication: rank 1's shard has exactly one host. Killing it makes
  // that shard unreachable; queries must still complete with explicit
  // sub-unit coverage — never hang, never throw.
  FaultPlan plan;
  plan.crashes.push_back(
      CrashFault{.rank = 1, .at_tick = 30, .after_serving_epoch = true});

  Config cfg{.num_ranks = kRanks};
  cfg.fault_plan = plan;
  Environment env(cfg);
  const Workload& w = workload();
  core::DistributedQueryService<float, L2Fn> service(
      env, w.graph, w.base, L2Fn{}, ServingConfig{}, /*threads=*/1);
  const auto results = service.run(w.queries, serving_params());

  EXPECT_EQ(env.fault_stats().crashes_triggered, 1u);
  ASSERT_GE(service.rank_failures().size(), 1u);
  EXPECT_EQ(service.rank_failures().front().failed_rank, 1);

  ASSERT_EQ(results.size(), kQ);
  std::size_t degraded = 0;
  for (const auto& r : results) {
    EXPECT_LE(r.coverage, 1.0);
    EXPECT_GE(r.coverage, 0.0);
    EXPECT_EQ(r.degraded, r.coverage < 1.0);
    if (r.degraded) {
      ++degraded;
      // Best reachable results, not an empty shrug.
      EXPECT_FALSE(r.neighbors.empty());
    }
  }
  EXPECT_GT(degraded, 0u) << "a dead shard must degrade some queries";
  // Three of four shards still answer: quality drops but stays useful.
  EXPECT_GT(recall_of(results), 0.5);
  if constexpr (telemetry::kEnabled) {
    const auto metrics = env.aggregate_metrics();
    EXPECT_GT(metrics.counter_value("query.degraded.completed"), 0u);
    EXPECT_GT(metrics.counter_value("query.failover.abandoned"), 0u);
  }
}

TEST(ServingChaos, Rf2SurvivesOneDeathThenDegradesOnSecond) {
  // Kill BOTH replicas of shard 1 ({1, 2}): even rf=2 must then degrade
  // on shard 1 while serving the rest — coverage says exactly how much.
  ServingConfig rf2;
  rf2.replication_factor = 2;
  FaultPlan plan;
  plan.crashes.push_back(
      CrashFault{.rank = 1, .at_tick = 30, .after_serving_epoch = true});
  plan.crashes.push_back(
      CrashFault{.rank = 2, .at_tick = 60, .after_serving_epoch = true});

  Config cfg{.num_ranks = kRanks};
  cfg.fault_plan = plan;
  Environment env(cfg);
  const Workload& w = workload();
  core::DistributedQueryService<float, L2Fn> service(
      env, w.graph, w.base, L2Fn{}, rf2, /*threads=*/1);
  const auto results = service.run(w.queries, serving_params());

  EXPECT_EQ(env.fault_stats().crashes_triggered, 2u);
  ASSERT_EQ(results.size(), kQ);
  std::size_t degraded = 0;
  for (const auto& r : results) {
    EXPECT_EQ(r.degraded, r.coverage < 1.0);
    if (r.degraded) ++degraded;
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(recall_of(results), 0.4);
}

}  // namespace
