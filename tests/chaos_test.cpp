// Chaos harness for the DNND build under transport faults.
//
// Each case runs a full distributed NN-Descent build on a faulty transport
// (drops, duplicates, delays, reordering, rank stalls) and asserts the
// ISSUE invariants:
//
//   1. the termination-detecting barrier always reaches true quiescence
//      (submitted == processed, never a spurious fixpoint);
//   2. no application message is processed twice (the retry/dedup protocol
//      restores exactly-once semantics), so the constructed graph is
//      *bit-identical* to the fault-free build with the same engine seed;
//   3. recall@10 against brute force is therefore unchanged;
//   4. transport/injector statistics are consistent with the injected
//      faults (drops imply retransmits, duplicates imply suppressions).
//
// Bit-identity needs a schedule-independent configuration: delta = 0 (the
// c == 0 convergence test is schedule-independent, nonzero c counts are
// not), redundant_check_reduction = false (a lossy heuristic whose effect
// depends on message arrival order), and distribute() rather than the
// exchange path. Distance pruning stays ON — it is lossless (DESIGN.md).
//
// Replaying a failure: every assertion carries a SCOPED_TRACE line of the
// form `replay: DNND_CHAOS_SEED=<s> DNND_CHAOS_PLAN=<name>`. Exporting
// those variables makes this binary run exactly (and only) the failing
// combination; the whole schedule is a pure function of the two seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "baselines/brute_force.hpp"
#include "comm/environment.hpp"
#include "core/distance.hpp"
#include "core/distance_kernels.hpp"
#include "core/distributed_query.hpp"
#include "core/dnnd_runner.hpp"
#include "core/recall.hpp"
#include "data/synthetic.hpp"
#include "mpi/fault_injector.hpp"

namespace {

using namespace dnnd;  // NOLINT
using comm::Config;
using comm::DriverKind;
using comm::Environment;
using core::DnndConfig;
using core::DnndRunner;
using mpi::EdgePolicy;
using mpi::FaultPlan;

struct L2Fn {
  float operator()(std::span<const float> a, std::span<const float> b) const {
    return core::l2(a, b);
  }
};

constexpr std::size_t kN = 320;
constexpr std::size_t kK = 10;
constexpr int kRanks = 4;

const core::FeatureStore<float>& dataset() {
  static const core::FeatureStore<float> points = [] {
    data::MixtureSpec spec;
    spec.dim = 8;
    spec.num_clusters = 10;
    spec.seed = 29;
    return data::GaussianMixture(spec).sample(kN, 1);
  }();
  return points;
}

const core::KnnGraph& exact_graph() {
  static const core::KnnGraph g =
      baselines::brute_force_knn_graph(dataset(), L2Fn{}, kK);
  return g;
}

/// Schedule-independent engine configuration (see file comment).
/// `threads` is the intra-rank pool size: the matrix pins the reference
/// to 1 and spot-checks threads = 4 cases against it, proving fault
/// recovery and intra-rank threading compose without losing a bit.
DnndConfig chaos_config(std::uint64_t engine_seed, std::size_t threads = 1) {
  DnndConfig cfg;
  cfg.k = kK;
  cfg.delta = 0.0;
  cfg.max_iterations = 10;
  cfg.batch_size = 4096;  // small batches: many barriers under faults
  cfg.redundant_check_reduction = false;
  cfg.seed = engine_seed;
  cfg.threads_per_rank = threads;
  return cfg;
}

struct BuildResult {
  core::KnnGraph graph;
  double recall = 0.0;
};

BuildResult run_build(std::uint64_t engine_seed, FaultPlan plan,
                      DriverKind driver) {
  Config cfg{.num_ranks = kRanks, .driver = driver};
  cfg.fault_plan = std::move(plan);
  Environment env(cfg);
  DnndRunner<float, L2Fn> runner(env, chaos_config(engine_seed), L2Fn{});
  runner.distribute(dataset());
  runner.build();

  EXPECT_TRUE(env.world().quiescent())
      << "spurious barrier exit: submitted=" << env.world().submitted()
      << " processed=" << env.world().processed();
  EXPECT_EQ(env.world().submitted(), env.world().processed());

  BuildResult result;
  result.graph = runner.gather();
  result.recall = core::graph_recall(result.graph, exact_graph(), kK);
  return result;
}

/// Fault-free sequential reference for an engine seed, computed once.
const BuildResult& reference(std::uint64_t engine_seed) {
  static std::map<std::uint64_t, BuildResult> cache;
  auto it = cache.find(engine_seed);
  if (it == cache.end()) {
    it = cache.emplace(engine_seed,
                       run_build(engine_seed, FaultPlan{},
                                 DriverKind::kSequential))
             .first;
  }
  return it->second;
}

struct NamedPlan {
  const char* name;
  FaultPlan plan;  ///< plan.seed is mixed per-case before use
};

std::vector<NamedPlan> chaos_plans() {
  std::vector<NamedPlan> plans;
  {
    NamedPlan p{.name = "protocol_only", .plan = {}};
    p.plan.force_protocol = true;
    plans.push_back(std::move(p));
  }
  {
    NamedPlan p{.name = "light_mix", .plan = {}};
    p.plan.defaults = EdgePolicy{.drop = 0.05,
                                 .duplicate = 0.05,
                                 .delay = 0.1,
                                 .reorder = 0.1,
                                 .max_delay_ticks = 6};
    plans.push_back(std::move(p));
  }
  {
    NamedPlan p{.name = "drop_heavy", .plan = {}};
    p.plan.defaults = EdgePolicy{.drop = 0.25};
    plans.push_back(std::move(p));
  }
  {
    NamedPlan p{.name = "delay_reorder", .plan = {}};
    p.plan.defaults =
        EdgePolicy{.delay = 0.5, .reorder = 0.5, .max_delay_ticks = 16};
    plans.push_back(std::move(p));
  }
  {
    NamedPlan p{.name = "stall_drop", .plan = {}};
    p.plan.defaults = EdgePolicy{.drop = 0.1};
    p.plan.stall = 0.02;
    p.plan.max_stall_ticks = 12;
    plans.push_back(std::move(p));
  }
  return plans;
}

/// splitmix64-style mix so every (engine seed, plan) pair gets an
/// independent fault-schedule seed.
std::uint64_t mix_seed(std::uint64_t engine_seed, std::size_t plan_index) {
  std::uint64_t z = engine_seed * 0x9e3779b97f4a7c15ULL +
                    (plan_index + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct ChaosCase {
  std::uint64_t engine_seed;
  std::size_t plan_index;
  DriverKind driver;
  std::size_t threads = 1;  ///< intra-rank pool size (Config::threads_per_rank)
};

std::string case_name(const ::testing::TestParamInfo<ChaosCase>& info) {
  const auto plans = chaos_plans();
  std::string name = plans[info.param.plan_index].name;
  name += "_s" + std::to_string(info.param.engine_seed);
  name += info.param.driver == DriverKind::kSequential ? "_seq" : "_thr";
  if (info.param.threads > 1) {
    name += "_t" + std::to_string(info.param.threads);
  }
  return name;
}

std::vector<std::uint64_t> matrix_engine_seeds() { return {11, 12, 13, 14}; }

std::vector<ChaosCase> make_cases() {
  std::vector<ChaosCase> cases;
  const auto plans = chaos_plans();
  // 4 engine seeds x 5 plans = 20 sequential combinations...
  for (const std::uint64_t seed : matrix_engine_seeds()) {
    for (std::size_t p = 0; p < plans.size(); ++p) {
      cases.push_back(ChaosCase{seed, p, DriverKind::kSequential});
    }
  }
  // ...plus threaded spot checks (protocol + heaviest two plans).
  for (std::uint64_t seed : {11ULL, 14ULL}) {
    cases.push_back(ChaosCase{seed, 2, DriverKind::kThreaded});
    cases.push_back(ChaosCase{seed, 4, DriverKind::kThreaded});
  }
  // ...plus intra-rank-threaded spot checks: faults AND a 4-thread pool,
  // still bit-identical to the single-threaded fault-free reference.
  for (std::uint64_t seed : {12ULL, 13ULL}) {
    cases.push_back(ChaosCase{seed, 1, DriverKind::kSequential, 4});
    cases.push_back(ChaosCase{seed, 4, DriverKind::kSequential, 4});
  }
  cases.push_back(ChaosCase{14, 2, DriverKind::kThreaded, 4});
  return cases;
}

// Guard against silent no-op replays: a typo'd DNND_CHAOS_PLAN /
// DNND_CHAOS_SEED would otherwise skip every matrix case and report green.
TEST(Chaos, ReplayFilterMatchesAKnownCombination) {
  if (const char* plan = std::getenv("DNND_CHAOS_PLAN")) {
    std::string valid;
    bool known = false;
    for (const auto& p : chaos_plans()) {
      known = known || std::string(plan) == p.name;
      valid += std::string(" ") + p.name;
    }
    // tests/run_chaos.sh drives this suite AND the recovery suite with the
    // same replay variable, so kill plans (tests/recovery_test.cpp) are
    // valid-but-foreign here: they must not trip the typo guard.
    for (const char* p :
         {"kill_r1_early", "kill_r0_mid", "kill_r3_late", "double_kill"}) {
      known = known || std::string(plan) == p;
      valid += std::string(" ") + p;
    }
    EXPECT_TRUE(known) << "DNND_CHAOS_PLAN='" << plan
                       << "' matches no plan; valid:" << valid;
  }
  if (const char* seed = std::getenv("DNND_CHAOS_SEED")) {
    auto seeds = matrix_engine_seeds();
    // The recovery matrix (tests/recovery_test.cpp) replays through the
    // same variable; its seeds are valid-but-foreign here.
    seeds.insert(seeds.end(), {21, 22});
    const std::uint64_t want = std::stoull(seed);
    const bool known = std::find(seeds.begin(), seeds.end(), want) !=
                       seeds.end();
    std::string valid;
    for (const auto s : seeds) valid += " " + std::to_string(s);
    EXPECT_TRUE(known) << "DNND_CHAOS_SEED=" << seed
                       << " is not in the matrix; valid:" << valid;
  }
}

class ChaosBuild : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosBuild, ReachesQuiescenceWithBitIdenticalGraph) {
  const ChaosCase& c = GetParam();
  const NamedPlan named = chaos_plans()[c.plan_index];

  // Replay filter: when DNND_CHAOS_SEED / DNND_CHAOS_PLAN are exported,
  // run only the matching combination.
  if (const char* want = std::getenv("DNND_CHAOS_SEED");
      want != nullptr && std::stoull(want) != c.engine_seed) {
    GTEST_SKIP() << "DNND_CHAOS_SEED filter";
  }
  if (const char* want = std::getenv("DNND_CHAOS_PLAN");
      want != nullptr && std::string(want) != named.name) {
    GTEST_SKIP() << "DNND_CHAOS_PLAN filter";
  }
  SCOPED_TRACE("replay: DNND_CHAOS_SEED=" + std::to_string(c.engine_seed) +
               " DNND_CHAOS_PLAN=" + named.name);

  FaultPlan plan = named.plan;
  plan.seed = mix_seed(c.engine_seed, c.plan_index);

  Config cfg{.num_ranks = kRanks, .driver = c.driver};
  cfg.fault_plan = plan;
  Environment env(cfg);
  DnndRunner<float, L2Fn> runner(env, chaos_config(c.engine_seed, c.threads),
                                 L2Fn{});
  runner.distribute(dataset());
  runner.build();

  // Invariant 1: true quiescence, exact counters.
  EXPECT_TRUE(env.world().quiescent());
  EXPECT_EQ(env.world().submitted(), env.world().processed());

  // Invariants 2 + 3: same graph, same recall as the fault-free build.
  const auto graph = runner.gather();
  const BuildResult& ref = reference(c.engine_seed);
  EXPECT_TRUE(graph == ref.graph)
      << "graph diverged from the fault-free reference";
  EXPECT_DOUBLE_EQ(core::graph_recall(graph, exact_graph(), kK), ref.recall);
  EXPECT_GT(ref.recall, 0.9);  // and the build is actually good

  // Invariant 4: statistics consistent with the injected faults. Every
  // injector-duplicated data datagram's extra copy is either suppressed on
  // arrival or still parked in a delay queue at the end (delayed -
  // released); retransmit-induced duplicates only add suppressions.
  const auto faults = env.fault_stats();
  const auto transport = env.aggregate_transport_counters();
  EXPECT_GT(faults.posted, 0u);
  EXPECT_GE(transport.duplicates_suppressed +
                (faults.delayed - faults.released),
            faults.duplicated_data);
  if (named.plan.defaults.drop > 0.0) {
    EXPECT_GT(faults.dropped, 0u);
    EXPECT_GT(transport.retransmits, 0u);
  }
  if (named.plan.defaults.delay > 0.0) {
    EXPECT_GT(faults.delayed, 0u);
    EXPECT_GE(faults.delayed, faults.released);
  }
  if (named.plan.stall > 0.0) {
    EXPECT_GT(faults.stalls_entered, 0u);
  }
  if (named.plan.force_protocol) {
    // No faults injected: nothing dropped and every ack datagram flows,
    // though heavy backlogs can still trigger (harmless, deduped)
    // early retransmits before an ack is processed.
    EXPECT_EQ(faults.dropped, 0u);
    EXPECT_EQ(faults.duplicated, 0u);
    EXPECT_GT(transport.acks_sent, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, ChaosBuild, ::testing::ValuesIn(make_cases()),
                         case_name);

// Dispatch cross-check: the kernel determinism contract
// (core/distance_kernels.hpp) says forcing the scalar reference cannot
// change a single distance bit, so a faulty build under forced-scalar
// dispatch must still be bit-identical to the fault-free reference built
// under the default dispatch (AVX2 where the host supports it).
TEST(Chaos, LightMixUnderForcedScalarMatchesDefaultDispatchReference) {
  const std::uint64_t engine_seed = 11;
  // Computed (and cached) BEFORE the override, under default dispatch.
  const BuildResult& ref = reference(engine_seed);

  FaultPlan plan = chaos_plans()[1].plan;  // light_mix
  plan.seed = mix_seed(engine_seed, 1);
  core::ScopedKernelDispatch scalar_only(core::KernelDispatch::kForceScalar);
  const BuildResult scalar =
      run_build(engine_seed, std::move(plan), DriverKind::kSequential);
  EXPECT_TRUE(scalar.graph == ref.graph)
      << "forced-scalar chaos build diverged from the default-dispatch "
         "fault-free reference";
  EXPECT_DOUBLE_EQ(scalar.recall, ref.recall);
}

// -- query serving under message faults (ISSUE 10 satellite) --------------
//
// Same invariant as the build matrix, but for the replicated serving path:
// drops, duplicates, delays and reordering (no crashes) must be invisible.
// The transport's retry/dedup protocol restores exactly-once delivery, the
// coordinator dedups replies by request id, and the canonical step merge
// makes admission arrival-order independent — so answers are bit-identical
// to the fault-free serving run, with full coverage on every query.

const core::KnnGraph& serving_graph() {
  static const core::KnnGraph g = [] {
    core::KnnGraph graph = exact_graph();
    // Undirected index: pure k-NN digraphs are poorly navigable for the
    // greedy search the serving path runs (see serving_chaos_test.cpp).
    graph.merge_reverse_edges(2 * kK);
    return graph;
  }();
  return g;
}

const core::FeatureStore<float>& serving_queries() {
  static const core::FeatureStore<float> queries = [] {
    data::MixtureSpec spec;
    spec.dim = 8;
    spec.num_clusters = 10;
    spec.seed = 29;
    return data::GaussianMixture(spec).sample(24, 2);
  }();
  return queries;
}

std::vector<core::SearchResult> serve_queries(FaultPlan plan) {
  Config cfg{.num_ranks = kRanks};
  cfg.fault_plan = std::move(plan);
  Environment env(cfg);
  core::ServingConfig serving;
  serving.replication_factor = 2;
  core::DistributedQueryService<float, L2Fn> service(
      env, serving_graph(), dataset(), L2Fn{}, serving, /*threads=*/1);
  core::SearchParams params;
  params.num_neighbors = kK;
  params.epsilon = 0.25;
  params.num_entry_points = 8;
  params.seed = 4242;
  return service.run(serving_queries(), params);
}

class ServingQueryChaos : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ServingQueryChaos, AnswersAreBitIdenticalUnderMessageFaults) {
  const NamedPlan named = chaos_plans()[GetParam()];
  if (const char* want = std::getenv("DNND_CHAOS_PLAN");
      want != nullptr && std::string(want) != named.name) {
    GTEST_SKIP() << "DNND_CHAOS_PLAN filter";
  }
  SCOPED_TRACE(std::string("replay: DNND_CHAOS_PLAN=") + named.name +
               " (serving)");

  FaultPlan plan = named.plan;
  plan.seed = mix_seed(31, GetParam());
  const auto faulty = serve_queries(std::move(plan));
  const auto clean = serve_queries(FaultPlan{});

  ASSERT_EQ(faulty.size(), clean.size());
  for (std::size_t qi = 0; qi < faulty.size(); ++qi) {
    SCOPED_TRACE("query " + std::to_string(qi));
    EXPECT_DOUBLE_EQ(faulty[qi].coverage, 1.0);
    EXPECT_FALSE(faulty[qi].degraded);
    ASSERT_EQ(faulty[qi].neighbors.size(), clean[qi].neighbors.size());
    for (std::size_t i = 0; i < faulty[qi].neighbors.size(); ++i) {
      EXPECT_EQ(faulty[qi].neighbors[i].id, clean[qi].neighbors[i].id);
      EXPECT_EQ(faulty[qi].neighbors[i].distance,
                clean[qi].neighbors[i].distance);
    }
  }
}

// Plans 1..3: light_mix, drop_heavy, delay_reorder. Crash-fault serving
// cases live in tests/serving_chaos_test.cpp; stall plans are exercised by
// the build matrix (stalls only slow serving, they cannot reorder it past
// the canonical merge).
INSTANTIATE_TEST_SUITE_P(
    MessageFaults, ServingQueryChaos, ::testing::Values(1u, 2u, 3u),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(chaos_plans()[info.param].name);
    });

// The sequential chaos schedule itself is deterministic: same seeds, same
// injector event counts, datagram for datagram.
TEST(Chaos, SequentialFaultScheduleReplaysExactly) {
  FaultPlan plan = chaos_plans()[1].plan;  // light_mix
  plan.seed = mix_seed(99, 1);
  auto run_once = [&]() {
    Config cfg{.num_ranks = kRanks};
    cfg.fault_plan = plan;
    Environment env(cfg);
    DnndRunner<float, L2Fn> runner(env, chaos_config(99), L2Fn{});
    runner.distribute(dataset());
    runner.build();
    return std::tuple{env.world().datagrams_posted(), env.fault_stats().posted,
                      env.fault_stats().dropped, env.fault_stats().duplicated,
                      env.fault_stats().delayed,
                      env.aggregate_transport_counters().retransmits};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
