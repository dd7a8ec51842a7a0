// Kill-and-resume chaos harness for crash-stop fault tolerance.
//
// Each matrix case runs a full DNND build under a kill plan (crash rank r
// at injector tick n, possibly again on the retry attempt) supervised by
// core::run_build_with_recovery, and asserts the ISSUE invariants:
//
//   1. every scheduled crash is detected as a structured RankFailureError
//      (heartbeat timeout or post-barrier liveness check) — never a hang;
//   2. the supervisor resumes from the newest CRC-valid checkpoint
//      generation (or restarts from scratch when the crash predates every
//      checkpoint) and the final graph is *bit-identical* to the
//      fault-free build with the same engine seed;
//   3. recall@10 against brute force is therefore unchanged;
//   4. torn / truncated / bit-flipped newest generations are rolled back
//      to the last good one on open, not loaded.
//
// Bit-identity needs the same schedule-independent configuration as
// chaos_test.cpp: delta = 0, redundant_check_reduction = false,
// distribute() path. Checkpoints are iteration-boundary consistent cuts
// that include each engine's RNG stream, so a resumed build replays the
// exact remaining iterations.
//
// Replaying a failure: every assertion carries a SCOPED_TRACE line of the
// form `replay: DNND_CHAOS_SEED=<s> DNND_CHAOS_PLAN=<name>`; exporting
// those variables runs exactly (and only) the failing combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/brute_force.hpp"
#include "comm/communicator.hpp"
#include "comm/environment.hpp"
#include "core/checkpoint_store.hpp"
#include "core/distance.hpp"
#include "core/distance_kernels.hpp"
#include "core/dnnd_checkpoint.hpp"
#include "core/dnnd_runner.hpp"
#include "core/recall.hpp"
#include "core/recovery.hpp"
#include "data/synthetic.hpp"
#include "mpi/fault_injector.hpp"
#include "pmem/manager.hpp"

namespace {

using namespace dnnd;  // NOLINT
using comm::Config;
using comm::Environment;
using core::CheckpointStore;
using core::DnndConfig;
using core::DnndRunner;
using core::RecoveryOptions;
using mpi::CrashFault;
using mpi::FaultPlan;

namespace fs = std::filesystem;

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
/// `threads` sizes the intra-rank pool; the fault-free reference is
/// pinned to 1, and threads = 4 kill-and-resume cases must still match it
/// bit for bit (threads_per_rank is deliberately NOT checkpointed, so a
/// resume may run under a different thread count than the cut).
DnndConfig chaos_config(std::uint64_t engine_seed, std::size_t threads = 1) {
  DnndConfig cfg;
  cfg.k = kK;
  cfg.delta = 0.0;
  cfg.max_iterations = 10;
  cfg.batch_size = 4096;
  cfg.redundant_check_reduction = false;
  cfg.seed = engine_seed;
  cfg.threads_per_rank = threads;
  return cfg;
}

struct BuildResult {
  core::KnnGraph graph;
  double recall = 0.0;
};

/// Fault-free sequential reference for an engine seed, computed once.
const BuildResult& reference(std::uint64_t engine_seed) {
  static std::map<std::uint64_t, BuildResult> cache;
  auto it = cache.find(engine_seed);
  if (it == cache.end()) {
    Config cfg{.num_ranks = kRanks};
    Environment env(cfg);
    DnndRunner<float, L2Fn> runner(env, chaos_config(engine_seed), L2Fn{});
    runner.distribute(dataset());
    runner.build();
    BuildResult result;
    result.graph = runner.gather();
    result.recall = core::graph_recall(result.graph, exact_graph(), kK);
    it = cache.emplace(engine_seed, std::move(result)).first;
  }
  return it->second;
}

/// A kill schedule: crashes[a] is injected on build attempt `a` (recovery
/// attempts past the schedule run on a healthy transport).
struct KillPlan {
  const char* name;
  std::vector<std::vector<CrashFault>> crashes;
  std::size_t checkpoint_every = 1;
};

std::vector<KillPlan> kill_plans() {
  return {
      // A full build spans roughly 600-900 injector ticks per rank at
      // this scale, so the kill ticks below land in distinct thirds.
      // Rank 1 dies early — usually before much progress checkpoints.
      {.name = "kill_r1_early",
       .crashes = {{CrashFault{.rank = 1, .at_tick = 150}}},
       .checkpoint_every = 1},
      // Rank 0 (the gather root) dies mid-build.
      {.name = "kill_r0_mid",
       .crashes = {{CrashFault{.rank = 0, .at_tick = 350}}},
       .checkpoint_every = 2},
      // Rank 3 dies late, with sparser checkpoints.
      {.name = "kill_r3_late",
       .crashes = {{CrashFault{.rank = 3, .at_tick = 600}}},
       .checkpoint_every = 2},
      // The replacement environment fails too: a second, different rank
      // dies on the first recovery attempt (which resumes mid-build and
      // therefore runs fewer ticks — keep its kill early).
      {.name = "double_kill",
       .crashes = {{CrashFault{.rank = 1, .at_tick = 250}},
                   {CrashFault{.rank = 2, .at_tick = 150}}},
       .checkpoint_every = 1},
  };
}

std::vector<std::uint64_t> matrix_engine_seeds() { return {21, 22}; }

/// Fresh checkpoint directory under the gtest temp root.
std::string fresh_ckpt_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "dnnd_recovery_" + tag;
  fs::remove_all(dir);
  return dir;
}

struct RecoveryCase {
  std::uint64_t engine_seed;
  std::size_t plan_index;
  std::size_t threads = 1;  ///< intra-rank pool size during every attempt
};

std::string case_name(const ::testing::TestParamInfo<RecoveryCase>& info) {
  std::string name = std::string(kill_plans()[info.param.plan_index].name) +
                     "_s" + std::to_string(info.param.engine_seed);
  if (info.param.threads > 1) {
    name += "_t" + std::to_string(info.param.threads);
  }
  return name;
}

std::vector<RecoveryCase> make_cases() {
  std::vector<RecoveryCase> cases;
  const auto plans = kill_plans();
  for (const std::uint64_t seed : matrix_engine_seeds()) {
    for (std::size_t p = 0; p < plans.size(); ++p) {
      cases.push_back(RecoveryCase{seed, p});
    }
  }
  // ...plus intra-rank-threaded spot checks: crash-stop recovery with a
  // 4-thread pool on every attempt, still bit-identical to the
  // single-threaded fault-free reference.
  cases.push_back(RecoveryCase{21, 1, 4});  // kill_r0_mid
  cases.push_back(RecoveryCase{22, 3, 4});  // double_kill
  return cases;  // 2 seeds x 4 kill plans + 2 threaded = 10 combinations
}

RecoveryOptions recovery_options(const KillPlan& plan) {
  RecoveryOptions opts;
  opts.checkpoint_every = plan.checkpoint_every;
  return opts;
}

/// Environment factory: attempt `a` gets kill schedule crashes[a] (healthy
/// once the schedule is exhausted).
auto make_env_factory(const KillPlan& plan) {
  return [&plan](std::size_t attempt) {
    Config cfg{.num_ranks = kRanks};
    if (attempt < plan.crashes.size()) {
      FaultPlan fault_plan;
      fault_plan.crashes = plan.crashes[attempt];
      cfg.fault_plan = fault_plan;
    }
    return std::make_unique<Environment>(cfg);
  };
}

// Guard against silent no-op replays (same contract as chaos_test.cpp).
TEST(Recovery, ReplayFilterMatchesAKnownCombination) {
  if (const char* plan = std::getenv("DNND_CHAOS_PLAN")) {
    std::string valid;
    bool known = false;
    for (const auto& p : kill_plans()) {
      known = known || std::string(plan) == p.name;
      valid += std::string(" ") + p.name;
    }
    // tests/run_chaos.sh drives this suite AND the chaos suite with the
    // same replay variable, so chaos fault plans (tests/chaos_test.cpp)
    // are valid-but-foreign here: they must not trip the typo guard.
    for (const char* p : {"protocol_only", "light_mix", "drop_heavy",
                          "delay_reorder", "stall_drop"}) {
      known = known || std::string(plan) == p;
      valid += std::string(" ") + p;
    }
    EXPECT_TRUE(known) << "DNND_CHAOS_PLAN='" << plan
                       << "' matches no kill plan; valid:" << valid;
  }
  if (const char* seed = std::getenv("DNND_CHAOS_SEED")) {
    auto seeds = matrix_engine_seeds();
    // The chaos matrix (tests/chaos_test.cpp) replays through the same
    // variable; its seeds are valid-but-foreign here.
    seeds.insert(seeds.end(), {11, 12, 13, 14});
    const std::uint64_t want = std::stoull(seed);
    const bool known =
        std::find(seeds.begin(), seeds.end(), want) != seeds.end();
    std::string valid;
    for (const auto s : seeds) valid += " " + std::to_string(s);
    EXPECT_TRUE(known) << "DNND_CHAOS_SEED=" << seed
                       << " is not in the matrix; valid:" << valid;
  }
}

class KillAndResume : public ::testing::TestWithParam<RecoveryCase> {};

TEST_P(KillAndResume, ResumedGraphIsBitIdentical) {
  const RecoveryCase& c = GetParam();
  const KillPlan plan = kill_plans()[c.plan_index];

  if (const char* want = std::getenv("DNND_CHAOS_SEED");
      want != nullptr && std::stoull(want) != c.engine_seed) {
    GTEST_SKIP() << "DNND_CHAOS_SEED filter";
  }
  if (const char* want = std::getenv("DNND_CHAOS_PLAN");
      want != nullptr && std::string(want) != plan.name) {
    GTEST_SKIP() << "DNND_CHAOS_PLAN filter";
  }
  SCOPED_TRACE("replay: DNND_CHAOS_SEED=" + std::to_string(c.engine_seed) +
               " DNND_CHAOS_PLAN=" + plan.name);

  CheckpointStore store(fresh_ckpt_dir(
      std::string(plan.name) + "_s" + std::to_string(c.engine_seed) + "_t" +
      std::to_string(c.threads)));
  const DnndConfig cfg = chaos_config(c.engine_seed, c.threads);
  auto result = core::run_build_with_recovery<float, L2Fn>(
      store, make_env_factory(plan),
      [&](Environment& env) {
        return std::make_unique<DnndRunner<float, L2Fn>>(env, cfg, L2Fn{});
      },
      [&](DnndRunner<float, L2Fn>& runner) { runner.distribute(dataset()); },
      recovery_options(plan));

  // Invariant 1: every scheduled crash was detected as a structured
  // failure, and the supervisor needed exactly one attempt per crash.
  EXPECT_EQ(result.report.failures_detected, plan.crashes.size());
  EXPECT_EQ(result.report.attempts, plan.crashes.size() + 1);
  ASSERT_EQ(result.report.failed_ranks.size(), plan.crashes.size());
  for (std::size_t a = 0; a < plan.crashes.size(); ++a) {
    EXPECT_EQ(result.report.failed_ranks[a], plan.crashes[a][0].rank);
  }

  // Invariants 2 + 3: bit-identical graph, unchanged recall.
  const auto graph = result.runner->gather();
  const BuildResult& ref = reference(c.engine_seed);
  EXPECT_TRUE(graph == ref.graph)
      << "resumed graph diverged from the fault-free reference";
  EXPECT_DOUBLE_EQ(core::graph_recall(graph, exact_graph(), kK), ref.recall);
  EXPECT_GT(ref.recall, 0.9);

  // The surviving (healthy) attempt reached true quiescence.
  EXPECT_TRUE(result.env->world().quiescent());

  // Checkpoint plumbing engaged: generations were written and the store's
  // newest generation is CRC-valid.
  EXPECT_GT(result.report.checkpoints_written, 0u);
  EXPECT_TRUE(store.open_latest().has_value());
}

INSTANTIATE_TEST_SUITE_P(Matrix, KillAndResume,
                         ::testing::ValuesIn(make_cases()), case_name);

// Dispatch cross-check: a kill-and-resume run under forced-scalar kernel
// dispatch must produce the same bits as the fault-free reference built
// under the default dispatch (AVX2 where available) — the checkpoint cut
// and the resumed iterations consume only canonical distance values
// (core/distance_kernels.hpp determinism contract).
TEST(Recovery, KillAndResumeUnderForcedScalarMatchesDefaultDispatch) {
  const std::uint64_t engine_seed = 21;
  // Computed (and cached) BEFORE the override, under default dispatch.
  const BuildResult& ref = reference(engine_seed);

  const KillPlan plan = kill_plans()[1];  // kill_r0_mid
  core::ScopedKernelDispatch scalar_only(core::KernelDispatch::kForceScalar);
  CheckpointStore store(fresh_ckpt_dir("forced_scalar_kill_r0_mid"));
  const DnndConfig cfg = chaos_config(engine_seed);
  auto result = core::run_build_with_recovery<float, L2Fn>(
      store, make_env_factory(plan),
      [&](Environment& env) {
        return std::make_unique<DnndRunner<float, L2Fn>>(env, cfg, L2Fn{});
      },
      [&](DnndRunner<float, L2Fn>& runner) { runner.distribute(dataset()); },
      recovery_options(plan));

  EXPECT_EQ(result.report.failures_detected, plan.crashes.size());
  EXPECT_TRUE(result.runner->gather() == ref.graph)
      << "forced-scalar resumed graph diverged from the default-dispatch "
         "fault-free reference";
}

// A crash before the first checkpoint degrades to a deterministic full
// restart — still structured, still bit-identical, resumed_from empty.
TEST(Recovery, CrashBeforeFirstCheckpointRestartsFromScratch) {
  const std::uint64_t engine_seed = 23;
  KillPlan plan{.name = "kill_before_ckpt",
                .crashes = {{CrashFault{.rank = 2, .at_tick = 40}}},
                .checkpoint_every = 4};
  CheckpointStore store(fresh_ckpt_dir("before_first_ckpt"));
  const DnndConfig cfg = chaos_config(engine_seed);
  auto result = core::run_build_with_recovery<float, L2Fn>(
      store, make_env_factory(plan),
      [&](Environment& env) {
        return std::make_unique<DnndRunner<float, L2Fn>>(env, cfg, L2Fn{});
      },
      [&](DnndRunner<float, L2Fn>& runner) { runner.distribute(dataset()); },
      recovery_options(plan));

  EXPECT_EQ(result.report.failures_detected, 1u);
  EXPECT_TRUE(result.report.resumed_from.empty())
      << "no checkpoint existed, so the retry must start from scratch";
  EXPECT_TRUE(result.runner->gather() == reference(engine_seed).graph);
}

// Corrupting the newest generation (the torn-write property) must roll the
// resume back to the previous CRC-valid generation — and the build resumed
// from that older cut is still bit-identical.
TEST(Recovery, TornNewestGenerationRollsBackToPreviousCut) {
  const std::uint64_t engine_seed = 24;
  CheckpointStore store(fresh_ckpt_dir("torn_generation"));
  const DnndConfig cfg = chaos_config(engine_seed);

  // Write checkpoints every iteration on a healthy, uninterrupted build.
  {
    Config env_cfg{.num_ranks = kRanks};
    Environment env(env_cfg);
    DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
    runner.set_checkpoint_hook(1, [&](std::size_t, bool) {
      core::write_checkpoint_generation(store, runner, 16ull << 20);
    });
    runner.distribute(dataset());
    runner.build();
  }
  const auto gens = store.generations();
  ASSERT_EQ(gens.size(), CheckpointStore::kKeepGenerations);
  const auto newest = gens.back();
  const auto previous = gens[gens.size() - 2];

  // Tear the newest generation mid-file: flip a byte at ~60% depth.
  {
    const std::string path = store.directory() + "/" + newest.file;
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekp(static_cast<std::streamoff>(newest.bytes * 6 / 10));
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(static_cast<std::streamoff>(newest.bytes * 6 / 10));
    byte = static_cast<char>(byte ^ 0x40);
    file.write(&byte, 1);
  }
  ASSERT_FALSE(store.valid(newest));
  const auto opened = store.open_latest();
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->generation, previous.generation)
      << "open_latest must skip the corrupted newest generation";

  // Resume from the rolled-back cut and finish: identical final graph.
  Config env_cfg{.num_ranks = kRanks};
  Environment env(env_cfg);
  DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
  const auto loaded = core::load_latest_generation(store, runner);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, previous.generation);
  EXPECT_EQ(runner.completed_iterations(), previous.iteration);
  runner.resume_build();
  EXPECT_TRUE(runner.gather() == reference(engine_seed).graph);
}

// Resuming a store whose newest generation captured the *converged* state
// finishes without running any further iterations.
TEST(Recovery, ResumeFromFinalCheckpointIsANoOp) {
  const std::uint64_t engine_seed = 25;
  CheckpointStore store(fresh_ckpt_dir("final_ckpt_noop"));
  const DnndConfig cfg = chaos_config(engine_seed);
  {
    Config env_cfg{.num_ranks = kRanks};
    Environment env(env_cfg);
    DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
    runner.set_checkpoint_hook(2, [&](std::size_t, bool) {
      core::write_checkpoint_generation(store, runner, 16ull << 20);
    });
    runner.distribute(dataset());
    runner.build();
  }
  Config env_cfg{.num_ranks = kRanks};
  Environment env(env_cfg);
  DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
  ASSERT_TRUE(core::load_latest_generation(store, runner).has_value());
  const auto stats = runner.resume_build();
  EXPECT_EQ(stats.iterations, 0u);
  EXPECT_TRUE(runner.gather() == reference(engine_seed).graph);
}

// -- intra-rank threading x checkpointing ------------------------------------

/// Canonical byte rendering of every logical record load_checkpoint
/// consumes from a generation file: meta, per-iteration update counts,
/// and each rank's RNG stream + CSR rows (ids, offsets, and entries with
/// exact distance bits and new/old flags). The raw arena image is NOT
/// compared — pmem allocator bookkeeping makes it byte-unstable even
/// between two identical runs — but these records ARE the checkpoint.
std::string canonical_checkpoint_bytes(const std::string& path) {
  auto manager = pmem::Manager::open(path);
  std::ostringstream out;
  auto* head = manager.find<core::CheckpointHead>("ckpt/head");
  EXPECT_NE(head, nullptr) << path;
  if (head == nullptr) return {};
  const std::string sp = core::detail::slot_prefix("ckpt", head->active_slot);
  auto* meta = manager.find<core::CheckpointMeta>(sp + "/meta");
  EXPECT_NE(meta, nullptr) << path;
  if (meta == nullptr) return {};
  out << "meta " << meta->num_ranks << ' ' << meta->k << ' '
      << meta->global_count << ' ' << meta->id_bound << ' '
      << meta->completed_iterations << ' ' << meta->total_updates << ' '
      << meta->seed << ' ' << meta->converged << '\n';
  if (auto* updates = manager.find<core::CheckpointUpdates>(sp + "/updates")) {
    out << "updates";
    for (std::size_t i = 0; i < updates->counts.size(); ++i) {
      out << ' ' << updates->counts[i];
    }
    out << '\n';
  }
  for (std::uint32_t r = 0; r < meta->num_ranks; ++r) {
    const int rank = static_cast<int>(r);
    auto* rng = manager.find<core::CheckpointRngState>(
        core::detail::ckpt_name(sp, "rng", rank));
    EXPECT_NE(rng, nullptr) << path << " rank " << rank;
    if (rng == nullptr) return {};
    out << "rng " << rank << ' ' << rng->s[0] << ' ' << rng->s[1] << ' '
        << rng->s[2] << ' ' << rng->s[3] << '\n';
    auto* rows = manager.find<core::CheckpointRows>(
        core::detail::ckpt_name(sp, "rows", rank));
    EXPECT_NE(rows, nullptr) << path << " rank " << rank;
    if (rows == nullptr) return {};
    out << "rows " << rank << '\n';
    for (std::size_t i = 0; i < rows->ids.size(); ++i) {
      out << rows->ids[i] << ':';
      for (auto e = rows->row_offsets[i]; e < rows->row_offsets[i + 1]; ++e) {
        const core::Neighbor& n = rows->entries[e];
        out << ' ' << n.id << '/'
            << std::bit_cast<std::uint32_t>(n.distance) << '/' << n.is_new;
      }
      out << '\n';
    }
  }
  return out.str();
}

// The checkpoint cut is a pure function of the algorithm state, and the
// thread pool is invisible in every state bit — so two healthy builds
// that differ ONLY in threads_per_rank must write generations whose
// logical records are byte-equal. (threads_per_rank is deliberately not
// checkpointed; this test would catch it leaking into the state.)
TEST(Recovery, CheckpointGenerationsAreByteEqualAcrossThreadCounts) {
  const std::uint64_t engine_seed = 28;
  auto build_with_checkpoints = [&](std::size_t threads,
                                    const std::string& tag) {
    auto store = std::make_unique<CheckpointStore>(fresh_ckpt_dir(tag));
    Config env_cfg{.num_ranks = kRanks};
    Environment env(env_cfg);
    DnndRunner<float, L2Fn> runner(env, chaos_config(engine_seed, threads),
                                   L2Fn{});
    runner.set_checkpoint_hook(1, [&](std::size_t, bool) {
      core::write_checkpoint_generation(*store, runner, 16ull << 20);
    });
    runner.distribute(dataset());
    runner.build();
    return store;
  };
  const auto a = build_with_checkpoints(1, "bytes_t1");
  const auto b = build_with_checkpoints(4, "bytes_t4");

  const auto gens_a = a->generations();
  const auto gens_b = b->generations();
  ASSERT_EQ(gens_a.size(), gens_b.size());
  ASSERT_GT(gens_a.size(), 0u);
  for (std::size_t g = 0; g < gens_a.size(); ++g) {
    EXPECT_EQ(gens_a[g].generation, gens_b[g].generation);
    EXPECT_EQ(gens_a[g].iteration, gens_b[g].iteration);
    const auto bytes_a =
        canonical_checkpoint_bytes(a->directory() + "/" + gens_a[g].file);
    const auto bytes_b =
        canonical_checkpoint_bytes(b->directory() + "/" + gens_b[g].file);
    ASSERT_FALSE(bytes_a.empty());
    EXPECT_TRUE(bytes_a == bytes_b)
        << "generation " << gens_a[g].generation
        << " diverged between threads=1 and threads=4";
  }
}

// A cut written under a 4-thread pool resumes under ANY thread count to
// the same final bits — threads_per_rank is a runtime knob, not state.
TEST(Recovery, ResumeUnderDifferentThreadCountIsBitIdentical) {
  const std::uint64_t engine_seed = 29;
  CheckpointStore store(fresh_ckpt_dir("cross_thread_resume"));
  {
    Config env_cfg{.num_ranks = kRanks};
    Environment env(env_cfg);
    DnndRunner<float, L2Fn> runner(env, chaos_config(engine_seed, 4),
                                   L2Fn{});
    // Checkpoint only the first few iterations: the newest generation is
    // a genuine mid-build cut, so the resume below replays real work.
    runner.set_checkpoint_hook(1, [&](std::size_t iteration, bool) {
      if (iteration <= 4) {
        core::write_checkpoint_generation(store, runner, 16ull << 20);
      }
    });
    runner.distribute(dataset());
    runner.build();
  }
  const auto newest = store.open_latest();
  ASSERT_TRUE(newest.has_value());
  ASSERT_LE(newest->iteration, 4u);

  for (const std::size_t resume_threads : {std::size_t{1}, std::size_t{8}}) {
    Config env_cfg{.num_ranks = kRanks};
    Environment env(env_cfg);
    DnndRunner<float, L2Fn> runner(
        env, chaos_config(engine_seed, resume_threads), L2Fn{});
    ASSERT_TRUE(core::load_latest_generation(store, runner).has_value());
    EXPECT_EQ(runner.completed_iterations(), newest->iteration);
    runner.resume_build();
    EXPECT_TRUE(runner.gather() == reference(engine_seed).graph)
        << "resume_threads=" << resume_threads;
  }
}

// A resumed build must use the original engine seed — the checkpoint
// records it, and a mismatch is a hard error rather than a silent
// divergence.
TEST(Recovery, ResumeWithDifferentSeedIsRejected) {
  CheckpointStore store(fresh_ckpt_dir("seed_mismatch"));
  {
    Config env_cfg{.num_ranks = kRanks};
    Environment env(env_cfg);
    DnndRunner<float, L2Fn> runner(env, chaos_config(26), L2Fn{});
    runner.set_checkpoint_hook(1, [&](std::size_t, bool) {
      core::write_checkpoint_generation(store, runner, 16ull << 20);
    });
    runner.distribute(dataset());
    runner.build();
  }
  Config env_cfg{.num_ranks = kRanks};
  Environment env(env_cfg);
  DnndRunner<float, L2Fn> runner(env, chaos_config(27), L2Fn{});
  EXPECT_THROW(core::load_latest_generation(store, runner),
               std::runtime_error);
}

// -- sealed generation files -------------------------------------------------

// A committed generation is exactly as long as the arena bytes it used:
// the manifest's byte count, the file size, the reopened header's
// capacity and its bump cursor all agree, far below the reservation.
TEST(Recovery, CommittedGenerationIsSealedAtItsBump) {
  constexpr std::size_t kReserved = 16ull << 20;
  CheckpointStore store(fresh_ckpt_dir("sealed_generation"));
  {
    Config env_cfg{.num_ranks = kRanks};
    Environment env(env_cfg);
    DnndRunner<float, L2Fn> runner(env, chaos_config(30), L2Fn{});
    runner.set_checkpoint_hook(1, [&](std::size_t, bool) {
      core::write_checkpoint_generation(store, runner, kReserved);
    });
    runner.distribute(dataset());
    runner.build();
  }
  const auto gens = store.generations();
  ASSERT_EQ(gens.size(), CheckpointStore::kKeepGenerations);
  for (const auto& info : gens) {
    SCOPED_TRACE(info.file);
    const std::string path = store.directory() + "/" + info.file;
    EXPECT_EQ(fs::file_size(path), info.bytes);
    EXPECT_LT(info.bytes, kReserved / 16);
    auto manager = pmem::Manager::open(path);
    EXPECT_EQ(manager.capacity_bytes(), info.bytes);
    EXPECT_EQ(manager.stats().bump_bytes, info.bytes);
    // Fresh bytes are gone: a new object larger than any freed block
    // fails as exhausted instead of landing past EOF.
    struct Big {
      std::byte payload[1 << 20];
    };
    EXPECT_EQ(manager.find_or_construct<Big>("late"), nullptr);
  }
  EXPECT_TRUE(store.valid(gens.back()));
}

// The arena size the recovery supervisor derives from a runner's state
// must hold a whole generation of it, dense or sparse, so no build outgrows
// its checkpoint arena. Inputs are sized so a generation exceeds the fixed
// 1 MiB headroom and the state-proportional term is what is tested.
template <typename T, typename Fn>
void expect_derived_capacity_holds_a_generation(
    const core::FeatureStore<T>& points, const std::string& tag) {
  SCOPED_TRACE(tag);
  CheckpointStore store(fresh_ckpt_dir(tag));
  Config env_cfg{.num_ranks = kRanks};
  Environment env(env_cfg);
  DnndConfig cfg;
  cfg.k = kK;
  cfg.max_iterations = 1;  // rows are full after initialization
  DnndRunner<T, Fn> runner(env, cfg, Fn{});
  runner.distribute(points);
  runner.build();
  const std::size_t capacity = core::generation_capacity_bytes(runner);
  const auto info = core::write_checkpoint_generation(store, runner, capacity);
  EXPECT_GT(info.bytes, std::size_t{1} << 20);
  EXPECT_GE(capacity, info.bytes);
  auto manager = pmem::Manager::open(store.directory() + "/" + info.file);
  EXPECT_EQ(manager.stats().bump_bytes, info.bytes);
}

struct JaccardFn {
  float operator()(std::span<const std::uint32_t> a,
                   std::span<const std::uint32_t> b) const {
    return core::jaccard_sorted(a, b);
  }
};

TEST(Recovery, DerivedGenerationCapacityCoversDenseAndSparseState) {
  data::MixtureSpec spec;
  spec.dim = 64;
  spec.seed = 31;
  expect_derived_capacity_holds_a_generation<float, L2Fn>(
      data::GaussianMixture(spec).sample(2000, 1), "derived_dense");
  expect_derived_capacity_holds_a_generation<std::uint32_t, JaccardFn>(
      data::SparseSetFamily(data::SparseSetSpec{}).sample(4000, 1),
      "derived_sparse");
}

}  // namespace
