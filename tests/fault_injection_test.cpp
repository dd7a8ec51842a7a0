// Unit tests for the fault-injection transport layer and the retry/dedup
// protocol: exactly-once delivery to handlers under drops, duplicates,
// delays, reordering, and rank stalls; zero overhead when disabled;
// deterministic schedules by seed; and graceful TransportError surfacing
// when the retry budget is exhausted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "baselines/brute_force.hpp"
#include "comm/environment.hpp"
#include "core/distance.hpp"
#include "core/dnnd_runner.hpp"
#include "data/synthetic.hpp"
#include "mpi/fault_injector.hpp"
#include "mpi/world.hpp"

namespace {

using namespace dnnd;  // NOLINT
using comm::Config;
using comm::DriverKind;
using comm::Environment;
using comm::HandlerId;
using comm::TransportError;
using mpi::EdgeOverride;
using mpi::EdgePolicy;
using mpi::FaultPlan;

// ---------------------------------------------------------------------------
// FaultPlan basics
// ---------------------------------------------------------------------------

TEST(FaultPlan, EmptyDetection) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());

  plan.defaults.drop = 0.1;
  EXPECT_FALSE(plan.empty());

  plan = FaultPlan{};
  plan.stall = 0.01;
  EXPECT_FALSE(plan.empty());

  plan = FaultPlan{};
  plan.force_protocol = true;
  EXPECT_FALSE(plan.empty());

  plan = FaultPlan{};
  plan.overrides.push_back(EdgeOverride{0, 1, EdgePolicy{.duplicate = 0.5}});
  EXPECT_FALSE(plan.empty());

  plan.overrides.front().policy = EdgePolicy{};  // inert override
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, EmptyPlanKeepsFastPath) {
  Environment env(Config{.num_ranks = 2});
  EXPECT_FALSE(env.world().faulty());
  EXPECT_FALSE(env.comm(0).reliable());

  std::vector<HandlerId> h(2);
  for (int r = 0; r < 2; ++r) {
    h[r] = env.comm(r).register_handler(
        "m", [](int, serial::InArchive& ar) { ar.read<std::uint32_t>(); });
  }
  env.execute_phase([&](int rank) {
    env.comm(rank).async(1 - rank, h[0], std::uint32_t{1});
  });
  const auto counters = env.aggregate_transport_counters();
  EXPECT_EQ(counters.acks_sent, 0u);
  EXPECT_EQ(counters.retransmits, 0u);
  EXPECT_EQ(counters.duplicates_suppressed, 0u);
  EXPECT_EQ(env.fault_stats().posted, 0u);
}

TEST(World, InjectorInstallAfterTrafficThrows) {
  mpi::World world(2);
  world.note_messages_submitted(1);
  world.post(1, mpi::Datagram{.source = 0, .message_count = 1});
  EXPECT_THROW(
      world.install_fault_injector(
          std::make_unique<mpi::FaultInjector>(FaultPlan{}, 2)),
      std::logic_error);
}

// ---------------------------------------------------------------------------
// Exactly-once delivery under every fault class, both drivers.
// ---------------------------------------------------------------------------

struct ExactlyOnceResult {
  std::uint64_t sum = 0;
  std::uint64_t handled = 0;
  mpi::FaultStats faults;
  comm::TransportCounters transport;
  std::uint64_t datagrams = 0;
};

/// All-to-all workload with payload checksums: every rank sends kPerPair
/// distinct values to every other rank; handlers accumulate. Exactly-once
/// delivery <=> the global sum and count both match exactly (drops would
/// deflate them, duplicate dispatches inflate them).
ExactlyOnceResult run_exactly_once(FaultPlan plan, DriverKind driver,
                                   int ranks = 4, int per_pair = 64,
                                   comm::RetryConfig retry = {}) {
  Config cfg{.num_ranks = ranks, .driver = driver};
  cfg.send_buffer_bytes = 96;  // several datagrams per pair
  cfg.fault_plan = std::move(plan);
  cfg.retry = retry;
  Environment env(cfg);

  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> handled{0};
  std::vector<HandlerId> h(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    h[static_cast<std::size_t>(r)] = env.comm(r).register_handler(
        "acc", [&](int, serial::InArchive& ar) {
          sum.fetch_add(ar.read<std::uint32_t>(), std::memory_order_relaxed);
          handled.fetch_add(1, std::memory_order_relaxed);
        });
  }
  env.execute_phase([&](int rank) {
    for (int dest = 0; dest < ranks; ++dest) {
      if (dest == rank) continue;
      for (int i = 1; i <= per_pair; ++i) {
        env.comm(rank).async(dest, h[static_cast<std::size_t>(rank)],
                             static_cast<std::uint32_t>(i));
      }
    }
  });
  EXPECT_TRUE(env.world().quiescent());
  EXPECT_EQ(env.world().submitted(), env.world().processed());
  // Quiescence counts application messages, not transport copies, so the
  // threaded barrier can end with a duplicated copy still queued in a
  // mailbox. Deliver what is left before reading the counters.
  for (bool queued = true; queued;) {
    queued = false;
    for (int r = 0; r < ranks; ++r) {
      if (env.world().mailbox_empty(r)) continue;
      queued = true;
      env.comm(r).process_available();
    }
  }
  return ExactlyOnceResult{sum.load(), handled.load(), env.fault_stats(),
                           env.aggregate_transport_counters(),
                           env.world().datagrams_posted()};
}

std::uint64_t expected_sum(int ranks, int per_pair) {
  const std::uint64_t pairs =
      static_cast<std::uint64_t>(ranks) * static_cast<std::uint64_t>(ranks - 1);
  return pairs * static_cast<std::uint64_t>(per_pair) *
         static_cast<std::uint64_t>(per_pair + 1) / 2;
}

class FaultMatrix : public ::testing::TestWithParam<DriverKind> {};

TEST_P(FaultMatrix, ProtocolOnlyNoFaultsIsExact) {
  FaultPlan plan;
  plan.force_protocol = true;
  const auto r = run_exactly_once(plan, GetParam());
  EXPECT_EQ(r.sum, expected_sum(4, 64));
  EXPECT_EQ(r.handled, 4u * 3u * 64u);
  EXPECT_GT(r.transport.acks_sent, 0u);
  EXPECT_EQ(r.faults.dropped, 0u);
  if (GetParam() == DriverKind::kSequential) {
    // Under the threaded driver a retransmit may legitimately race the ack
    // (the copy is then suppressed); sequentially acks always win.
    EXPECT_EQ(r.transport.retransmits, 0u);
    EXPECT_EQ(r.transport.duplicates_suppressed, 0u);
  }
}

TEST_P(FaultMatrix, DropsAreRetransmitted) {
  FaultPlan plan;
  plan.seed = 0xd20f;
  plan.defaults.drop = 0.2;
  const auto r = run_exactly_once(plan, GetParam());
  EXPECT_EQ(r.sum, expected_sum(4, 64));
  EXPECT_GT(r.faults.dropped, 0u);
  EXPECT_GT(r.transport.retransmits, 0u);
}

TEST_P(FaultMatrix, DuplicatesAreSuppressed) {
  FaultPlan plan;
  plan.seed = 0xd0b1e;
  plan.defaults.duplicate = 0.5;
  const auto r = run_exactly_once(plan, GetParam());
  EXPECT_EQ(r.sum, expected_sum(4, 64));
  EXPECT_GT(r.faults.duplicated, 0u);
  EXPECT_GT(r.transport.duplicates_suppressed, 0u);
  // Every injector-duplicated *data* datagram yields one extra copy that is
  // either suppressed on arrival or still parked in a delay queue when the
  // run ends (delayed - released). Ack duplicates are never counted: acks
  // are unsequenced and idempotent.
  EXPECT_GE(r.transport.duplicates_suppressed +
                (r.faults.delayed - r.faults.released),
            r.faults.duplicated_data);
}

TEST_P(FaultMatrix, DelayAndReorderStayExact) {
  FaultPlan plan;
  plan.seed = 0xde1a7;
  plan.defaults.delay = 0.4;
  plan.defaults.max_delay_ticks = 12;
  plan.defaults.reorder = 0.4;
  const auto r = run_exactly_once(plan, GetParam());
  EXPECT_EQ(r.sum, expected_sum(4, 64));
  EXPECT_GT(r.faults.delayed, 0u);
  EXPECT_GT(r.faults.reordered, 0u);
  EXPECT_GT(r.faults.released, 0u);
  // A delayed retransmit/duplicate copy may stay parked once quiescence is
  // reached (its original was already processed), so released <= delayed.
  EXPECT_LE(r.faults.released, r.faults.delayed);
}

TEST_P(FaultMatrix, RankStallsDoNotBreakTermination) {
  FaultPlan plan;
  plan.seed = 0x57a11;
  plan.stall = 0.05;
  plan.max_stall_ticks = 8;
  plan.defaults.drop = 0.1;
  const auto r = run_exactly_once(plan, GetParam());
  EXPECT_EQ(r.sum, expected_sum(4, 64));
  EXPECT_GT(r.faults.stalls_entered, 0u);
}

TEST_P(FaultMatrix, EverythingAtOnceStaysExact) {
  FaultPlan plan;
  plan.seed = 0xa11;
  plan.defaults = EdgePolicy{.drop = 0.1,
                             .duplicate = 0.15,
                             .delay = 0.25,
                             .reorder = 0.25,
                             .max_delay_ticks = 10};
  plan.stall = 0.02;
  plan.max_stall_ticks = 12;
  const auto r = run_exactly_once(plan, GetParam());
  EXPECT_EQ(r.sum, expected_sum(4, 64));
  EXPECT_EQ(r.handled, 4u * 3u * 64u);
}

INSTANTIATE_TEST_SUITE_P(Drivers, FaultMatrix,
                         ::testing::Values(DriverKind::kSequential,
                                           DriverKind::kThreaded),
                         [](const auto& info) {
                           return info.param == DriverKind::kSequential
                                      ? "Sequential"
                                      : "Threaded";
                         });

// ---------------------------------------------------------------------------
// Determinism: a fault schedule is a pure function of the plan seed under
// the sequential driver.
// ---------------------------------------------------------------------------

TEST(FaultInjection, SequentialScheduleIsDeterministicBySeed) {
  FaultPlan plan;
  plan.seed = 0x5eed;
  plan.defaults = EdgePolicy{.drop = 0.15,
                             .duplicate = 0.1,
                             .delay = 0.3,
                             .reorder = 0.2,
                             .max_delay_ticks = 6};
  plan.stall = 0.01;
  const auto a = run_exactly_once(plan, DriverKind::kSequential);
  const auto b = run_exactly_once(plan, DriverKind::kSequential);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.datagrams, b.datagrams);
  EXPECT_EQ(a.faults.posted, b.faults.posted);
  EXPECT_EQ(a.faults.dropped, b.faults.dropped);
  EXPECT_EQ(a.faults.duplicated, b.faults.duplicated);
  EXPECT_EQ(a.faults.delayed, b.faults.delayed);
  EXPECT_EQ(a.faults.reordered, b.faults.reordered);
  EXPECT_EQ(a.transport.retransmits, b.transport.retransmits);
  EXPECT_EQ(a.transport.duplicates_suppressed,
            b.transport.duplicates_suppressed);
}

TEST(FaultInjection, SelfEdgesAreCleanByDefault) {
  // Local (self) messages never cross the simulated network; even a
  // drop-everything default policy must not touch them.
  FaultPlan plan;
  plan.defaults.drop = 1.0;
  Config cfg{.num_ranks = 1};
  cfg.fault_plan = plan;
  Environment env(cfg);
  int calls = 0;
  const HandlerId h = env.comm(0).register_handler(
      "self", [&](int, serial::InArchive& ar) {
        ar.read<std::uint8_t>();
        ++calls;
      });
  env.execute_phase([&](int) { env.comm(0).async(0, h, std::uint8_t{1}); });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(env.fault_stats().dropped, 0u);
}

// ---------------------------------------------------------------------------
// Retry exhaustion: bounded budget surfaces TransportError, no livelock.
// ---------------------------------------------------------------------------

TEST(FaultInjection, RetryBudgetExhaustionThrowsTransportError) {
  FaultPlan plan;
  plan.overrides.push_back(EdgeOverride{0, 1, EdgePolicy{.drop = 1.0}});
  Config cfg{.num_ranks = 2};
  cfg.fault_plan = plan;
  cfg.retry = comm::RetryConfig{.max_retries = 4,
                                .initial_backoff_ticks = 1,
                                .max_backoff_ticks = 4};
  Environment env(cfg);
  std::vector<HandlerId> h(2);
  for (int r = 0; r < 2; ++r) {
    h[static_cast<std::size_t>(r)] = env.comm(r).register_handler(
        "x", [](int, serial::InArchive& ar) { ar.read<std::uint8_t>(); });
  }
  try {
    env.execute_phase([&](int rank) {
      if (rank == 0) env.comm(0).async(1, h[0], std::uint8_t{1});
    });
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.source(), 0);
    EXPECT_EQ(e.dest(), 1);
    EXPECT_GE(e.attempts(), 4u);
  }
}

TEST(FaultInjection, RetryExhaustionPropagatesFromThreadedDriver) {
  FaultPlan plan;
  plan.overrides.push_back(EdgeOverride{0, 1, EdgePolicy{.drop = 1.0}});
  Config cfg{.num_ranks = 3, .driver = DriverKind::kThreaded};
  cfg.fault_plan = plan;
  cfg.retry = comm::RetryConfig{.max_retries = 3,
                                .initial_backoff_ticks = 1,
                                .max_backoff_ticks = 2};
  Environment env(cfg);
  std::vector<HandlerId> h(3);
  for (int r = 0; r < 3; ++r) {
    h[static_cast<std::size_t>(r)] = env.comm(r).register_handler(
        "x", [](int, serial::InArchive& ar) { ar.read<std::uint8_t>(); });
  }
  EXPECT_THROW(env.execute_phase([&](int rank) {
    if (rank == 0) env.comm(0).async(1, h[0], std::uint8_t{1});
  }),
               TransportError);
}

// A rank that spins while its destination is not polling (a descheduled
// thread) must not spend the retry budget alone: after the first
// retransmission, each attempt waits for the destination's next poll.
TEST(FaultInjection, RetryBudgetCountsOnlyAttemptsTheDestinationPolledFor) {
  FaultPlan plan;
  plan.overrides.push_back(EdgeOverride{0, 1, EdgePolicy{.drop = 1.0}});
  Config cfg{.num_ranks = 2};
  cfg.fault_plan = plan;
  cfg.retry = comm::RetryConfig{.max_retries = 4,
                                .initial_backoff_ticks = 1,
                                .max_backoff_ticks = 1};
  Environment env(cfg);
  std::vector<HandlerId> h(2);
  for (int r = 0; r < 2; ++r) {
    h[static_cast<std::size_t>(r)] = env.comm(r).register_handler(
        "x", [](int, serial::InArchive& ar) { ar.read<std::uint8_t>(); });
  }
  env.comm(0).async(1, h[0], std::uint8_t{1});
  env.comm(0).flush();

  for (int i = 0; i < 100; ++i) env.comm(0).process_available();
  EXPECT_EQ(env.comm(0).transport_counters().retransmits, 1u);

  // Once rank 1 polls between attempts, every attempt counts again.
  try {
    for (int i = 0; i < 100; ++i) {
      env.comm(1).process_available();
      env.comm(0).process_available();
    }
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.source(), 0);
    EXPECT_EQ(e.dest(), 1);
    EXPECT_EQ(e.attempts(), 4u);
  }
}

// ---------------------------------------------------------------------------
// Engine-visible path: a failed channel aborts the DNND build with the
// phase name attached instead of spinning in the barrier.
// ---------------------------------------------------------------------------

struct L2Fn {
  float operator()(std::span<const float> a, std::span<const float> b) const {
    return core::l2(a, b);
  }
};

// ---------------------------------------------------------------------------
// Crash-stop faults: scheduling, World liveness, heartbeat detection.
// ---------------------------------------------------------------------------

TEST(CrashFault, PlanWithCrashesIsNotEmpty) {
  FaultPlan plan;
  plan.crashes.push_back(mpi::CrashFault{.rank = 1, .at_tick = 10});
  EXPECT_FALSE(plan.empty());
}

TEST(CrashFault, OutOfRangeRankRejected) {
  FaultPlan plan;
  plan.crashes.push_back(mpi::CrashFault{.rank = 7, .at_tick = 10});
  EXPECT_THROW(mpi::FaultInjector(plan, 4), std::invalid_argument);
  plan.crashes.front().rank = -1;
  EXPECT_THROW(mpi::FaultInjector(plan, 4), std::invalid_argument);
}

TEST(World, KillRankBlackholesBothDirections) {
  mpi::World world(3);
  EXPECT_TRUE(world.alive(1));
  EXPECT_EQ(world.first_dead(), -1);

  world.kill_rank(1);
  EXPECT_FALSE(world.alive(1));
  EXPECT_TRUE(world.alive(0));
  EXPECT_EQ(world.first_dead(), 1);

  // To a dead rank: swallowed (its mailbox stays empty).
  world.post(1, mpi::Datagram{.source = 0, .message_count = 1});
  mpi::Datagram out;
  EXPECT_FALSE(world.try_collect(1, out));
  // From a dead rank: swallowed before it reaches a live mailbox.
  world.post(0, mpi::Datagram{.source = 1, .message_count = 1});
  EXPECT_FALSE(world.try_collect(0, out));
  // Live pairs keep flowing.
  world.post(2, mpi::Datagram{.source = 0, .message_count = 1});
  EXPECT_TRUE(world.try_collect(2, out));
  EXPECT_EQ(out.source, 0);
}

TEST(World, KillRankDiscardsItsQueuedMail) {
  mpi::World world(2);
  world.post(1, mpi::Datagram{.source = 0, .message_count = 1});
  world.kill_rank(1);
  mpi::Datagram out;
  EXPECT_FALSE(world.try_collect(1, out));
}

// RankFailureError is deliberately NOT a TransportError: retry wrappers
// that absorb transport faults must never absorb a rank death.
static_assert(
    !std::is_base_of_v<comm::TransportError, comm::RankFailureError>);
static_assert(std::is_base_of_v<std::runtime_error, comm::RankFailureError>);

TEST(CrashFault, ScheduledCrashRaisesStructuredRankFailure) {
  FaultPlan plan;
  // Crash tick 2: rank 1 dies after collecting two datagrams, with the
  // rest of its inbound stream stranded (the small send buffer forces
  // several datagrams per pair, so the stream is still in flight).
  plan.crashes.push_back(mpi::CrashFault{.rank = 1, .at_tick = 2});
  Config cfg{.num_ranks = 3};
  cfg.send_buffer_bytes = 64;
  cfg.fault_plan = plan;
  Environment env(cfg);
  ASSERT_TRUE(env.comm(0).detecting_failures());

  std::vector<HandlerId> h(3);
  for (int r = 0; r < 3; ++r) {
    h[static_cast<std::size_t>(r)] = env.comm(r).register_handler(
        "x", [](int, serial::InArchive& ar) { ar.read<std::uint32_t>(); });
  }
  try {
    env.execute_phase([&](int rank) {
      for (int dest = 0; dest < 3; ++dest) {
        if (dest == rank) continue;
        for (std::uint32_t i = 0; i < 32; ++i) {
          env.comm(rank).async(dest, h[static_cast<std::size_t>(rank)], i);
        }
      }
    });
    FAIL() << "expected RankFailureError";
  } catch (const comm::RankFailureError& e) {
    EXPECT_EQ(e.failed_rank(), 1);
    EXPECT_NE(e.detected_by(), 1) << "a dead rank cannot accuse anyone";
    EXPECT_GE(e.epoch(), 1u);
    EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(env.fault_stats().crashes_triggered, 1u);
  EXPECT_FALSE(env.world().alive(1));
}

TEST(CrashFault, NeverFiringCrashKeepsDeliveryExactDespiteHeartbeats) {
  // A crash scheduled far beyond the run enables the heartbeat detector
  // without ever firing: the workload must stay exactly-once and quiesce.
  FaultPlan plan;
  plan.crashes.push_back(
      mpi::CrashFault{.rank = 1, .at_tick = 50'000'000});
  Config cfg{.num_ranks = 4};
  cfg.send_buffer_bytes = 96;
  cfg.fault_plan = plan;
  // The heartbeat clock advances once per process_available round and a
  // small all-to-all can drain in a single round — period 1 guarantees a
  // beat flows on every round, including the only one.
  cfg.heartbeat_period_ticks = 1;
  Environment env(cfg);
  ASSERT_TRUE(env.comm(0).detecting_failures());

  std::atomic<std::uint64_t> sum{0};
  std::vector<HandlerId> h(4);
  for (int r = 0; r < 4; ++r) {
    h[static_cast<std::size_t>(r)] = env.comm(r).register_handler(
        "acc", [&](int, serial::InArchive& ar) {
          sum.fetch_add(ar.read<std::uint32_t>(), std::memory_order_relaxed);
        });
  }
  env.execute_phase([&](int rank) {
    for (int dest = 0; dest < 4; ++dest) {
      if (dest == rank) continue;
      for (std::uint32_t i = 1; i <= 64; ++i) {
        env.comm(rank).async(dest, h[static_cast<std::size_t>(rank)], i);
      }
    }
  });
  EXPECT_TRUE(env.world().quiescent());
  const auto transport = env.aggregate_transport_counters();
  EXPECT_EQ(sum.load(), expected_sum(4, 64));
  EXPECT_GT(transport.heartbeats_sent, 0u);
  EXPECT_EQ(transport.heartbeats_missed, 0u);
  EXPECT_EQ(env.fault_stats().crashes_triggered, 0u);
}

TEST(CrashFault, StalledRankIsNotAccusedOfDeath) {
  // Stalls blank a rank's mailbox but the rank keeps heartbeating once it
  // wakes; with generous stall lengths below the failure timeout, no
  // failure may be reported.
  FaultPlan plan;
  plan.seed = 0x57a11;
  plan.stall = 0.05;
  plan.max_stall_ticks = 12;
  plan.crashes.push_back(
      mpi::CrashFault{.rank = 2, .at_tick = 50'000'000});
  const auto r = run_exactly_once(plan, DriverKind::kSequential);
  EXPECT_EQ(r.sum, expected_sum(4, 64));
  EXPECT_GT(r.faults.stalls_entered, 0u);
  EXPECT_EQ(r.faults.crashes_triggered, 0u);
}

TEST(CrashFault, ThreadedDriverPropagatesRankFailure) {
  FaultPlan plan;
  plan.crashes.push_back(mpi::CrashFault{.rank = 2, .at_tick = 5});
  Config cfg{.num_ranks = 3, .driver = DriverKind::kThreaded};
  cfg.fault_plan = plan;
  Environment env(cfg);
  std::vector<HandlerId> h(3);
  for (int r = 0; r < 3; ++r) {
    h[static_cast<std::size_t>(r)] = env.comm(r).register_handler(
        "x", [](int, serial::InArchive& ar) { ar.read<std::uint32_t>(); });
  }
  EXPECT_THROW(env.execute_phase([&](int rank) {
    for (int dest = 0; dest < 3; ++dest) {
      if (dest == rank) continue;
      for (std::uint32_t i = 0; i < 32; ++i) {
        env.comm(rank).async(dest, h[static_cast<std::size_t>(rank)], i);
      }
    }
  }),
               comm::RankFailureError);
  EXPECT_FALSE(env.world().alive(2));
}

TEST(CrashFault, DetectionOffFallsBackToRetryExhaustion) {
  // Forcing detection off (kFailureDetectionOff) restores the PR 1
  // behaviour: a dead peer eventually surfaces as retry exhaustion.
  FaultPlan plan;
  plan.crashes.push_back(mpi::CrashFault{.rank = 1, .at_tick = 1});
  Config cfg{.num_ranks = 2};
  cfg.fault_plan = plan;
  cfg.failure_timeout_ticks = comm::kFailureDetectionOff;
  cfg.retry = comm::RetryConfig{.max_retries = 4,
                                .initial_backoff_ticks = 1,
                                .max_backoff_ticks = 4};
  Environment env(cfg);
  EXPECT_FALSE(env.comm(0).detecting_failures());
  std::vector<HandlerId> h(2);
  for (int r = 0; r < 2; ++r) {
    h[static_cast<std::size_t>(r)] = env.comm(r).register_handler(
        "x", [](int, serial::InArchive& ar) { ar.read<std::uint8_t>(); });
  }
  EXPECT_THROW(env.execute_phase([&](int rank) {
    if (rank == 0) env.comm(0).async(1, h[0], std::uint8_t{1});
  }),
               TransportError);
}

TEST(FaultInjection, DnndBuildSurfacesTransportErrorWithPhase) {
  data::MixtureSpec spec;
  spec.dim = 4;
  spec.num_clusters = 4;
  spec.seed = 3;
  const auto points = data::GaussianMixture(spec).sample(64, 1);

  FaultPlan plan;
  plan.overrides.push_back(EdgeOverride{0, 1, EdgePolicy{.drop = 1.0}});
  Config cfg{.num_ranks = 2};
  cfg.fault_plan = plan;
  cfg.retry = comm::RetryConfig{.max_retries = 3,
                                .initial_backoff_ticks = 1,
                                .max_backoff_ticks = 2};
  Environment env(cfg);
  core::DnndConfig dcfg;
  dcfg.k = 4;
  core::DnndRunner<float, L2Fn> runner(env, dcfg, L2Fn{});
  runner.distribute(points);
  try {
    runner.build();
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("DNND phase"), std::string::npos)
        << e.what();
    EXPECT_EQ(e.source(), 0);
    EXPECT_EQ(e.dest(), 1);
  }
}

}  // namespace
