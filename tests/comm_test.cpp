// Unit tests for the asynchronous communication layer: handler dispatch,
// buffering, statistics, and both phase drivers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/environment.hpp"

namespace {

using dnnd::comm::Communicator;
using dnnd::comm::Config;
using dnnd::comm::DriverKind;
using dnnd::comm::Environment;
using dnnd::comm::HandlerId;
using dnnd::comm::MessageStats;

TEST(Communicator, DeliversAsyncCallWithArguments) {
  Environment env(Config{.num_ranks = 2});
  std::uint32_t received = 0;
  int source = -1;
  // Handlers must be registered on all ranks in the same order.
  std::vector<HandlerId> ids;
  for (int r = 0; r < 2; ++r) {
    ids.push_back(env.comm(r).register_handler(
        "probe", [&, r](int src, dnnd::serial::InArchive& ar) {
          received = ar.read<std::uint32_t>();
          source = src;
          EXPECT_EQ(r, 1);  // only rank 1 should run it
        }));
  }
  env.execute_phase([&](int rank) {
    if (rank == 0) env.comm(0).async(1, ids[0], std::uint32_t{77});
  });
  EXPECT_EQ(received, 77u);
  EXPECT_EQ(source, 0);
}

TEST(Communicator, SelfSendIsDeliveredAndCountedLocal) {
  Environment env(Config{.num_ranks = 1});
  int calls = 0;
  const HandlerId h = env.comm(0).register_handler(
      "self", [&](int, dnnd::serial::InArchive& ar) {
        ar.read<std::uint8_t>();
        ++calls;
      });
  env.execute_phase([&](int) { env.comm(0).async(0, h, std::uint8_t{1}); });
  EXPECT_EQ(calls, 1);
  const auto& counters = env.comm(0).stats().handler(h);
  EXPECT_EQ(counters.local_messages, 1u);
  EXPECT_EQ(counters.remote_messages, 0u);
}

TEST(Communicator, HandlersCanSendFollowUps) {
  // A → B → C chain within one barrier.
  Environment env(Config{.num_ranks = 3});
  std::vector<HandlerId> hop(3), sink(3);
  int arrived = 0;
  for (int r = 0; r < 3; ++r) {
    hop[r] = env.comm(r).register_handler(
        "hop", [&env, &sink, r](int, dnnd::serial::InArchive& ar) {
          const auto payload = ar.read<std::uint32_t>();
          env.comm(r).async(2, sink[r], payload);
        });
    sink[r] = env.comm(r).register_handler(
        "sink", [&](int, dnnd::serial::InArchive& ar) {
          EXPECT_EQ(ar.read<std::uint32_t>(), 5u);
          ++arrived;
        });
  }
  env.execute_phase([&](int rank) {
    if (rank == 0) env.comm(0).async(1, hop[0], std::uint32_t{5});
  });
  EXPECT_EQ(arrived, 1);
}

TEST(Communicator, BuffersUntilThresholdThenFlushes) {
  Config cfg{.num_ranks = 2};
  cfg.send_buffer_bytes = 1024;  // large: nothing flushes on its own
  Environment env(cfg);
  const HandlerId h0 = env.comm(0).register_handler(
      "noop", [](int, dnnd::serial::InArchive& ar) { ar.read<std::uint8_t>(); });
  (void)env.comm(1).register_handler(
      "noop", [](int, dnnd::serial::InArchive& ar) { ar.read<std::uint8_t>(); });

  env.comm(0).async(1, h0, std::uint8_t{1});
  env.comm(0).async(1, h0, std::uint8_t{2});
  // Buffered, not yet posted: no datagram on the wire.
  EXPECT_EQ(env.world().datagrams_posted(), 0u);
  env.comm(0).flush();
  // Both messages travel in a single datagram (YGM-style aggregation).
  EXPECT_EQ(env.world().datagrams_posted(), 1u);
  env.quiesce();
  EXPECT_TRUE(env.world().quiescent());
}

TEST(Communicator, ZeroBufferSendsImmediately) {
  Config cfg{.num_ranks = 2};
  cfg.send_buffer_bytes = 0;
  Environment env(cfg);
  const HandlerId h = env.comm(0).register_handler(
      "noop", [](int, dnnd::serial::InArchive& ar) { ar.read<std::uint8_t>(); });
  (void)env.comm(1).register_handler(
      "noop", [](int, dnnd::serial::InArchive& ar) { ar.read<std::uint8_t>(); });
  env.comm(0).async(1, h, std::uint8_t{1});
  EXPECT_EQ(env.world().datagrams_posted(), 1u);
  env.quiesce();
}

TEST(Communicator, StatsCountMessagesAndBytesPerHandler) {
  Environment env(Config{.num_ranks = 2});
  std::vector<HandlerId> big(2), small(2);
  for (int r = 0; r < 2; ++r) {
    big[r] = env.comm(r).register_handler(
        "big", [](int, dnnd::serial::InArchive& ar) { ar.read_vector<float>(); });
    small[r] = env.comm(r).register_handler(
        "small", [](int, dnnd::serial::InArchive& ar) { ar.read<std::uint8_t>(); });
  }
  env.execute_phase([&](int rank) {
    if (rank != 0) return;
    env.comm(0).async(1, big[0], std::vector<float>(100, 1.0f));
    env.comm(0).async(1, small[0], std::uint8_t{1});
    env.comm(0).async(1, small[0], std::uint8_t{2});
  });
  const auto& sb = env.comm(0).stats().handler(big[0]);
  const auto& ss = env.comm(0).stats().handler(small[0]);
  EXPECT_EQ(sb.remote_messages, 1u);
  EXPECT_EQ(ss.remote_messages, 2u);
  // big: 1B handler id + ~2B varint length + 400B floats.
  EXPECT_GT(sb.remote_bytes, 400u);
  EXPECT_LT(sb.remote_bytes, 410u);
  EXPECT_GT(sb.remote_bytes, ss.remote_bytes);
}

TEST(MessageStatsUnit, MergeAddsAndValidates) {
  MessageStats a, b;
  a.add_handler("x");
  b.add_handler("x");
  a.on_send(0, true, 10);
  b.on_send(0, true, 5);
  b.on_send(0, false, 3);
  a.merge(b);
  EXPECT_EQ(a.handler(0).remote_messages, 2u);
  EXPECT_EQ(a.handler(0).remote_bytes, 15u);
  EXPECT_EQ(a.handler(0).local_bytes, 3u);

  MessageStats c;
  c.add_handler("different");
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(MessageStatsUnit, MismatchedMergeThrowsWithoutCorruptingCounters) {
  // Labels agree at id 0 but diverge at id 1. The merge must throw AND
  // must not have merged id 0 first — a half-applied merge would silently
  // corrupt Figure-4 accounting for any caller that catches and continues.
  MessageStats a, b;
  a.add_handler("same");
  a.add_handler("x");
  b.add_handler("same");
  b.add_handler("y");
  a.on_send(0, true, 10);
  b.on_send(0, true, 99);
  b.on_send(1, false, 7);

  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_EQ(a.handler(0).remote_messages, 1u);  // not 2: id 0 untouched
  EXPECT_EQ(a.handler(0).remote_bytes, 10u);
  EXPECT_EQ(a.handler(1).local_messages, 0u);

  // Size mismatch throws too (unless one side is empty, which adopts).
  MessageStats c;
  c.add_handler("same");
  EXPECT_THROW(a.merge(c), std::invalid_argument);
  MessageStats empty;
  empty.merge(a);  // empty destination adopts the source registry
  EXPECT_EQ(empty.handler(0).remote_bytes, 10u);
}

TEST(MessageStatsUnit, ByLabelSumsAndReset) {
  MessageStats s;
  s.add_handler("t");
  s.add_handler("t");
  s.on_send(0, true, 4);
  s.on_send(1, true, 6);
  EXPECT_EQ(s.by_label("t").remote_bytes, 10u);
  EXPECT_EQ(s.total_remote_messages(), 2u);
  s.reset();
  EXPECT_EQ(s.total_remote_bytes(), 0u);
  EXPECT_EQ(s.handlers().size(), 2u);  // registry survives reset
}

TEST(Environment, AggregateStatsMergesRanks) {
  Environment env(Config{.num_ranks = 2});
  std::vector<HandlerId> h(2);
  for (int r = 0; r < 2; ++r) {
    h[r] = env.comm(r).register_handler(
        "m", [](int, dnnd::serial::InArchive& ar) { ar.read<std::uint32_t>(); });
  }
  env.execute_phase([&](int rank) {
    env.comm(rank).async(1 - rank, h[0], std::uint32_t{1});
  });
  EXPECT_EQ(env.aggregate_stats().handler(h[0]).remote_messages, 2u);
  env.reset_stats();
  EXPECT_EQ(env.aggregate_stats().total_remote_messages(), 0u);
}

// All-to-all stress through both drivers; results must agree.
class DriverParity : public ::testing::TestWithParam<DriverKind> {};

TEST_P(DriverParity, AllToAllCountsArrive) {
  constexpr int kRanks = 4;
  constexpr int kPerPair = 50;
  Config cfg{.num_ranks = kRanks, .driver = GetParam()};
  cfg.send_buffer_bytes = 64;  // force mid-phase flushes
  Environment env(cfg);

  std::vector<std::atomic<std::uint64_t>> sums(kRanks);
  std::vector<HandlerId> h(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    h[r] = env.comm(r).register_handler(
        "acc", [&sums, r](int, dnnd::serial::InArchive& ar) {
          sums[r].fetch_add(ar.read<std::uint32_t>(),
                            std::memory_order_relaxed);
        });
  }
  env.execute_phase([&](int rank) {
    for (int dest = 0; dest < kRanks; ++dest) {
      if (dest == rank) continue;
      for (std::uint32_t i = 1; i <= kPerPair; ++i) {
        env.comm(rank).async(dest, h[rank], i);
      }
    }
  });
  // Every rank receives kPerPair messages from each of the 3 others.
  const std::uint64_t expected = 3ULL * kPerPair * (kPerPair + 1) / 2;
  for (int r = 0; r < kRanks; ++r) EXPECT_EQ(sums[r].load(), expected);
  EXPECT_TRUE(env.world().quiescent());
}

INSTANTIATE_TEST_SUITE_P(Drivers, DriverParity,
                         ::testing::Values(DriverKind::kSequential,
                                           DriverKind::kThreaded),
                         [](const auto& info) {
                           return info.param == DriverKind::kSequential
                                      ? "Sequential"
                                      : "Threaded";
                         });

TEST(Communicator, MalformedHandlerReadsAreDetected) {
  // A handler that under-reads its arguments desynchronizes the datagram;
  // the dispatcher must notice rather than corrupt later messages.
  Environment env(Config{.num_ranks = 1, .send_buffer_bytes = 0});
  const HandlerId h = env.comm(0).register_handler(
      "bad", [](int, dnnd::serial::InArchive&) { /* reads nothing */ });
  env.comm(0).async(0, h, std::uint32_t{1});
  EXPECT_THROW(env.comm(0).process_available(), std::exception);
}

}  // namespace
