// Memory-ledger tests: tag interning and current/peak semantics, the
// lock-free add/sub path under a thread hammer (the TSan leg exercises
// the CAS-max peak loop), cross-rank merge associativity, the
// CountingAllocator container contract (including the retag() trick that
// relies on propagate_on_container_copy_assignment = false), subsystem
// accounting through FeatureStore / NeighborList, and
// the ledger-vs-RSS sanity bound against /proc ground truth.
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "comm/environment.hpp"
#include "core/feature_store.hpp"
#include "core/neighbor_list.hpp"
#include "telemetry/memory.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using dnnd::telemetry::CountingAllocator;
using dnnd::telemetry::MemoryLedger;
using dnnd::telemetry::MemTag;

// ---------------------------------------------------------------------------
// Ledger semantics
// ---------------------------------------------------------------------------

TEST(MemoryLedgerUnit, TagInternsByName) {
  MemoryLedger ledger;
  const auto a = ledger.tag("mem.a");
  const auto b = ledger.tag("mem.b");
  EXPECT_NE(a, b);
  EXPECT_EQ(ledger.tag("mem.a"), a);  // register-or-lookup
  EXPECT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ledger.current_bytes("mem.unknown"), 0);
}

TEST(MemoryLedgerUnit, CurrentTracksSignedChargesPeakIsMonotone) {
  MemoryLedger ledger;
  const auto id = ledger.tag("mem.t");
  ledger.add(id, 100);
  ledger.add(id, 50);
  EXPECT_EQ(ledger.current_bytes("mem.t"), 150);
  EXPECT_EQ(ledger.peak_bytes("mem.t"), 150);

  ledger.sub(id, 120);
  EXPECT_EQ(ledger.current_bytes("mem.t"), 30);
  EXPECT_EQ(ledger.peak_bytes("mem.t"), 150);  // peak never retreats

  ledger.add(id, 60);  // 90 < old peak: peak unchanged
  EXPECT_EQ(ledger.peak_bytes("mem.t"), 150);
  ledger.add(id, 100);  // 190 > old peak
  EXPECT_EQ(ledger.peak_bytes("mem.t"), 190);
}

TEST(MemoryLedgerUnit, ResetZeroesValuesButKeepsTags) {
  MemoryLedger ledger;
  const auto id = ledger.tag("mem.t");
  ledger.add(id, 42);
  ledger.reset();
  EXPECT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger.current_bytes("mem.t"), 0);
  EXPECT_EQ(ledger.peak_bytes("mem.t"), 0);
  ledger.add(id, 7);  // pre-reset ids still charge the same tag
  EXPECT_EQ(ledger.current_bytes("mem.t"), 7);
}

// The concurrency contract: charges from pool workers must neither lose
// bytes nor lose a high-water observation. Each thread holds at most one
// byte at a time during the loop and leaves one byte charged, so at the
// end current == kThreads exactly and peak lies in [kThreads, 2*kThreads]
// (any tighter bound would depend on the schedule).
TEST(MemoryLedgerUnit, ConcurrentChargesPreserveSumAndPeakBounds) {
  MemoryLedger ledger;
  const auto id = ledger.tag("mem.hammer");
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ledger, id] {
      for (int i = 0; i < kIters; ++i) {
        ledger.add(id, 1);
        ledger.sub(id, 1);
      }
      ledger.add(id, 1);
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(ledger.current_bytes("mem.hammer"), kThreads);
  EXPECT_GE(ledger.peak_bytes("mem.hammer"), kThreads);
  EXPECT_LE(ledger.peak_bytes("mem.hammer"), 2 * kThreads);
}

// ---------------------------------------------------------------------------
// Cross-rank merge
// ---------------------------------------------------------------------------

std::string readings_json(const MemoryLedger& ledger) {
  std::ostringstream os;
  ledger.for_each([&](const std::string& name, std::int64_t cur,
                      std::int64_t peak) {
    os << name << '=' << cur << '/' << peak << ';';
  });
  return os.str();
}

TEST(MemoryLedgerUnit, MergeSumsByNameAndIsAssociative) {
  const auto make = [](std::int64_t a_bytes, std::int64_t b_bytes) {
    MemoryLedger ledger;
    const auto a = ledger.tag("mem.a");
    ledger.add(a, 2 * a_bytes);
    ledger.sub(a, a_bytes);  // peak 2x, current 1x
    ledger.add(ledger.tag("mem.b"), b_bytes);
    return ledger;
  };
  const auto a = make(10, 1);
  const auto b = make(20, 2);
  const auto c = make(40, 4);

  MemoryLedger left = a;  // (a + b) + c
  left.merge(b);
  left.merge(c);
  MemoryLedger bc = b;  // a + (b + c)
  bc.merge(c);
  MemoryLedger right = a;
  right.merge(bc);

  EXPECT_EQ(readings_json(left), readings_json(right));
  EXPECT_EQ(left.current_bytes("mem.a"), 70);
  EXPECT_EQ(left.peak_bytes("mem.a"), 140);  // peaks sum (upper bound)
  EXPECT_EQ(left.current_bytes("mem.b"), 7);
}

TEST(MemoryLedgerUnit, MergeAdoptsUnknownTags) {
  MemoryLedger a, b;
  a.add(a.tag("mem.only_a"), 1);
  b.add(b.tag("mem.only_b"), 2);
  a.merge(b);
  EXPECT_EQ(a.current_bytes("mem.only_a"), 1);
  EXPECT_EQ(a.current_bytes("mem.only_b"), 2);
}

// ---------------------------------------------------------------------------
// CountingAllocator container contract
// ---------------------------------------------------------------------------

TEST(CountingAllocatorUnit, VectorChargesAndDischargesItsTag) {
  MemoryLedger ledger;
  const MemTag tag(&ledger, ledger.tag("mem.vec"));
  {
    std::vector<int, CountingAllocator<int>> v{CountingAllocator<int>(tag)};
    v.reserve(100);
    EXPECT_EQ(ledger.current_bytes("mem.vec"),
              static_cast<std::int64_t>(100 * sizeof(int)));
    v.assign(100, 7);
    EXPECT_EQ(v.size(), 100u);
  }
  // Destruction returns every charged byte.
  EXPECT_EQ(ledger.current_bytes("mem.vec"), 0);
  EXPECT_GE(ledger.peak_bytes("mem.vec"),
            static_cast<std::int64_t>(100 * sizeof(int)));
}

TEST(CountingAllocatorUnit, MoveKeepsChargeWithStorage) {
  MemoryLedger ledger;
  const MemTag tag(&ledger, ledger.tag("mem.vec"));
  std::vector<int, CountingAllocator<int>> a{CountingAllocator<int>(tag)};
  a.assign(64, 1);
  const auto charged = ledger.current_bytes("mem.vec");
  // POCMA=true: the move hands both storage and the tagged allocator to
  // the destination — no double count, no orphaned charge.
  std::vector<int, CountingAllocator<int>> b = std::move(a);
  EXPECT_EQ(ledger.current_bytes("mem.vec"), charged);
  b.clear();
  b.shrink_to_fit();
  EXPECT_EQ(ledger.current_bytes("mem.vec"), 0);
}

TEST(CountingAllocatorUnit, RetagMovesExistingContentsOntoTag) {
  MemoryLedger ledger;
  const MemTag tag(&ledger, ledger.tag("mem.retagged"));
  std::vector<int, CountingAllocator<int>> v;  // untagged pass-through
  v.assign(256, 9);
  EXPECT_EQ(ledger.current_bytes("mem.retagged"), 0);

  // retag copies into tagged storage (POCCA=false keeps the destination's
  // tagged allocator through the copy assignment) and moves back.
  dnnd::telemetry::retag(v, tag);
  ASSERT_EQ(v.size(), 256u);
  EXPECT_EQ(v[0], 9);
  EXPECT_GE(ledger.current_bytes("mem.retagged"),
            static_cast<std::int64_t>(256 * sizeof(int)));
  v = {};
  v.shrink_to_fit();
  EXPECT_EQ(ledger.current_bytes("mem.retagged"), 0);
}

// ---------------------------------------------------------------------------
// Subsystem accounting: the big owners carry their tags correctly
// ---------------------------------------------------------------------------

TEST(SubsystemAccounting, FeatureStoreChargesValuesOffsetsAndIndex) {
  MemoryLedger ledger;
  const MemTag tag(&ledger, ledger.tag("mem.features"));
  dnnd::core::FeatureStore<float> store;
  store.set_mem_tag(tag);
  const std::vector<float> row(16, 1.5f);
  for (std::uint64_t id = 0; id < 100; ++id) store.add(id, row);

  // At minimum the 100x16 floats; offsets and the id index ride on top.
  EXPECT_GE(ledger.current_bytes("mem.features"),
            static_cast<std::int64_t>(100 * 16 * sizeof(float)));
}

TEST(SubsystemAccounting, NeighborListChargesItsHeap) {
  MemoryLedger ledger;
  const MemTag tag(&ledger, ledger.tag("mem.graph"));
  {
    dnnd::core::NeighborList list(32, tag);
    EXPECT_GE(ledger.current_bytes("mem.graph"),
              static_cast<std::int64_t>(32 * sizeof(dnnd::core::Neighbor)));
    for (std::uint64_t id = 0; id < 32; ++id) {
      list.update(id, static_cast<float>(id), true);
    }
    EXPECT_TRUE(list.full());
  }
  EXPECT_EQ(ledger.current_bytes("mem.graph"), 0);
}

// ---------------------------------------------------------------------------
// Telemetry facade and environment export
// ---------------------------------------------------------------------------

TEST(MemoryFacade, MemTagChargesIffEnabled) {
  dnnd::telemetry::Telemetry t;
  const MemTag tag = t.mem_tag("mem.test");
  tag.add(1024);
  EXPECT_TRUE(tag.attached());
  EXPECT_EQ(t.memory().current_bytes("mem.test"), 1024);
  t.sync_memory();
  EXPECT_EQ(t.metrics().gauge_value("mem.test"), 1024);
  EXPECT_EQ(t.metrics().gauge_peak("mem.test"), 1024);
  EXPECT_EQ(t.metrics().unit_of("mem.test"),
            dnnd::telemetry::MetricUnit::kBytes);
}

TEST(MemoryFacade, SyncCarriesLedgerPeakPastCurrent) {
  dnnd::telemetry::Telemetry t;
  const MemTag tag = t.mem_tag("mem.spiky");
  tag.add(1000);
  tag.sub(900);  // ledger: current 100, peak 1000
  t.sync_memory();
  // The gauge peak must reflect the ledger's high water, not merely the
  // largest value ever passed to set() — spikes between syncs survive.
  EXPECT_EQ(t.metrics().gauge_value("mem.spiky"), 100);
  EXPECT_EQ(t.metrics().gauge_peak("mem.spiky"), 1000);
}

TEST(MemoryEnvironment, MetricsJsonCarriesMemGaugesWhenEnabled) {
  dnnd::comm::Config cfg;
  cfg.num_ranks = 2;
  dnnd::comm::Environment env(cfg);
  env.quiesce();
  std::ostringstream os;
  env.write_metrics_json(os);
  const std::string doc = os.str();
  // Communicator-owned tags register at construction; the process gauges
  // come from /proc via sync_memory_gauges.
  EXPECT_NE(doc.find("\"mem.comm.mailbox\""), std::string::npos);
  EXPECT_NE(doc.find("\"mem.comm.retry\""), std::string::npos);
  EXPECT_NE(doc.find("\"mem.process.rss_bytes\""), std::string::npos);
  EXPECT_NE(doc.find("\"units\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Ledger vs. process ground truth
// ---------------------------------------------------------------------------

TEST(ProcessMemory, TaggedBytesAreBoundedByMeasuredRss) {
  const auto before = dnnd::telemetry::read_process_memory();
  if (before.rss_bytes == 0) GTEST_SKIP() << "/proc not available";
  EXPECT_GE(before.peak_rss_bytes, before.rss_bytes);

  // Charge a real 8 MiB allocation against a tag and touch every page so
  // it lands in RSS. The tagged total must stay below the process RSS
  // (the ledger cannot claim more than the OS measures) and above the
  // configured floor (it must actually see the allocation).
  MemoryLedger ledger;
  const MemTag tag(&ledger, ledger.tag("mem.block"));
  constexpr std::size_t kBytes = 8u << 20;
  std::vector<char, CountingAllocator<char>> block{CountingAllocator<char>(tag)};
  block.assign(kBytes, 1);
  const auto after = dnnd::telemetry::read_process_memory();

  const std::int64_t tagged = ledger.current_bytes("mem.block");
  EXPECT_GE(tagged, static_cast<std::int64_t>(kBytes));  // the floor
  EXPECT_LE(tagged, after.rss_bytes);                    // the ceiling
  EXPECT_GE(after.peak_rss_bytes, before.peak_rss_bytes);
}

}  // namespace
