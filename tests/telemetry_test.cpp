// Unit tests for the telemetry layer: LogHistogram bucket layout,
// MetricsRegistry counter/gauge/histogram semantics, cross-rank merge
// (associativity, by-name matching, kind-conflict strong guarantee), and
// the reset-keeps-registry contract mirrored from MessageStats, and the
// per-rank Telemetry facade that forwards to them.
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using dnnd::telemetry::LogHistogram;
using dnnd::telemetry::MetricsRegistry;

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

std::string registry_json(const MetricsRegistry& reg) {
  std::ostringstream os;
  reg.write_json(os);
  return os.str();
}

// ---------------------------------------------------------------------------
// LogHistogram bucket layout
// ---------------------------------------------------------------------------

TEST(LogHistogramUnit, BucketIndexIsBitWidth) {
  EXPECT_EQ(LogHistogram::bucket_index(0), 0u);
  EXPECT_EQ(LogHistogram::bucket_index(1), 1u);
  EXPECT_EQ(LogHistogram::bucket_index(2), 2u);
  EXPECT_EQ(LogHistogram::bucket_index(3), 2u);
  EXPECT_EQ(LogHistogram::bucket_index(4), 3u);
  EXPECT_EQ(LogHistogram::bucket_index(255), 8u);
  EXPECT_EQ(LogHistogram::bucket_index(256), 9u);
  EXPECT_EQ(LogHistogram::bucket_index(std::uint64_t{1} << 63), 64u);
  EXPECT_EQ(LogHistogram::bucket_index(kU64Max), 64u);
}

TEST(LogHistogramUnit, BucketRangesTileTheDomain) {
  // Bucket 0 is exactly {0}; bucket i covers [2^(i-1), 2^i - 1]; the top
  // bucket's upper bound saturates at UINT64_MAX instead of wrapping.
  EXPECT_EQ(LogHistogram::bucket_lower(0), 0u);
  EXPECT_EQ(LogHistogram::bucket_upper(0), 0u);
  for (std::size_t i = 1; i < LogHistogram::kNumBuckets; ++i) {
    EXPECT_EQ(LogHistogram::bucket_lower(i),
              LogHistogram::bucket_upper(i - 1) + 1)
        << "gap/overlap at bucket " << i;
    EXPECT_EQ(LogHistogram::bucket_index(LogHistogram::bucket_lower(i)), i);
    EXPECT_EQ(LogHistogram::bucket_index(LogHistogram::bucket_upper(i)), i);
  }
  EXPECT_EQ(LogHistogram::bucket_upper(64), kU64Max);
}

TEST(LogHistogramUnit, RecordTracksCountSumMinMax) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_GT(h.min(), h.max());  // the documented "empty" signature

  h.record(0);
  h.record(7);
  h.record(kU64Max);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), kU64Max);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(3), 1u);   // 7 has bit width 3
  EXPECT_EQ(h.bucket(64), 1u);  // max lands in the saturating top bucket
}

TEST(LogHistogramUnit, RecordClampedHandlesEdgeDoubles) {
  LogHistogram h;
  h.record_clamped(-3.5);  // negatives clamp to 0
  h.record_clamped(0.25);  // sub-1 values clamp to 0
  h.record_clamped(std::numeric_limits<double>::infinity());
  h.record_clamped(1e300);  // >= 2^64 saturates like +inf
  h.record_clamped(std::numeric_limits<double>::quiet_NaN());  // dropped
  h.record_clamped(6.9);  // truncates to 6

  EXPECT_EQ(h.count(), 5u);  // NaN is not counted
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(64), 2u);
  EXPECT_EQ(h.bucket(3), 1u);  // 6 has bit width 3
}

TEST(LogHistogramUnit, MergeIsBucketwiseSum) {
  LogHistogram a, b;
  a.record(1);
  a.record(100);
  b.record(100);
  b.record(kU64Max);

  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), kU64Max);
  EXPECT_EQ(a.bucket(LogHistogram::bucket_index(100)), 2u);

  // Merging an empty histogram must not disturb min/max.
  LogHistogram empty;
  a.merge(empty);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), kU64Max);
}

// ---------------------------------------------------------------------------
// MetricsRegistry semantics
// ---------------------------------------------------------------------------

TEST(MetricsRegistryUnit, CounterAddsAccumulate) {
  MetricsRegistry reg;
  const auto id = reg.counter("sends");
  reg.add(id);
  reg.add(id, 41);
  EXPECT_EQ(reg.counter_value("sends"), 42u);
}

TEST(MetricsRegistryUnit, GaugeTracksValueAndPeak) {
  MetricsRegistry reg;
  const auto id = reg.gauge("depth");
  reg.set(id, 3);
  reg.set(id, 10);
  reg.set(id, 2);
  EXPECT_EQ(reg.gauge_value("depth"), 2);
  EXPECT_EQ(reg.gauge_peak("depth"), 10);
}

TEST(MetricsRegistryUnit, RegisterIsIdempotentPerKind) {
  MetricsRegistry reg;
  const auto a = reg.counter("x");
  const auto b = reg.counter("x");
  EXPECT_EQ(a, b);  // register-or-lookup
  EXPECT_EQ(reg.size(), 1u);
  // Same name, different kind: programming error.
  EXPECT_THROW((void)reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("x"), std::invalid_argument);
  // Reading with the wrong kind throws too; unknown names are out_of_range.
  EXPECT_THROW((void)reg.gauge_value("x"), std::invalid_argument);
  EXPECT_THROW((void)reg.counter_value("nope"), std::out_of_range);
}

TEST(MetricsRegistryUnit, HistogramRecordsThroughRegistry) {
  MetricsRegistry reg;
  const auto id = reg.histogram("lat");
  reg.record(id, 5);
  reg.record_clamped(id, 2.5);
  const auto& h = reg.histogram_of("lat");
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket(3), 1u);  // 5
  EXPECT_EQ(h.bucket(2), 1u);  // 2
}

TEST(MetricsRegistryUnit, MergeMatchesByNameAcrossOrders) {
  // Rank A registers (c, g); rank B registers (g, c) — positional merge
  // would corrupt both, name-based merge must not care.
  MetricsRegistry a, b;
  const auto ac = a.counter("c");
  const auto ag = a.gauge("g");
  const auto bg = b.gauge("g");
  const auto bc = b.counter("c");
  a.add(ac, 10);
  a.set(ag, 5);
  b.add(bc, 7);
  b.set(bg, 9);

  a.merge(b);
  EXPECT_EQ(a.counter_value("c"), 17u);
  EXPECT_EQ(a.gauge_value("g"), 9);  // max across ranks
  EXPECT_EQ(a.gauge_peak("g"), 9);
}

TEST(MetricsRegistryUnit, MergeAdoptsUnknownNames) {
  MetricsRegistry a, b;
  a.add(a.counter("only_a"), 1);
  b.add(b.counter("only_b"), 2);
  a.merge(b);
  EXPECT_EQ(a.counter_value("only_a"), 1u);
  EXPECT_EQ(a.counter_value("only_b"), 2u);
}

TEST(MetricsRegistryUnit, MergeIsAssociative) {
  // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) for every kind at once, compared via the
  // canonical JSON form (registration order is a-then-b-then-c in both
  // groupings, so a byte compare is meaningful).
  const auto make = [](std::uint64_t c, std::int64_t g, std::uint64_t h) {
    MetricsRegistry r;
    r.add(r.counter("c"), c);
    r.set(r.gauge("g"), g);
    r.record(r.histogram("h"), h);
    return r;
  };
  const auto a = make(1, 10, 100);
  const auto b = make(2, 30, 100);
  const auto c = make(4, 20, 7);

  MetricsRegistry left = a;  // (a + b) + c
  left.merge(b);
  left.merge(c);
  MetricsRegistry bc = b;  // a + (b + c)
  bc.merge(c);
  MetricsRegistry right = a;
  right.merge(bc);

  EXPECT_EQ(registry_json(left), registry_json(right));
  EXPECT_EQ(left.counter_value("c"), 7u);
  EXPECT_EQ(left.gauge_value("g"), 30);
  EXPECT_EQ(left.histogram_of("h").count(), 3u);
}

TEST(MetricsRegistryUnit, MergeKindConflictThrowsWithoutMutating) {
  MetricsRegistry dst;
  dst.add(dst.counter("m"), 5);
  dst.add(dst.counter("n"), 1);

  // src agrees on "n" but registered "m" as a gauge. The merge must throw
  // AND leave dst byte-identical — in particular "n" must not have been
  // merged before the conflict on "m" was discovered.
  MetricsRegistry src;
  src.add(src.counter("n"), 100);
  src.set(src.gauge("m"), 9);

  const std::string before = registry_json(dst);
  EXPECT_THROW(dst.merge(src), std::invalid_argument);
  EXPECT_EQ(registry_json(dst), before);
  EXPECT_EQ(dst.counter_value("n"), 1u);
}

TEST(MetricsRegistryUnit, ResetKeepsRegistry) {
  MetricsRegistry reg;
  const auto c = reg.counter("c");
  const auto g = reg.gauge("g");
  const auto h = reg.histogram("h");
  reg.add(c, 3);
  reg.set(g, 7);
  reg.record(h, 11);

  reg.reset();
  EXPECT_EQ(reg.size(), 3u);  // names and ids survive
  EXPECT_TRUE(reg.contains("c"));
  EXPECT_EQ(reg.counter_value("c"), 0u);
  EXPECT_EQ(reg.gauge_value("g"), 0);
  EXPECT_EQ(reg.histogram_of("h").count(), 0u);

  // The pre-reset ids still record into the same metrics.
  reg.add(c, 2);
  EXPECT_EQ(reg.counter_value("c"), 2u);
}

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

TEST(TelemetryFacade, RecordsIffEnabled) {
  dnnd::telemetry::Telemetry t;
  const auto id = t.counter("facade.hits");
  t.add(id, 3);
  {
    const auto span = t.span("unit", "test");
  }
  EXPECT_EQ(t.metrics().counter_value("facade.hits"), 3u);
  ASSERT_EQ(t.trace().size(), 1u);
  EXPECT_EQ(t.trace().events()[0].name, "unit");
}

}  // namespace
