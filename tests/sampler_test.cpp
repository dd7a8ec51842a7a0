// Time-series Sampler tests. All tests inject a fake clock, so snapshot
// timestamps — and therefore the emitted JSON — are fully deterministic:
// the golden-bytes test below is an exact string compare.
#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "telemetry/metrics.hpp"
#include "telemetry/sampler.hpp"
#include "util/json.hpp"

namespace {

using dnnd::telemetry::MetricsRegistry;
using dnnd::telemetry::Sampler;
namespace json = dnnd::util::json;

TEST(Sampler, SnapshotsCaptureCountersAndGaugesAtSampleTime) {
  MetricsRegistry reg;
  const auto c = reg.counter("work");
  const auto g = reg.gauge("depth");

  std::uint64_t now = 1000;
  Sampler sampler([&now] { return now; });
  sampler.attach(0, &reg);

  reg.add(c, 5);
  reg.set(g, 3);
  sampler.sample("iteration");

  now = 2500;
  reg.add(c, 7);
  reg.set(g, 1);  // below the peak of 3
  sampler.sample("iteration");

  ASSERT_EQ(sampler.snapshots().size(), 2u);
  const auto& s0 = sampler.snapshots()[0];
  EXPECT_EQ(s0.t_us, 1000u);
  EXPECT_EQ(s0.seq, 1u);
  EXPECT_EQ(s0.label, "iteration");
  ASSERT_EQ(s0.ranks.size(), 1u);
  ASSERT_EQ(s0.ranks[0].counters.size(), 1u);
  EXPECT_EQ(s0.ranks[0].counters[0].first, "work");
  EXPECT_EQ(s0.ranks[0].counters[0].second, 5u);
  ASSERT_EQ(s0.ranks[0].gauges.size(), 1u);
  EXPECT_EQ(s0.ranks[0].gauges[0].second.first, 3);   // value
  EXPECT_EQ(s0.ranks[0].gauges[0].second.second, 3);  // peak

  const auto& s1 = sampler.snapshots()[1];
  EXPECT_EQ(s1.t_us, 2500u);
  EXPECT_EQ(s1.seq, 2u);
  EXPECT_EQ(s1.ranks[0].counters[0].second, 12u);      // cumulative
  EXPECT_EQ(s1.ranks[0].gauges[0].second.first, 1);    // dipped
  EXPECT_EQ(s1.ranks[0].gauges[0].second.second, 3);   // peak held
}

TEST(Sampler, WriteJsonIsByteDeterministicAndOriginRelative) {
  const auto run = [] {
    MetricsRegistry r0, r1;
    const auto c0 = r0.counter("evals");
    const auto c1 = r1.counter("evals");
    std::uint64_t now = 5000;
    Sampler sampler([&now] { return now; });
    sampler.attach(0, &r0);
    sampler.attach(1, &r1);
    r0.add(c0, 2);
    r1.add(c1, 9);
    sampler.sample("iteration");
    now = 6000;
    r0.add(c0, 1);
    sampler.sample("iteration");
    std::ostringstream os;
    sampler.write_json(os, 5000);  // origin = first sample time
    return os.str();
  };

  const std::string a = run();
  EXPECT_EQ(a, run());  // identical schedule -> identical bytes

  const std::string expected =
      "{\"schema\":\"dnnd.timeseries.v1\",\"ranks\":2,\"snapshots\":["
      "{\"t_us\":0,\"seq\":1,\"label\":\"iteration\",\"per_rank\":["
      "{\"rank\":0,\"counters\":{\"evals\":2},\"gauges\":{}},"
      "{\"rank\":1,\"counters\":{\"evals\":9},\"gauges\":{}}]},"
      "{\"t_us\":1000,\"seq\":2,\"label\":\"iteration\",\"per_rank\":["
      "{\"rank\":0,\"counters\":{\"evals\":3},\"gauges\":{}},"
      "{\"rank\":1,\"counters\":{\"evals\":9},\"gauges\":{}}]}"
      "]}";
  EXPECT_EQ(a, expected);

  // And it parses back as valid JSON with the documented shape.
  const auto doc = json::parse(a);
  EXPECT_EQ(doc.at("schema").as_string(), "dnnd.timeseries.v1");
  ASSERT_EQ(doc.at("snapshots").as_array().size(), 2u);
}

TEST(Sampler, HistogramsStayOutOfTheSeries) {
  MetricsRegistry reg;
  const auto h = reg.histogram("latency_us");
  reg.record(h, 42);
  std::uint64_t now = 1;
  Sampler sampler([&now] { return now; });
  sampler.attach(0, &reg);
  sampler.sample("iteration");
  EXPECT_TRUE(sampler.snapshots()[0].ranks[0].counters.empty());
  EXPECT_TRUE(sampler.snapshots()[0].ranks[0].gauges.empty());
}

}  // namespace
