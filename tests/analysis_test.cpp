// Offline analyzer tests: load-skew / straggler detection over a
// hand-written Chrome trace, the tolerance-based metrics diff, and the
// timeseries summary. Documents are authored as strings so each test
// pins the exact artifact shape the real exporters emit.
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "telemetry/analysis.hpp"
#include "util/json.hpp"

namespace {

using dnnd::telemetry::analyze_load;
using dnnd::telemetry::diff_metrics;
using dnnd::telemetry::summarize_timeseries;
namespace json = dnnd::util::json;

// A two-rank trace: rank 1 does 4x rank 0's work, one matched cross-rank
// flow pair plus one dangling start, and queue_us samples on the handler
// spans.
const char* kTrace = R"({"traceEvents":[
  {"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"rank 0"}},
  {"name":"sample","cat":"phase","ph":"X","ts":0,"dur":100,"pid":0,"tid":0},
  {"name":"recv.type2","cat":"handler","ph":"X","ts":150,"dur":100,"pid":0,
   "tid":0,"args":{"trace":"0x1","span":"0x2","hop":1,"src":1,"queue_us":10}},
  {"name":"barrier_wait","cat":"comm","ph":"X","ts":300,"dur":400,"pid":0,
   "tid":0},
  {"name":"type2","cat":"flow","ph":"s","ts":10,"pid":0,"tid":0,"id":"0xa"},
  {"name":"type9","cat":"flow","ph":"s","ts":11,"pid":0,"tid":0,"id":"0xdead"},
  {"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"rank 1"}},
  {"name":"sample","cat":"phase","ph":"X","ts":0,"dur":500,"pid":1,"tid":0},
  {"name":"recv.type3","cat":"handler","ph":"X","ts":600,"dur":300,"pid":1,
   "tid":0,"args":{"trace":"0x1","span":"0x3","hop":2,"src":0,"queue_us":90}},
  {"name":"recv.type2","cat":"handler","ph":"X","ts":950,"dur":0,"pid":1,
   "tid":0,"args":{"trace":"0x1","span":"0x4","hop":3,"src":0,"queue_us":20}},
  {"name":"type2","cat":"flow","ph":"f","ts":20,"pid":1,"tid":0,"id":"0xa",
   "bp":"e"}
],"displayTimeUnit":"ms"})";

TEST(AnalyzeLoad, ComputesSkewStragglersBarrierShareAndFlows) {
  const auto report = analyze_load(json::parse(kTrace), 1.25);

  ASSERT_EQ(report.ranks.size(), 2u);
  EXPECT_EQ(report.ranks[0].rank, 0);
  EXPECT_EQ(report.ranks[0].handler_us, 100u);
  EXPECT_EQ(report.ranks[0].phase_us, 100u);
  EXPECT_EQ(report.ranks[0].barrier_us, 400u);
  EXPECT_EQ(report.ranks[1].work_us(), 800u);

  // work: rank0 = 200, rank1 = 800 -> mean 500, max/mean = 1.6.
  EXPECT_DOUBLE_EQ(report.mean_work_us, 500.0);
  EXPECT_EQ(report.max_work_us, 800u);
  EXPECT_DOUBLE_EQ(report.max_over_mean, 1.6);
  ASSERT_EQ(report.stragglers.size(), 1u);
  EXPECT_EQ(report.stragglers[0], 1);

  // barrier share = 400 / (1000 + 400).
  EXPECT_NEAR(report.barrier_share, 400.0 / 1400.0, 1e-9);

  EXPECT_EQ(report.queue_samples, 3u);
  EXPECT_EQ(report.queue_p50_us, 20u);
  EXPECT_EQ(report.queue_p99_us, 90u);

  EXPECT_EQ(report.flows_started, 2u);
  EXPECT_EQ(report.flows_finished, 1u);
  EXPECT_EQ(report.flows_matched, 1u);  // 0xa; 0xdead dangles
}

TEST(AnalyzeLoad, BalancedRunFlagsNoStragglers) {
  const auto doc = json::parse(
      R"({"traceEvents":[
        {"name":"w","cat":"phase","ph":"X","ts":0,"dur":100,"pid":0,"tid":0},
        {"name":"w","cat":"phase","ph":"X","ts":0,"dur":110,"pid":1,"tid":0}
      ]})");
  const auto report = analyze_load(doc, 1.25);
  EXPECT_TRUE(report.stragglers.empty());
  EXPECT_NEAR(report.max_over_mean, 110.0 / 105.0, 1e-9);
}

std::string metrics_doc(int msgs, int bytes, int retransmits, int evals) {
  std::ostringstream os;
  os << R"({"schema":"dnnd.metrics.v1","ranks":2,"handlers":[)"
     << R"({"label":"ping","remote_messages":)" << msgs
     << R"(,"remote_bytes":)" << bytes
     << R"(,"local_messages":0,"local_bytes":0}],)"
     << R"("transport":{"retransmits":)" << retransmits
     << R"(,"duplicates_suppressed":0,"acks_sent":0,"acks_received":0},)"
     << R"("metrics":{"counters":{"engine.distance_evals":)" << evals
     << R"(,"comm.barrier_wait_us":999},"gauges":{},"histograms":{}}})";
  return os.str();
}

TEST(DiffMetrics, IdenticalDocumentsPassAtZeroTolerance) {
  const auto doc = json::parse(metrics_doc(100, 4000, 0, 5000));
  const auto report = diff_metrics(doc, doc, 0.0);
  EXPECT_TRUE(report.within_tolerance());
  EXPECT_EQ(report.violations, 0u);
  // handler row (4 fields) + transport (4) + 1 counter; the _us-suffixed
  // counter is wall-clock-valued and must be excluded from the diff.
  EXPECT_EQ(report.compared, 9u);
}

TEST(DiffMetrics, DriftBeyondToleranceFailsAndSortsViolationsFirst) {
  const auto base = json::parse(metrics_doc(100, 4000, 0, 5000));
  const auto cur = json::parse(metrics_doc(103, 4000, 0, 5000));
  EXPECT_TRUE(diff_metrics(base, cur, 5.0).within_tolerance());

  const auto report = diff_metrics(base, cur, 1.0);
  EXPECT_FALSE(report.within_tolerance());
  EXPECT_EQ(report.violations, 1u);
  ASSERT_FALSE(report.deltas.empty());
  EXPECT_TRUE(report.deltas[0].violated);  // violations sort first
  EXPECT_EQ(report.deltas[0].name, "handler.ping.remote_messages");
  EXPECT_NEAR(report.deltas[0].rel_change, 0.03, 1e-9);
}

TEST(DiffMetrics, ZeroBaselineToleratesOnlyZero) {
  const auto base = json::parse(metrics_doc(100, 4000, 0, 5000));
  const auto cur = json::parse(metrics_doc(100, 4000, 7, 5000));
  // retransmits 0 -> 7 violates at any tolerance.
  EXPECT_FALSE(diff_metrics(base, cur, 1000.0).within_tolerance());
}

TEST(DiffMetrics, CountersPresentOnOneSideOnlyViolateUnlessZero) {
  const auto base = json::parse(metrics_doc(100, 4000, 0, 5000));
  auto with_extra = [](int value) {
    std::string doc = metrics_doc(100, 4000, 0, 5000);
    const std::string needle = "\"engine.distance_evals\"";
    doc.insert(doc.find(needle),
               "\"engine.new_counter\":" + std::to_string(value) + ",");
    return json::parse(doc);
  };
  // A brand-new non-zero counter is a behaviour change...
  const auto report = diff_metrics(base, with_extra(5), 50.0);
  ASSERT_EQ(report.only_in_current.size(), 1u);
  EXPECT_EQ(report.only_in_current[0], "counter.engine.new_counter");
  EXPECT_FALSE(report.within_tolerance());
  // ...but a zero-valued one (never-hit code path) is not.
  EXPECT_TRUE(diff_metrics(base, with_extra(0), 50.0).within_tolerance());
}

// A metrics document with a units map, memory gauges, and per-rank
// registries — the post-ledger artifact shape.
std::string memory_doc(int features_peak_r0, int features_peak_r1,
                       int time_counter, int points) {
  std::ostringstream os;
  const auto rank = [&](int r, int peak) {
    os << R"({"rank":)" << r << R"(,"metrics":{"counters":{},"gauges":{)"
       << R"("mem.engine.features":{"value":)" << peak / 2 << R"(,"peak":)"
       << peak << R"(},"mem.pmem.arena.bytes":{"value":100,"peak":100}},)"
       << R"("histograms":{},"units":{"mem.engine.features":"bytes",)"
       << R"("mem.pmem.arena.bytes":"bytes"}}})";
  };
  os << R"({"schema":"dnnd.metrics.v1","ranks":2,)"
     << R"("handlers":[],"transport":{"retransmits":0},)"
     << R"("metrics":{"counters":{"engine.wall_clock":)" << time_counter
     << R"(,"engine.distance_evals":5000},"gauges":{)"
     << R"("mem.engine.features":{"value":)" << features_peak_r1 / 2
     << R"(,"peak":)" << features_peak_r0 + features_peak_r1
     << R"(},"mem.process.rss_bytes":{"value":5000,"peak":5000},)"
     << R"("mem.process.peak_rss_bytes":{"value":6000,"peak":6000},)"
     << R"("engine.global_points":{"value":)" << points << R"(,"peak":)"
     << points << R"(}},"histograms":{},"units":{)"
     << R"("mem.engine.features":"bytes",)"
     << R"("engine.wall_clock":"time_us",)"
     << R"("mem.process.rss_bytes":"observed",)"
     << R"("mem.process.peak_rss_bytes":"observed"}},"per_rank":[)";
  rank(0, features_peak_r0);
  os << ',';
  rank(1, features_peak_r1);
  os << "]}";
  return os.str();
}

TEST(DiffMetrics, UnitsMapClassifiesCountersOverNameHeuristics) {
  // "engine.wall_clock" has no _us suffix — only the units map marks it
  // as wall-clock. A drifted value must NOT violate.
  const auto base = json::parse(memory_doc(1000, 1000, 111, 100));
  const auto cur = json::parse(memory_doc(1000, 1000, 99999, 100));
  EXPECT_TRUE(diff_metrics(base, cur, 0.0).within_tolerance());
}

TEST(DiffMetrics, ByteGaugePeaksDiffAtMemTolerance) {
  const auto base = json::parse(memory_doc(1000, 1000, 1, 100));
  const auto cur = json::parse(memory_doc(1100, 1100, 1, 100));  // +10%
  // Strict counter tolerance alone would flag the byte gauges...
  EXPECT_FALSE(diff_metrics(base, cur, 0.0).within_tolerance());
  // ...the dedicated memory tolerance gives them their own leash.
  EXPECT_TRUE(diff_metrics(base, cur, 0.0, 25.0).within_tolerance());
  const auto report = diff_metrics(base, cur, 0.0, 5.0);
  EXPECT_FALSE(report.within_tolerance());
  ASSERT_FALSE(report.deltas.empty());
  EXPECT_EQ(report.deltas[0].name, "gauge_peak.mem.engine.features");
}

TEST(DiffMetrics, ObservedGaugesAreNeverDiffed) {
  // Process RSS varies machine to machine; the observed unit excludes it
  // even at zero tolerance. memory_doc pins RSS, so compare documents
  // that differ only in it by patching one.
  const auto base = json::parse(memory_doc(1000, 1000, 1, 100));
  std::string patched = memory_doc(1000, 1000, 1, 100);
  const auto pos = patched.find(R"("mem.process.rss_bytes":{"value":5000)");
  ASSERT_NE(pos, std::string::npos);
  patched.replace(pos + 33, 4, "9999");
  EXPECT_TRUE(
      diff_metrics(base, json::parse(patched), 0.0, 0.0).within_tolerance());
}

TEST(AnalyzeMemory, BreaksDownRanksComputesSkewAndProjection) {
  using dnnd::telemetry::analyze_memory;
  // Rank 0 peaks at 3000, rank 1 at 1000 → mean 2000, skew 1.5. The pmem
  // arena gauge is listed but excluded from budget math.
  const auto report =
      analyze_memory(json::parse(memory_doc(3000, 1000, 1, 100)), 1.0);
  ASSERT_EQ(report.ranks.size(), 2u);
  EXPECT_EQ(report.ranks[0].tagged_peak, 3000);
  EXPECT_EQ(report.ranks[1].tagged_peak, 1000);
  EXPECT_EQ(report.total_tagged_peak, 4000);
  EXPECT_EQ(report.max_rank_tagged_peak, 3000);
  EXPECT_DOUBLE_EQ(report.skew, 1.5);

  // Subsystems summed by name; the arena row survives as file-backed.
  ASSERT_EQ(report.subsystems.size(), 2u);
  EXPECT_EQ(report.subsystems[0].name, "mem.engine.features");
  EXPECT_EQ(report.subsystems[0].peak, 4000);
  EXPECT_EQ(report.subsystems[1].name, "mem.pmem.arena.bytes");

  EXPECT_EQ(report.process_peak_rss, 6000);
  EXPECT_DOUBLE_EQ(report.attribution, 4000.0 / 6000.0);
  EXPECT_EQ(report.global_points, 100u);
  EXPECT_DOUBLE_EQ(report.bytes_per_point, 40.0);

  // 1 GiB budget per rank: N_max = budget * N / worst-rank peak.
  const double budget = 1024.0 * 1024.0 * 1024.0;
  EXPECT_EQ(report.projected_points,
            static_cast<std::uint64_t>(budget * 100.0 / 3000.0));
}

TEST(SummarizeTimeseries, CountsSnapshotsAndIterations) {
  const auto doc = json::parse(
      R"({"schema":"dnnd.timeseries.v1","ranks":2,
          "snapshots":[
            {"t_us":100,"seq":1,"label":"iteration","per_rank":[]},
            {"t_us":200,"seq":2,"label":"final","per_rank":[]},
            {"t_us":450,"seq":3,"label":"iteration","per_rank":[]}
          ]})");
  const auto summary = summarize_timeseries(doc);
  EXPECT_EQ(summary.snapshots, 3u);
  EXPECT_EQ(summary.iteration_snapshots, 2u);
  EXPECT_EQ(summary.span_us, 350u);
}

TEST(LoadJsonFile, MissingFileIsNulloptCorruptFileThrows) {
  EXPECT_FALSE(
      dnnd::telemetry::load_json_file("/nonexistent/path.json").has_value());
  const std::string path = ::testing::TempDir() + "corrupt.json";
  { std::ofstream(path) << "{not json"; }
  EXPECT_THROW((void)dnnd::telemetry::load_json_file(path),
               std::runtime_error);
}

}  // namespace
