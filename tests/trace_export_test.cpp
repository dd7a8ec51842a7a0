// Exporter tests: a golden-file check of the Chrome-trace (catapult)
// writer over hand-stamped events, structural checks that real TraceSpans
// nest correctly, and a schema check of Environment::write_metrics_json.
//
// The golden compare uses manual timestamps (TraceBuffer::add_complete),
// so it is byte-exact and independent of the wall clock; the span tests
// assert containment rather than exact times. Everything parses back
// through util::json so "valid JSON" is checked by an actual parser, not
// by eye.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "comm/environment.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/json.hpp"

namespace {

using dnnd::comm::Config;
using dnnd::comm::Environment;
using dnnd::comm::HandlerId;
using dnnd::telemetry::RankTrace;
using dnnd::telemetry::TraceBuffer;
using dnnd::telemetry::TraceSpan;
using dnnd::telemetry::write_chrome_trace;
namespace json = dnnd::util::json;

std::string render(std::span<const RankTrace> ranks) {
  std::ostringstream os;
  write_chrome_trace(os, ranks);
  return os.str();
}

// ---------------------------------------------------------------------------
// Golden file: exact bytes for a deterministic two-rank trace
// ---------------------------------------------------------------------------

TEST(ChromeTraceExport, GoldenTwoRankTrace) {
  TraceBuffer r0, r1;
  r0.add_complete("build", "phase", 100, 500, 0);
  r0.add_complete("sample", "phase", 150, 100, 0);
  r1.add_complete("drain \"q\"", "comm", 200, 50, 2);  // exercises escaping

  const std::vector<RankTrace> ranks = {{0, &r0}, {1, &r1}};
  const std::string expected =
      "{\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"rank 0\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"driver\"}},"
      "{\"name\":\"build\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":100,"
      "\"dur\":500,\"pid\":0,\"tid\":0},"
      "{\"name\":\"sample\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":150,"
      "\"dur\":100,\"pid\":0,\"tid\":0},"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"rank 1\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
      "\"args\":{\"name\":\"aux 2\"}},"
      "{\"name\":\"drain \\\"q\\\"\",\"cat\":\"comm\",\"ph\":\"X\","
      "\"ts\":200,\"dur\":50,\"pid\":1,\"tid\":2}"
      "],\"displayTimeUnit\":\"ms\"}";
  EXPECT_EQ(render(ranks), expected);
}

TEST(ChromeTraceExport, GoldenFlowEventsAndArgs) {
  // A traced send on rank 0 stitched to a handler span on rank 1 —
  // exactly the event shapes the communicator emits, hand-stamped so the
  // compare is byte-exact.
  TraceBuffer r0, r1;
  r0.add_flow('s', "type2", 100, 0xabc);
  dnnd::telemetry::TraceEvent recv;
  recv.name = "recv.type2";
  recv.category = "handler";
  recv.ts_us = 140;
  recv.dur_us = 25;
  recv.args = "{\"trace\":\"0x1\",\"span\":\"0xabc\",\"hop\":1,\"src\":0,"
              "\"queue_us\":40}";
  r1.add_flow('f', "type2", 140, 0xabc);
  r1.add(std::move(recv));

  const std::vector<RankTrace> ranks = {{0, &r0}, {1, &r1}};
  const std::string expected =
      "{\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"rank 0\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"driver\"}},"
      "{\"name\":\"type2\",\"cat\":\"flow\",\"ph\":\"s\",\"ts\":100,"
      "\"pid\":0,\"tid\":0,\"id\":\"0xabc\"},"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"rank 1\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"driver\"}},"
      "{\"name\":\"type2\",\"cat\":\"flow\",\"ph\":\"f\",\"ts\":140,"
      "\"pid\":1,\"tid\":0,\"id\":\"0xabc\",\"bp\":\"e\"},"
      "{\"name\":\"recv.type2\",\"cat\":\"handler\",\"ph\":\"X\","
      "\"ts\":140,\"dur\":25,\"pid\":1,\"tid\":0,"
      "\"args\":{\"trace\":\"0x1\",\"span\":\"0xabc\",\"hop\":1,\"src\":0,"
      "\"queue_us\":40}}"
      "],\"displayTimeUnit\":\"ms\"}";
  EXPECT_EQ(render(ranks), expected);

  // The flow pair survives a JSON parser round-trip with matching ids.
  const auto doc = json::parse(render(ranks));
  std::string s_id, f_id;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "s") s_id = e.at("id").as_string();
    if (e.at("ph").as_string() == "f") f_id = e.at("id").as_string();
  }
  EXPECT_EQ(s_id, "0xabc");
  EXPECT_EQ(s_id, f_id);
}

TEST(ChromeTraceExport, OriginShiftsTimestampsToRunRelativeZero) {
  TraceBuffer buf;
  buf.add_complete("a", "phase", 5000, 10, 0);
  buf.add_flow('s', "m", 5100, 0x1);
  const std::vector<RankTrace> ranks = {{0, &buf}};
  std::ostringstream os;
  write_chrome_trace(os, ranks, 5000);
  const auto doc = json::parse(os.str());
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "X") {
      EXPECT_EQ(e.at("ts").as_number(), 0.0);
      EXPECT_EQ(e.at("dur").as_number(), 10.0);  // durations never shift
    }
    if (e.at("ph").as_string() == "s") {
      EXPECT_EQ(e.at("ts").as_number(), 100.0);
    }
  }
  // Events stamped before the origin clamp to zero instead of wrapping.
  TraceBuffer early;
  early.add_complete("b", "phase", 10, 5, 0);
  std::ostringstream os2;
  const std::vector<RankTrace> ranks2 = {{0, &early}};
  write_chrome_trace(os2, ranks2, 5000);
  EXPECT_EQ(json::parse(os2.str())
                .at("traceEvents")
                .as_array()
                .back()
                .at("ts")
                .as_number(),
            0.0);
}

TEST(ChromeTraceExport, OutputParsesAndMapsPidTidToRankThread) {
  TraceBuffer r0, r1;
  r0.add_complete("a", "phase", 0, 10, 0);
  r1.add_complete("b", "phase", 5, 10, 3);
  const std::vector<RankTrace> ranks = {{0, &r0}, {1, &r1}};

  const auto doc = json::parse(render(ranks));
  const auto& events = doc.at("traceEvents").as_array();
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");

  // Every "X" event's pid must be its rank; metadata must name each pid
  // "rank N" and tid 0 "driver".
  int x_events = 0;
  for (const auto& e : events) {
    const std::string ph = e.at("ph").as_string();
    if (ph == "X") {
      ++x_events;
      const int pid = static_cast<int>(e.at("pid").as_number());
      const int tid = static_cast<int>(e.at("tid").as_number());
      if (e.at("name").as_string() == "a") {
        EXPECT_EQ(pid, 0);
        EXPECT_EQ(tid, 0);
      } else {
        EXPECT_EQ(pid, 1);
        EXPECT_EQ(tid, 3);
      }
      continue;
    }
    ASSERT_EQ(ph, "M");
    const auto& meta_name = e.at("args").at("name").as_string();
    if (e.at("name").as_string() == "process_name") {
      EXPECT_EQ(meta_name,
                "rank " + std::to_string(
                              static_cast<int>(e.at("pid").as_number())));
    } else if (static_cast<int>(e.at("tid").as_number()) == 0) {
      EXPECT_EQ(meta_name, "driver");
    }
  }
  EXPECT_EQ(x_events, 2);
}

TEST(ChromeTraceExport, EmptyAndNullBuffersStillProduceValidJson) {
  TraceBuffer empty;
  const std::vector<RankTrace> ranks = {{0, &empty}, {1, nullptr}};
  const auto doc = json::parse(render(ranks));
  // Only the two process_name records — no threads, no events.
  EXPECT_EQ(doc.at("traceEvents").as_array().size(), 2u);
}

// ---------------------------------------------------------------------------
// Span nesting (real clock; assert containment, not exact values)
// ---------------------------------------------------------------------------

TEST(TraceSpanUnit, NestedSpansAreContainedInTheirParent) {
  TraceBuffer buf;
  {
    const TraceSpan outer(&buf, "outer", "test");
    {
      const TraceSpan inner(&buf, "inner", "test");
    }
  }
  // Spans close inner-first, so the buffer order is inner, outer.
  ASSERT_EQ(buf.size(), 2u);
  const auto& inner = buf.events()[0];
  const auto& outer = buf.events()[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
}

TEST(TraceSpanUnit, MovedFromSpanDoesNotDoubleRecord) {
  TraceBuffer buf;
  {
    TraceSpan a(&buf, "once", "test");
    const TraceSpan b = std::move(a);
  }  // both destructors run; only b may record
  EXPECT_EQ(buf.size(), 1u);
}

TEST(TraceSpanUnit, NullBufferSpanIsANoOp) {
  const TraceSpan span(nullptr, "ghost", "test");
  // Nothing to assert beyond "does not crash": this is the shape of a
  // default-constructed or moved-from span.
}

// ---------------------------------------------------------------------------
// metrics.json schema from a real (tiny) Environment run
// ---------------------------------------------------------------------------

TEST(MetricsJsonExport, SchemaAndHandlerRowsFromLiveEnvironment) {
  Environment env(Config{.num_ranks = 2});
  std::vector<HandlerId> h(2);
  for (int r = 0; r < 2; ++r) {
    h[r] = env.comm(r).register_handler(
        "ping", [](int, dnnd::serial::InArchive& ar) {
          (void)ar.read<std::uint32_t>();
        });
  }
  env.execute_phase([&](int rank) {
    env.comm(rank).async(1 - rank, h[0], std::uint32_t{1});
  });

  std::ostringstream os;
  env.write_metrics_json(os);
  const auto doc = json::parse(os.str());

  EXPECT_EQ(doc.at("schema").as_string(), "dnnd.metrics.v1");
  EXPECT_EQ(doc.at("ranks").as_number(), 2.0);

  // Handler rows carry the Fig. 4 send-side accounting (MessageStats).
  const auto& handlers = doc.at("handlers").as_array();
  ASSERT_EQ(handlers.size(), 1u);
  EXPECT_EQ(handlers[0].at("label").as_string(), "ping");
  EXPECT_EQ(handlers[0].at("remote_messages").as_number(), 2.0);
  EXPECT_GT(handlers[0].at("remote_bytes").as_number(), 0.0);

  const auto& transport = doc.at("transport");
  EXPECT_EQ(transport.at("retransmits").as_number(), 0.0);
  EXPECT_EQ(transport.at("duplicates_suppressed").as_number(), 0.0);

  // The merged registry always has the three sections.
  const auto& metrics = doc.at("metrics");
  ASSERT_TRUE(metrics.at("counters").is_object());
  ASSERT_TRUE(metrics.at("gauges").is_object());
  ASSERT_TRUE(metrics.at("histograms").is_object());
  // Each delivered message bumps the per-handler recv counter; two ranks
  // each received one "ping".
  EXPECT_EQ(metrics.at("counters").at("comm.recv.ping").as_number(), 2.0);
  EXPECT_TRUE(metrics.at("gauges").contains("comm.inbox_depth"));
  EXPECT_TRUE(metrics.at("histograms").contains("comm.barrier_wait_us"));
}

TEST(MetricsJsonExport, AggregateMetricsMergesAcrossRanks) {
  Environment env(Config{.num_ranks = 3});
  for (int r = 0; r < 3; ++r) {
    auto& t = env.telemetry(r);
    t.add(t.counter("test.work"), static_cast<std::uint64_t>(r + 1));
  }
  const auto merged = env.aggregate_metrics();
  EXPECT_EQ(merged.counter_value("test.work"), 6u);  // 1 + 2 + 3
}

}  // namespace
