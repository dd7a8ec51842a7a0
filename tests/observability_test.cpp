// End-to-end causal-tracing tests over the live comm stack:
//
//   * a two-rank Type-2 -> Type-3 style reply chain whose trace stays
//     connected across ranks (one trace id, incrementing hops, every
//     flow-finish matched to a flow-start on another rank);
//   * envelope cost: an untraced message serializes the same bytes as a
//     plain handler id, a traced one strictly more;
//   * the acceptance run — a 4-rank NN-Descent build — emits a Chrome
//     trace with cross-rank-connected flow events, a timeseries document
//     with at least one snapshot per iteration, and structured JSON log
//     lines that carry the active trace id.
//
// Every JSON assertion goes through util::json::parse, so "the artifact
// is valid" is checked by a parser, not by substring luck.
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "comm/environment.hpp"
#include "core/distance.hpp"
#include "core/dnnd_runner.hpp"
#include "data/synthetic.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace {

using namespace dnnd;  // NOLINT
using comm::Config;
using comm::Environment;
using comm::HandlerId;
namespace json = dnnd::util::json;

struct L2Fn {
  float operator()(std::span<const float> a, std::span<const float> b) const {
    return core::l2(a, b);
  }
};

core::FeatureStore<float> clustered(std::size_t n) {
  data::MixtureSpec spec;
  spec.dim = 8;
  spec.num_clusters = 10;
  spec.seed = 21;
  return data::GaussianMixture(spec).sample(n, 1);
}

/// Runs a 2-rank chain: rank 0 fires "type2" at rank 1; its handler
/// replies with "type3" back to rank 0. Returns the parsed Chrome trace.
json::Value run_chain_trace(std::uint64_t trace_sample_period) {
  Config cfg;
  cfg.num_ranks = 2;
  cfg.send_buffer_bytes = 0;
  cfg.trace_sample_period = trace_sample_period;
  Environment env(cfg);
  std::vector<HandlerId> t2(2), t3(2);
  for (int r = 0; r < 2; ++r) {
    t2[r] = env.comm(r).register_handler(
        "type2", [&env, r](int src, serial::InArchive& ar) {
          const auto v = ar.read<std::uint32_t>();
          env.comm(r).async(src, HandlerId{1}, v + 1);
        });
    t3[r] = env.comm(r).register_handler(
        "type3", [](int, serial::InArchive& ar) {
          (void)ar.read<std::uint32_t>();
        });
  }
  env.execute_phase([&](int rank) {
    if (rank == 0) env.comm(0).async(1, t2[0], std::uint32_t{7});
  });
  // Context must not leak past dispatch.
  EXPECT_FALSE(env.comm(0).active_trace_context().active());
  EXPECT_FALSE(env.comm(1).active_trace_context().active());

  std::ostringstream os;
  env.write_chrome_trace(os);
  return json::parse(os.str());
}

TEST(CausalTracing, TwoRankChainStaysConnectedAcrossRanks) {
  const auto doc = run_chain_trace(1);  // trace every root message
  const auto& events = doc.at("traceEvents").as_array();

  // Collect flows (id -> pid per side) and the traced recv spans.
  std::map<std::string, int> start_pid, finish_pid;
  std::map<std::string, const json::Value*> recv;  // name -> span
  for (const auto& e : events) {
    const std::string& ph = e.at("ph").as_string();
    const int pid = static_cast<int>(e.at("pid").as_number());
    if (ph == "s") start_pid[e.at("id").as_string()] = pid;
    if (ph == "f") {
      finish_pid[e.at("id").as_string()] = pid;
      EXPECT_EQ(e.at("bp").as_string(), "e");
    }
    if (ph == "X" && e.at("cat").as_string() == "handler") {
      recv[e.at("name").as_string()] = &e;
    }
  }

  // Two hops => two flow pairs, each finishing on the *other* rank.
  ASSERT_EQ(start_pid.size(), 2u);
  ASSERT_EQ(finish_pid.size(), 2u);
  for (const auto& [id, pid] : start_pid) {
    ASSERT_TRUE(finish_pid.contains(id)) << "dangling flow " << id;
    EXPECT_NE(finish_pid.at(id), pid) << "flow " << id << " not cross-rank";
  }

  // The chain is one trace: same trace id on both recv spans, hop 1 then
  // hop 2, each on the expected rank.
  ASSERT_TRUE(recv.contains("recv.type2"));
  ASSERT_TRUE(recv.contains("recv.type3"));
  const auto& hop1 = *recv.at("recv.type2");
  const auto& hop2 = *recv.at("recv.type3");
  EXPECT_EQ(hop1.at("pid").as_number(), 1.0);
  EXPECT_EQ(hop2.at("pid").as_number(), 0.0);
  EXPECT_EQ(hop1.at("args").at("hop").as_number(), 1.0);
  EXPECT_EQ(hop2.at("args").at("hop").as_number(), 2.0);
  EXPECT_EQ(hop1.at("args").at("trace").as_string(),
            hop2.at("args").at("trace").as_string());
  EXPECT_EQ(hop1.at("args").at("src").as_number(), 0.0);
  EXPECT_EQ(hop2.at("args").at("src").as_number(), 1.0);
  // Span ids are fresh per hop (they are the flow ids).
  EXPECT_NE(hop1.at("args").at("span").as_string(),
            hop2.at("args").at("span").as_string());
}

TEST(CausalTracing, SampleRateZeroEmitsNoFlowsAndNoTraceBytes) {
  const auto doc = run_chain_trace(0);
  for (const auto& e : doc.at("traceEvents").as_array()) {
    const std::string& ph = e.at("ph").as_string();
    EXPECT_TRUE(ph != "s" && ph != "f") << "flow event with sampling off";
    if (ph == "X") {
      EXPECT_NE(e.at("cat").as_string(), "handler")
          << "traced recv span with sampling off";
    }
  }
}

/// Remote bytes for N identical messages at a given sample period.
std::uint64_t ping_remote_bytes(std::uint64_t trace_sample_period) {
  Config cfg;
  cfg.num_ranks = 2;
  cfg.send_buffer_bytes = 0;
  cfg.trace_sample_period = trace_sample_period;
  Environment env(cfg);
  std::vector<HandlerId> h(2);
  for (int r = 0; r < 2; ++r) {
    h[r] = env.comm(r).register_handler(
        "ping", [](int, serial::InArchive& ar) {
          (void)ar.read<std::uint32_t>();
        });
  }
  env.execute_phase([&](int rank) {
    for (std::uint32_t i = 0; i < 10; ++i) {
      env.comm(rank).async(1 - rank, h[0], i);
    }
  });
  // aggregate_stats() returns by value — keep it alive past this statement
  // or `row` dangles (caught by the TSan matrix leg).
  const auto stats = env.aggregate_stats();
  const auto& row = stats.handlers().front();
  EXPECT_EQ(row.remote_messages, 20u);
  return row.remote_bytes;
}

TEST(CausalTracing, UntracedEnvelopeCostsNoExtraBytes) {
  const std::uint64_t untraced = ping_remote_bytes(0);
  const std::uint64_t traced = ping_remote_bytes(1);
  // The untraced envelope is the plain handler id: the traced flag rides
  // the id's low bit and ids stay below 64, so each of the 20 pings costs
  // a 1-byte varint plus its 4-byte payload.
  EXPECT_EQ(untraced, 20u * (1u + 4u));
  // Every traced message carries 4 extra varints (trace, span, hop,
  // send_ts) — at least 4 bytes each of 20 messages.
  EXPECT_GE(traced - untraced, 20u * 4u);
}

TEST(CausalTracing, MaxHopCapStopsPropagation) {
  Config cfg;
  cfg.num_ranks = 2;
  cfg.send_buffer_bytes = 0;
  cfg.trace_sample_period = 1;
  Environment env(cfg);
  // Ping-pong until a hop budget far above kMaxTraceHops runs out.
  std::vector<HandlerId> h(2);
  for (int r = 0; r < 2; ++r) {
    h[r] = env.comm(r).register_handler(
        "bounce", [&env, r](int src, serial::InArchive& ar) {
          const auto remaining = ar.read<std::uint32_t>();
          if (remaining > 0) {
            env.comm(r).async(src, HandlerId{0}, remaining - 1);
          }
        });
  }
  env.execute_phase([&](int rank) {
    if (rank == 0) env.comm(0).async(1, h[0], std::uint32_t{50});
  });

  std::ostringstream os;
  env.write_chrome_trace(os);
  std::uint64_t max_hop = 0, spans = 0;
  const auto doc = json::parse(os.str());
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    if (e.at("cat").as_string() != "handler") continue;
    ++spans;
    max_hop = std::max(
        max_hop,
        static_cast<std::uint64_t>(e.at("args").at("hop").as_number()));
  }
  // The cap is respected exactly: hops reach kMaxTraceHops, never past it.
  // (Propagation stops there; the bounce after the cap is untraced, and
  // the one after that may start a fresh sampled root — so there can be
  // more traced spans than the cap, just never a deeper hop.)
  EXPECT_EQ(max_hop, static_cast<std::uint64_t>(comm::kMaxTraceHops));
  EXPECT_GE(spans, static_cast<std::uint64_t>(comm::kMaxTraceHops));
}

// ---------------------------------------------------------------------------
// Acceptance: a real 4-rank build
// ---------------------------------------------------------------------------

TEST(Observability, FourRankBuildEmitsConnectedFlowsAndIterationSnapshots) {
  const auto points = clustered(300);
  Config env_cfg;
  env_cfg.num_ranks = 4;
  env_cfg.trace_sample_period = 32;
  Environment env(env_cfg);
  core::DnndConfig cfg;
  cfg.k = 8;
  core::DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
  runner.distribute(points);
  const auto stats = runner.build();
  ASSERT_GE(stats.iterations, 1u);

  // -- timeseries: >= 1 snapshot per iteration, timestamps monotone ------
  std::ostringstream ts;
  env.write_timeseries_json(ts);
  const auto series = json::parse(ts.str());
  EXPECT_EQ(series.at("schema").as_string(), "dnnd.timeseries.v1");
  EXPECT_EQ(series.at("ranks").as_number(), 4.0);
  const auto& snapshots = series.at("snapshots").as_array();
  ASSERT_GE(snapshots.size(), stats.iterations);
  double prev_t = -1.0;
  std::uint64_t iteration_snaps = 0;
  for (const auto& snap : snapshots) {
    const double t = snap.at("t_us").as_number();
    EXPECT_GE(t, prev_t);
    prev_t = t;
    if (snap.at("label").as_string() == "iteration") ++iteration_snaps;
    ASSERT_EQ(snap.at("per_rank").as_array().size(), 4u);
  }
  EXPECT_GE(iteration_snaps, stats.iterations);
  // Counters accumulate: the last snapshot's distance evals reach the
  // run's total across ranks.
  std::uint64_t final_evals = 0;
  for (const auto& rank : snapshots.back().at("per_rank").as_array()) {
    const auto& counters = rank.at("counters");
    if (counters.contains("engine.distance_evals")) {
      final_evals += static_cast<std::uint64_t>(
          counters.at("engine.distance_evals").as_number());
    }
  }
  EXPECT_GT(final_evals, 0u);

  // -- trace: flows present and stitched across ranks --------------------
  std::ostringstream tr;
  env.write_chrome_trace(tr);
  const auto trace = json::parse(tr.str());
  std::map<std::string, int> start_pid;
  std::uint64_t cross_rank_flows = 0, finishes = 0;
  for (const auto& e : trace.at("traceEvents").as_array()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "s") {
      start_pid[e.at("id").as_string()] =
          static_cast<int>(e.at("pid").as_number());
    }
  }
  for (const auto& e : trace.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "f") continue;
    ++finishes;
    const auto it = start_pid.find(e.at("id").as_string());
    ASSERT_NE(it, start_pid.end()) << "flow finish without a start";
    if (it->second != static_cast<int>(e.at("pid").as_number())) {
      ++cross_rank_flows;
    }
  }
  EXPECT_GT(finishes, 0u);
  EXPECT_GT(cross_rank_flows, 0u)
      << "no flow connected two different ranks in a 4-rank build";
}

// ---------------------------------------------------------------------------
// Structured logs join the trace
// ---------------------------------------------------------------------------

TEST(Observability, JsonLogLinesFromTracedHandlersCarryTheTraceId) {
  std::vector<std::string> lines;
  util::set_log_sink([&lines](std::string_view line) {
    lines.emplace_back(line);
  });
  const auto prev_level = util::log_level();
  util::set_log_level(util::LogLevel::kInfo);
  util::set_log_format(util::LogFormat::kJson);

  Config cfg;
  cfg.num_ranks = 2;
  cfg.send_buffer_bytes = 0;
  cfg.trace_sample_period = 1;
  Environment env(cfg);
  std::vector<HandlerId> h(2);
  for (int r = 0; r < 2; ++r) {
    h[r] = env.comm(r).register_handler(
        "work", [r](int, serial::InArchive& ar) {
          (void)ar.read<std::uint32_t>();
          util::log_line(util::LogLevel::kInfo, r, "handled");
        });
  }
  env.execute_phase([&](int rank) {
    if (rank == 0) env.comm(0).async(1, h[0], std::uint32_t{1});
  });
  util::log_line(util::LogLevel::kInfo, 0,
                 "outside");  // no active span -> no trace field

  util::set_log_sink(nullptr);
  util::set_log_format(util::LogFormat::kText);
  util::set_log_level(prev_level);

  ASSERT_EQ(lines.size(), 2u);
  const auto inside = json::parse(lines[0]);
  EXPECT_EQ(inside.at("level").as_string(), "INFO");
  EXPECT_EQ(inside.at("rank").as_number(), 1.0);
  EXPECT_EQ(inside.at("msg").as_string(), "handled");
  ASSERT_TRUE(inside.contains("trace"));
  EXPECT_EQ(inside.at("trace").as_string().substr(0, 2), "0x");

  const auto outside = json::parse(lines[1]);
  EXPECT_FALSE(outside.contains("trace"));
  EXPECT_TRUE(outside.contains("ts_us"));

  // The logged trace id matches a trace that actually exists.
  std::ostringstream os;
  env.write_chrome_trace(os);
  std::set<std::string> trace_ids;
  const auto trace_doc = json::parse(os.str());
  for (const auto& e : trace_doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "X" && e.contains("args") &&
        e.at("args").contains("trace")) {
      trace_ids.insert(e.at("args").at("trace").as_string());
    }
  }
  EXPECT_TRUE(trace_ids.contains(inside.at("trace").as_string()));
}

}  // namespace
