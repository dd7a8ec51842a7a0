// Timed calls into the program's layers, and the probes that isolate one
// layer's unit cost. Every workload drives DNND through timed_build() and
// reports its per-layer metrics through report_layers(), so the layer
// metrics mean the same thing on every workload.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/environment.hpp"
#include "core/checkpoint_store.hpp"
#include "core/distributed_query.hpp"
#include "core/dnnd_checkpoint.hpp"
#include "core/dnnd_runner.hpp"
#include "core/knn_query.hpp"
#include "core/nn_descent.hpp"
#include "harness.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace dnnd::suite {

inline constexpr std::size_t kK = 10;
/// ⌈k·m⌉ for the default prune factor m = 1.5: the longest optimized row.
inline constexpr std::size_t kMaxRow = 15;
/// Arena size of one checkpoint generation (the recovery harness default).
inline constexpr std::size_t kCheckpointBytes = 64ull << 20;

/// The CLI's query settings: l = 10, epsilon = 0.2, 24 random entry points.
inline core::SearchParams query_params() {
  core::SearchParams params;
  params.num_neighbors = kK;
  params.epsilon = 0.2;
  params.num_entry_points = 24;
  return params;
}

struct BuildConfig {
  std::size_t threads_per_rank = 1;
  std::size_t checkpoint_every = 0;  ///< 0 = no checkpoints
};

/// One DNND build as the benchmark saw it: call timings, the program's own
/// counters, and the gathered graph.
struct BuildResult {
  double total_s = 0.0;  ///< construction through optimize()
  double distribute_s = 0.0;
  double build_s = 0.0;
  double optimize_s = 0.0;
  std::map<std::string, double> phase_s;  ///< phase_profile() wall seconds
  std::size_t barriers = 0;
  std::size_t iterations = 0;
  std::uint64_t distance_evals = 0;
  std::uint64_t updates = 0;
  std::uint64_t tasks = 0;
  comm::MessageStats messages;
  double barrier_wait_p50_us = 0.0;
  double barrier_wait_max_us = 0.0;
  std::size_t ckpt_generations = 0;
  std::uint64_t ckpt_bytes = 0;
  double ckpt_s = 0.0;  ///< wall seconds inside the checkpoint hook
  std::int64_t mem_graph = 0;  ///< ledger peaks summed over ranks
  std::int64_t mem_features = 0;
  std::int64_t mem_mailbox = 0;
  std::int64_t mem_ckpt_staging = 0;
  core::KnnGraph graph;  ///< optimized rows
  /// The build's environment, kept so its telemetry can be exported.
  std::unique_ptr<comm::Environment> env;
};

/// Builds a k=10 graph on 4 ranks with the sequential driver the way
/// `dnnd_cli build` does: fresh Environment and DnndRunner, then
/// distribute → build → optimize, timed from construction. `after` runs on
/// the finished runner once the clock has stopped.
template <typename T, typename Fn>
BuildResult timed_build(
    const core::FeatureStore<T>& points, const BuildConfig& config,
    Tracer& tracer, const std::string& scratch_dir,
    const std::function<void(core::DnndRunner<T, Fn>&)>& after = {}) {
  const std::string ckpt_dir = scratch_dir + "/ckpt";
  std::filesystem::remove_all(ckpt_dir);
  BuildResult out;
  auto span = tracer.span("build", "runner");
  util::Timer total;
  out.env = std::make_unique<comm::Environment>(rank_config());
  core::DnndConfig cfg;
  cfg.k = kK;
  cfg.threads_per_rank = config.threads_per_rank;
  core::DnndRunner<T, Fn> runner(*out.env, cfg, Fn{});
  std::optional<core::CheckpointStore> store;
  if (config.checkpoint_every != 0) {
    store.emplace(ckpt_dir);
    store->set_mem_tag(out.env->telemetry(0).mem_tag("mem.ckpt.staging"));
    runner.set_checkpoint_hook(
        config.checkpoint_every, [&](std::size_t, bool) {
          const auto hook = tracer.span("checkpoint", "ckpt");
          util::Timer timer;
          const core::GenerationInfo info = core::write_checkpoint_generation(
              *store, runner, kCheckpointBytes);
          out.ckpt_s += timer.elapsed_s();
          out.ckpt_bytes += info.bytes;
          ++out.ckpt_generations;
        });
  }
  {
    const auto step = tracer.span("distribute", "runner");
    util::Timer timer;
    runner.distribute(points);
    out.distribute_s = timer.elapsed_s();
  }
  {
    const auto step = tracer.span("build_iterations", "runner");
    util::Timer timer;
    runner.build();
    out.build_s = timer.elapsed_s();
  }
  {
    const auto step = tracer.span("optimize", "runner");
    util::Timer timer;
    runner.optimize();
    out.optimize_s = timer.elapsed_s();
  }
  out.total_s = total.elapsed_s();
  span.end();

  for (const auto& [phase, cost] : runner.phase_profile()) {
    out.phase_s[phase] = cost.wall_seconds;
    out.barriers += cost.barriers;
  }
  out.iterations = runner.completed_iterations();
  const telemetry::MetricsRegistry merged = out.env->aggregate_metrics();
  out.distance_evals = merged.counter_value("engine.distance_evals");
  out.updates = merged.counter_value("engine.updates");
  out.tasks = merged.counter_value("engine.tasks");
  // Barrier waits from the program's own barrier_wait trace events, which
  // carry exact durations (the comm.barrier_wait_us histogram only keeps
  // log2 buckets). The sequential driver charges every rank the same
  // drain, so rank 0 has them all.
  std::vector<double> waits;
  for (const telemetry::TraceEvent& e : out.env->telemetry(0).trace().events()) {
    if (e.name == "barrier_wait") waits.push_back(static_cast<double>(e.dur_us));
  }
  out.barrier_wait_p50_us = median(waits);
  out.barrier_wait_max_us = *std::max_element(waits.begin(), waits.end());
  out.messages = out.env->aggregate_stats();
  for (int r = 0; r < kRanks; ++r) {
    const auto& ledger = out.env->telemetry(r).memory();
    out.mem_graph += ledger.peak_bytes("mem.engine.graph");
    out.mem_features += ledger.peak_bytes("mem.engine.features");
    out.mem_mailbox += ledger.peak_bytes("mem.comm.mailbox");
    out.mem_ckpt_staging += ledger.peak_bytes("mem.ckpt.staging");
  }
  if (after) after(runner);
  out.graph = runner.gather();
  if (store.has_value()) {
    store->set_mem_tag(telemetry::MemTag{});
    store.reset();
    std::filesystem::remove_all(ckpt_dir);
  }
  return out;
}

// ---- probes ----------------------------------------------------------------

struct CheckpointProbe {
  double write_s = 0.0;
  std::uint64_t bytes = 0;
};

struct QueryServiceProbe {
  double ctor_s = 0.0;
  double us_per_query_c1 = 0.0;
  double us_per_query_c16 = 0.0;
  double us_per_query_c256 = 0.0;
  double msgs_per_query = 0.0;
  double bytes_per_query = 0.0;
  double evals_per_query = 0.0;
  double pops_per_query = 0.0;
};

struct SearchProbe {
  double evals_per_query = 0.0;
  double visited_per_query = 0.0;
  double qps_1t = 0.0;
  double inmem_qps = 0.0;
};

/// Unit costs measured by the probes of a traced run.
struct Probes {
  TransportProbe transport;
  double kernel_ns_per_eval = 0.0;
  CheckpointProbe checkpoint;  ///< one generation written outside a build
  QueryServiceProbe dquery;
  SearchProbe search;
  double reference_s = 0.0;  ///< serial build_nn_descent, 1 thread
};

/// The workload's distance functor on batch-32 calls over randomly gathered
/// rows of its own data (per-pair calls for functors without a batch form).
template <typename T, typename Fn>
double probe_kernel_ns(const core::FeatureStore<T>& points, Tracer& tracer,
                       bool smoke) {
  constexpr std::size_t kBatch = 32;
  const std::size_t batches = smoke ? 1024 : 8192;
  const auto span = tracer.span("probe.kernel", "kernels");
  util::Xoshiro256 rng(0x6b65726e);
  std::vector<std::size_t> picks(batches * (kBatch + 1));
  for (auto& p : picks) p = rng.uniform_below(points.size());
  const Fn fn{};
  std::vector<const T*> rows(kBatch);
  std::vector<core::Dist> dists(kBatch);
  std::vector<double> ns;
  for (int rep = 0; rep < 5; ++rep) {
    double sum = 0.0;
    util::Timer timer;
    for (std::size_t b = 0; b < batches; ++b) {
      const std::size_t* pick = &picks[b * (kBatch + 1)];
      const auto query = points.row(pick[0]);
      if constexpr (core::BatchDistance<Fn, T>) {
        for (std::size_t i = 0; i < kBatch; ++i) {
          rows[i] = points.row(pick[i + 1]).data();
        }
        fn.batch(query.data(), rows.data(), kBatch, query.size(),
                 dists.data());
      } else {
        for (std::size_t i = 0; i < kBatch; ++i) {
          dists[i] = fn(query, points.row(pick[i + 1]));
        }
      }
      sum += static_cast<double>(dists[b % kBatch]);
    }
    ns.push_back(timer.elapsed_s() / static_cast<double>(batches * kBatch) *
                 1e9);
    consume(sum);
  }
  return median(ns);
}

/// One checkpoint generation of a finished runner, into a fresh store.
template <typename T, typename Fn>
CheckpointProbe probe_checkpoint(core::DnndRunner<T, Fn>& runner,
                                 const std::string& dir, Tracer& tracer) {
  const auto span = tracer.span("probe.checkpoint", "ckpt");
  std::filesystem::remove_all(dir);
  CheckpointProbe out;
  {
    core::CheckpointStore store(dir);
    util::Timer timer;
    out.bytes = core::write_checkpoint_generation(store, runner,
                                                  kCheckpointBytes)
                    .bytes;
    out.write_s = timer.elapsed_s();
  }
  std::filesystem::remove_all(dir);
  return out;
}

/// `count` queries starting at `start`, wrapping around `queries`.
template <typename T>
core::FeatureStore<T> query_slice(const core::FeatureStore<T>& queries,
                                  std::size_t start, std::size_t count) {
  core::FeatureStore<T> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.add(static_cast<core::VertexId>(i),
            queries.row((start + i) % queries.size()));
  }
  return out;
}

/// DistributedQueryService over `graph`, constructed the way
/// `dnnd_cli query --serve 4` does, then swept over 1, 16 and 256 queries in
/// flight. Per-query traffic and work come from the 256-query batch.
template <typename T, typename Fn>
QueryServiceProbe probe_query_service(const core::KnnGraph& graph,
                                      const core::FeatureStore<T>& points,
                                      const core::FeatureStore<T>& queries,
                                      const core::SearchParams& params,
                                      Tracer& tracer) {
  struct Sweep {
    const char* span;
    std::size_t in_flight;
    std::size_t runs;
    double* us_per_query;
  };
  QueryServiceProbe out;
  comm::Environment env(rank_config());
  std::optional<core::DistributedQueryService<T, Fn>> service;
  {
    const auto span = tracer.span("probe.dquery_ctor", "dquery");
    util::Timer timer;
    service.emplace(env, graph, points, Fn{}, core::ServingConfig{}, 1);
    out.ctor_s = timer.elapsed_s();
  }
  for (const Sweep& sweep :
       {Sweep{"probe.dquery_c1", 1, 32, &out.us_per_query_c1},
        Sweep{"probe.dquery_c16", 16, 4, &out.us_per_query_c16},
        Sweep{"probe.dquery_c256", 256, 1, &out.us_per_query_c256}}) {
    std::vector<core::FeatureStore<T>> batches;
    for (std::size_t run = 0; run < sweep.runs; ++run) {
      batches.push_back(
          query_slice(queries, run * sweep.in_flight, sweep.in_flight));
    }
    const std::uint64_t msgs_before = total_messages(env.aggregate_stats());
    const std::uint64_t bytes_before = total_bytes(env.aggregate_stats());
    const std::uint64_t pops_before =
        env.aggregate_metrics().counter_value("query.frontier_pops");
    std::uint64_t evals = 0;
    const auto span = tracer.span(sweep.span, "dquery");
    util::Timer timer;
    for (const auto& batch : batches) {
      for (const auto& r : service->run(batch, params)) {
        evals += r.distance_evals;
      }
    }
    const double queries_run =
        static_cast<double>(sweep.in_flight * sweep.runs);
    *sweep.us_per_query = timer.elapsed_s() / queries_run * 1e6;
    out.msgs_per_query =
        static_cast<double>(total_messages(env.aggregate_stats()) -
                            msgs_before) /
        queries_run;
    out.bytes_per_query =
        static_cast<double>(total_bytes(env.aggregate_stats()) -
                            bytes_before) /
        queries_run;
    out.pops_per_query =
        static_cast<double>(
            env.aggregate_metrics().counter_value("query.frontier_pops") -
            pops_before) /
        queries_run;
    out.evals_per_query = static_cast<double>(evals) / queries_run;
  }
  return out;
}

/// GraphSearcher over an in-memory store: one pass of search() on one
/// thread, then batch_search() with 4 threads.
template <typename T, typename Fn>
SearchProbe probe_search(const core::KnnGraph& graph,
                         const core::FeatureStore<T>& points,
                         const core::FeatureStore<T>& queries,
                         const core::SearchParams& params, Tracer& tracer) {
  SearchProbe out;
  const core::GraphSearcher searcher(graph, points, Fn{});
  const auto nq = static_cast<double>(queries.size());
  {
    const auto span = tracer.span("probe.search_1t", "search");
    std::uint64_t evals = 0;
    std::uint64_t visited = 0;
    util::Timer timer;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      core::SearchParams p = params;
      p.seed = util::mix64(params.seed + i);
      const auto r = searcher.search(queries.row(i), p);
      evals += r.distance_evals;
      visited += r.visited;
    }
    out.qps_1t = nq / timer.elapsed_s();
    out.evals_per_query = static_cast<double>(evals) / nq;
    out.visited_per_query = static_cast<double>(visited) / nq;
  }
  {
    const auto span = tracer.span("probe.search_4t", "search");
    std::vector<double> qps;
    for (int rep = 0; rep < 5; ++rep) {
      util::Timer timer;
      const auto results = searcher.batch_search(queries, params, 4);
      qps.push_back(nq / timer.elapsed_s());
      consume(static_cast<double>(results.size()));
    }
    out.inmem_qps = median(qps);
  }
  return out;
}

/// Plain serial NN-Descent on one thread: the baseline DNND is judged by.
template <typename T, typename Fn>
double probe_reference(const core::FeatureStore<T>& points, Tracer& tracer) {
  const auto span = tracer.span("probe.nn_descent", "reference");
  core::NnDescentConfig cfg;
  cfg.k = kK;
  cfg.threads = 1;
  util::Timer timer;
  const core::KnnGraph graph = core::build_nn_descent(points, Fn{}, cfg);
  const double seconds = timer.elapsed_s();
  consume(static_cast<double>(graph.num_edges()));
  return seconds;
}

/// Reports every per-layer metric of a traced run: runner, engine, comm and
/// memory from `builds` (timings are medians across them, counts come from
/// the last), the probes' unit costs, and the computed shares of the build's
/// wall time with the unexplained residual.
void report_layers(Report& report, const std::vector<BuildResult>& builds,
                   const Probes& probes);

/// End-to-end latency and throughput of the untraced window against the
/// traced one (traced minus untraced).
void report_trace_overhead(Report& report, double untraced_p50_ms,
                           double traced_p50_ms, double untraced_throughput,
                           double traced_throughput);

}  // namespace dnnd::suite
