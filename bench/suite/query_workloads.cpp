// query-serve and query-local: queries against a persisted DEEP index.
//
// query-serve is the only workload dominated by per-query message round
// trips (DistributedQueryService on 4 ranks, as `dnnd_cli query --serve 4`
// answers); closed-loop latency and batch throughput move separately
// because per-query cost grows with the number of queries in flight.
// query-local searches the same index through the CLI's default path
// (GraphSearcher over a zero-copy PersistentFeatureView): no transport,
// so comm and protocol changes should not move it, while kernel work, row
// gather and heap operations dominate. Its features fit in the L3 cache.
#include <algorithm>
#include <exception>
#include <memory>
#include <optional>

#include "baselines/brute_force.hpp"
#include "common.hpp"
#include "core/persistent_graph.hpp"
#include "core/recall.hpp"
#include "data/datasets.hpp"
#include "data/synthetic.hpp"
#include "layers.hpp"
#include "pmem/manager.hpp"
#include "workloads.hpp"

namespace dnnd::suite {
namespace {

using Fn = bench::L2Fn;

constexpr std::size_t kIndexPoints = 5000;
constexpr std::size_t kSmokePoints = 2000;
/// The index is one fixed draw of the DEEP stand-in and the run's seed
/// selects only the queries (draw seed + 1). Search cost and recall depend
/// on the graph far more than on the query sample (recall@10 ranged over
/// 0.95-0.997 across index draws), so a per-seed index would bury
/// regressions in data variance.
constexpr std::uint64_t kIndexDraw = 0;
constexpr std::size_t kServeQueries = 1000;
constexpr std::size_t kLocalQueries = 2000;
constexpr std::size_t kSmokeQueries = 100;
/// Queries per service run() in the batch phase of query-serve: the whole
/// query set. A batch finishes with its slowest query, so smaller batches
/// made throughput depend on which hard queries each batch drew.
constexpr std::size_t kServeBatch = 1000;
/// Queries run through the service before its window opens.
constexpr std::size_t kWarmupQueries = 100;
constexpr std::size_t kLocalMinPasses = 5;
constexpr std::size_t kLocalMinBatches = 20;
constexpr std::size_t kSetups = 3;
/// A batch whose mean recall@10 falls below this fails as a whole.
constexpr double kRecallFloor = 0.85;

/// The index both query workloads serve: DEEP stand-in points built with
/// one thread per rank, optimized, persisted to a pmem datastore and
/// reopened; plus the queries and their exact answers.
struct IndexSetup {
  core::FeatureStore<float> points;
  core::FeatureStore<float> queries;
  std::vector<std::vector<core::VertexId>> truth;
  BuildResult build;
  std::optional<pmem::Manager> store;
  core::KnnGraph graph;  ///< reloaded from the datastore
  // query-serve: features loaded back into memory and the 4-rank service.
  core::FeatureStore<float> served_points;
  std::unique_ptr<comm::Environment> env;
  std::unique_ptr<core::DistributedQueryService<float, Fn>> service;
  // query-local: zero-copy view of the features inside the datastore.
  std::unique_ptr<core::PersistentFeatureView<float>> view;
};

std::unique_ptr<IndexSetup> make_index_setup(const Options& options,
                                             const std::string& scratch,
                                             std::size_t num_queries,
                                             bool serve, Tracer& tracer,
                                             CheckpointProbe* checkpoint) {
  auto s = std::make_unique<IndexSetup>();
  const auto span = tracer.span("setup", "bench");
  const std::size_t n = options.smoke ? kSmokePoints : kIndexPoints;
  {
    const auto step = tracer.span("generate", "data");
    const data::DatasetSpec& spec = data::dataset_by_name("deep1b");
    const data::GaussianMixture family(
        bench::billion_standin_spec(spec.dim, spec.seed));
    s->points = family.sample(n, kIndexDraw);
    s->queries = family.sample(num_queries, options.seed + 1);
  }
  std::function<void(core::DnndRunner<float, Fn>&)> after;
  if (checkpoint != nullptr) {
    after = [&](core::DnndRunner<float, Fn>& runner) {
      *checkpoint = probe_checkpoint(runner, scratch + "/probe-ckpt", tracer);
    };
  }
  s->build = timed_build<float, Fn>(s->points, BuildConfig{}, tracer, scratch,
                                    after);
  const std::string path = scratch + "/index.dat";
  {
    const auto step = tracer.span("persist", "pmem");
    // Sized like `dnnd_cli build`: features + graph + slack.
    const std::size_t bytes =
        (n * (s->points.dim() * sizeof(float) + 64) +
         n * kMaxRow * sizeof(core::Neighbor)) *
            4 +
        (64 << 20);
    auto manager = pmem::Manager::create(path, bytes);
    core::store_graph(manager, s->build.graph, "knng");
    core::store_features(manager, s->points, "points");
    core::IndexMetadata meta;
    meta.set_metric("L2");
    meta.k = static_cast<std::uint32_t>(kK);
    meta.dim = static_cast<std::uint32_t>(s->points.dim());
    meta.num_points = n;
    core::store_index_metadata(manager, meta);
    manager.flush();
    manager.close();
  }
  {
    const auto step = tracer.span("reload", "pmem");
    s->store.emplace(pmem::Manager::open(path));
    core::validate_index_metadata(core::load_index_metadata(*s->store), "L2",
                                  s->points.dim());
    s->graph = core::load_graph(*s->store, "knng");
    if (serve) {
      s->served_points = core::load_features<float>(*s->store, "points");
    } else {
      s->view = std::make_unique<core::PersistentFeatureView<float>>(
          *s->store, "points");
    }
  }
  if (serve) {
    const auto step = tracer.span("service", "dquery");
    s->env = std::make_unique<comm::Environment>(rank_config());
    s->service = std::make_unique<core::DistributedQueryService<float, Fn>>(
        *s->env, s->graph, s->served_points, Fn{}, core::ServingConfig{}, 1);
  }
  {
    const auto step = tracer.span("ground_truth", "baseline");
    s->truth =
        baselines::brute_force_query_batch(s->points, s->queries, Fn{}, kK);
  }
  return s;
}

/// The persisted index must come back unchanged and well formed.
void check_index(const IndexSetup& s, Report& report) {
  const std::size_t n = s.points.size();
  if (const std::string why = audit_graph(s.graph, n, kMaxRow); !why.empty()) {
    report.fail("index graph: " + why);
  }
  if (!(s.graph == s.build.graph)) {
    report.fail("graph changed in the datastore round trip");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto want = s.points.row(i);
    const auto got = s.view ? s.view->row(i) : s.served_points.row(i);
    const auto got_id = s.view ? s.view->id_at(i) : s.served_points.id_at(i);
    if (got_id != s.points.id_at(i) ||
        !std::equal(want.begin(), want.end(), got.begin(), got.end())) {
      report.fail("features changed in the datastore round trip");
      return;
    }
  }
}

struct QueryWindow {
  std::vector<double> latencies_s;  ///< closed loop, one query in flight
  std::vector<double> batch_qps;
  double recall = 0.0;  ///< mean recall@10, every query answered once
};

/// Audits answers to queries first, first+1, ... (wrapping) and adds their
/// recall@10 to `recall_sum`. Returns how many failed.
std::uint64_t audit_answers(const std::vector<core::SearchResult>& results,
                            std::size_t expected, std::size_t first,
                            const IndexSetup& s, double& recall_sum,
                            Report& report) {
  if (results.size() != expected) {
    report.fail(std::to_string(results.size()) + " answers for " +
                std::to_string(expected) + " queries");
    return expected;
  }
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::size_t qi = (first + i) % s.queries.size();
    if (const std::string why = audit_result(results[i], kK, s.points.size());
        !why.empty()) {
      ++failed;
      report.fail("query " + std::to_string(qi) + ": " + why);
    }
    recall_sum += core::query_recall(results[i].neighbors, s.truth[qi], kK);
  }
  return failed;
}

/// Failed count of a group of answers whose mean recall is below the floor.
std::uint64_t recall_failures(double recall, std::size_t answers,
                              const char* what, Report& report) {
  if (recall >= kRecallFloor) return 0;
  report.fail(std::string(what) + " recall@10 " + std::to_string(recall) +
              " below " + std::to_string(kRecallFloor));
  return answers;
}

QueryWindow serve_window(const Options& options, IndexSetup& s,
                         Report& report, Tracer& tracer) {
  QueryWindow out;
  const std::size_t nq = s.queries.size();
  const std::size_t batch = std::min(kServeBatch, nq);
  const std::size_t batches = nq / batch;
  const core::SearchParams params = query_params();
  std::vector<core::FeatureStore<float>> singles;
  for (std::size_t qi = 0; qi < nq; ++qi) {
    singles.push_back(query_slice(s.queries, qi, 1));
  }
  std::vector<core::FeatureStore<float>> slices;
  for (std::size_t b = 0; b < batches; ++b) {
    slices.push_back(query_slice(s.queries, b * batch, batch));
  }

  const auto run = [&](const core::FeatureStore<float>& queries) {
    try {
      return s.service->run(queries, params);
    } catch (const std::exception& e) {
      report.fail(std::string("service run threw: ") + e.what());
      return std::vector<core::SearchResult>{};
    }
  };

  (void)run(query_slice(s.queries, 0, kWarmupQueries));  // not measured

  // Closed loop: one client, one query in flight.
  std::uint64_t failed = 0;
  double recall_sum = 0.0;
  closed_loop(options.seconds / 2, nq, options.smoke, [&](std::size_t i) {
    const std::size_t qi = i % nq;
    std::vector<core::SearchResult> results;
    {
      const auto span = tracer.span("query", "dquery",
                                    static_cast<std::int64_t>(qi));
      util::Timer timer;
      results = run(singles[qi]);
      out.latencies_s.push_back(timer.elapsed_s());
    }
    failed += audit_answers(results, 1, qi, s, recall_sum, report);
  });
  const std::size_t single_ops = out.latencies_s.size();
  failed += recall_failures(recall_sum / static_cast<double>(single_ops),
                            single_ops, "closed loop", report);

  // Batch phase: `batch` queries per run(), cycling over the query set.
  double cycle_recall_sum = 0.0;
  closed_loop(options.seconds / 2, batches, options.smoke,
              [&](std::size_t b) {
                const std::size_t bi = b % batches;
                std::vector<core::SearchResult> results;
                {
                  const auto span = tracer.span("query_batch", "dquery");
                  util::Timer timer;
                  results = run(slices[bi]);
                  out.batch_qps.push_back(static_cast<double>(batch) /
                                          timer.elapsed_s());
                }
                double batch_recall = 0.0;
                std::uint64_t batch_failed = audit_answers(
                    results, batch, bi * batch, s, batch_recall, report);
                if (b < batches) cycle_recall_sum += batch_recall;
                batch_recall /= static_cast<double>(batch);
                batch_failed = std::max(
                    batch_failed,
                    recall_failures(batch_recall, batch, "batch", report));
                failed += batch_failed;
              });
  out.recall = cycle_recall_sum / static_cast<double>(batches * batch);
  report.count_ops(single_ops + out.batch_qps.size() * batch, failed);
  return out;
}

QueryWindow local_window(const Options& options, IndexSetup& s,
                         Report& report, Tracer& tracer) {
  QueryWindow out;
  const std::size_t nq = s.queries.size();
  const core::SearchParams params = query_params();
  const core::GraphSearcher searcher(s.graph, *s.view, Fn{});
  (void)searcher.batch_search(s.queries, params, 4);  // warm-up, not measured

  // Closed loop on one thread, entry points seeded per query exactly as
  // batch_search() seeds them, so both phases answer identically.
  std::uint64_t failed = 0;
  double recall_sum = 0.0;
  closed_loop(options.seconds / 2, options.smoke ? nq : kLocalMinPasses * nq,
              options.smoke, [&](std::size_t i) {
                const std::size_t qi = i % nq;
                core::SearchParams p = params;
                p.seed = util::mix64(params.seed + qi);
                std::vector<core::SearchResult> results(1);
                {
                  const auto span = tracer.span(
                      "query", "search", static_cast<std::int64_t>(qi));
                  util::Timer timer;
                  results[0] = searcher.search(s.queries.row(qi), p);
                  out.latencies_s.push_back(timer.elapsed_s());
                }
                failed += audit_answers(results, 1, qi, s, recall_sum, report);
              });
  const std::size_t single_ops = out.latencies_s.size();
  failed += recall_failures(recall_sum / static_cast<double>(single_ops),
                            single_ops, "closed loop", report);

  // Batch phase: the whole query set through batch_search on 4 threads.
  closed_loop(options.seconds / 2, options.smoke ? 1 : kLocalMinBatches,
              options.smoke, [&](std::size_t b) {
                std::vector<core::SearchResult> results;
                {
                  const auto span = tracer.span("query_batch", "search");
                  util::Timer timer;
                  results = searcher.batch_search(s.queries, params, 4);
                  out.batch_qps.push_back(static_cast<double>(nq) /
                                          timer.elapsed_s());
                }
                double batch_recall = 0.0;
                std::uint64_t batch_failed =
                    audit_answers(results, nq, 0, s, batch_recall, report);
                batch_recall /= static_cast<double>(nq);
                if (b == 0) out.recall = batch_recall;
                batch_failed = std::max(
                    batch_failed,
                    recall_failures(batch_recall, nq, "batch", report));
                failed += batch_failed;
              });
  report.count_ops(single_ops + out.batch_qps.size() * nq, failed);
  return out;
}

void run_query_workload(const Options& options, const std::string& scratch,
                        bool serve, Report& report, Tracer& tracer) {
  const std::size_t nq = options.smoke ? kSmokeQueries
                         : serve       ? kServeQueries
                                       : kLocalQueries;
  const auto make_setup = [&](CheckpointProbe* checkpoint) {
    return make_index_setup(options, scratch, nq, serve, tracer, checkpoint);
  };
  const auto measure = [&](IndexSetup& s) {
    return serve ? serve_window(options, s, report, tracer)
                 : local_window(options, s, report, tracer);
  };
  auto setup = repeated_setup(options.smoke ? 1 : kSetups, report,
                              [&] { return make_setup(nullptr); });
  check_index(*setup, report);
  restart_peak_rss();
  const QueryWindow untraced = measure(*setup);
  report.set("peak_rss_mb", peak_rss_mib(), "MiB");
  const double p50_ms = median(untraced.latencies_s) * 1e3;
  const double qps = median(untraced.batch_qps);
  report.set("latency_p50_ms", p50_ms, "ms");
  report.set("latency_p99_ms", tail_latency(untraced.latencies_s) * 1e3,
             "ms");
  report.set("throughput", qps, "1/s");
  report.set("recall", untraced.recall, "fraction");
  if (!options.traced()) return;

  tracer.enable();
  Probes probes;
  setup = make_setup(&probes.checkpoint);
  check_index(*setup, report);
  const QueryWindow traced = measure(*setup);
  report_trace_overhead(report, p50_ms, median(traced.latencies_s) * 1e3, qps,
                        median(traced.batch_qps));

  probes.transport = probe_transport(tracer, options.smoke);
  probes.kernel_ns_per_eval =
      probe_kernel_ns<float, Fn>(setup->points, tracer, options.smoke);
  probes.dquery = probe_query_service<float, Fn>(
      setup->graph, setup->points, setup->queries, query_params(), tracer);
  probes.search = probe_search<float, Fn>(setup->graph, setup->points,
                                          setup->queries, query_params(),
                                          tracer);
  probes.reference_s = probe_reference<float, Fn>(setup->points, tracer);
  std::vector<BuildResult> builds;
  builds.push_back(std::move(setup->build));
  report_layers(report, builds, probes);
  write_trace_outputs(options.trace_dir, tracer,
                      serve ? *setup->env : *builds.back().env);
}

}  // namespace

void run_query_serve(const Options& options, const std::string& scratch,
                     Report& report, Tracer& tracer) {
  run_query_workload(options, scratch, true, report, tracer);
}

void run_query_local(const Options& options, const std::string& scratch,
                     Report& report, Tracer& tracer) {
  run_query_workload(options, scratch, false, report, tracer);
}

}  // namespace dnnd::suite
