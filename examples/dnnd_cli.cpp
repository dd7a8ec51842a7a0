// dnnd_cli — file-based end-to-end tool, the shape of the paper's actual
// executables (§5.1.3): dataset files in ANN-benchmark formats, a
// persistent datastore between steps, and a query step that reads
// features zero-copy out of the datastore.
//
//   dnnd_cli gen   <dataset> <prefix> [n] [nq]
//       synthesize a Table-1 stand-in: <prefix>.base.fvecs|u8bin,
//       <prefix>.query.*, <prefix>.gt.ivecs (exact ground truth)
//   dnnd_cli build <base-file> <datastore> [k] [ranks]
//       DNND build + §4.5 optimize + persist graph and features
//   dnnd_cli query <datastore> <query-file> [gt.ivecs] [epsilon]
//       reopen, batch-search, report QPS (and recall when gt given)
//   dnnd_cli query ... --serve N [--replication F] [--kill R@T]
//       replicated distributed serving over N simulated ranks: shards the
//       index, mirrors each shard onto F ranks, and answers through the
//       failover protocol (core/distributed_query.hpp). --kill injects a
//       crash-stop fault on rank R at tick T of the query epoch. Emits
//       one structured JSON event line per rank failure (failed_rank,
//       detected_by, silent_ticks) plus a serving summary with failover/
//       degraded counters, and writes <datastore>.query.metrics.json for
//       `dnnd_cli stats`.
//   dnnd_cli info  <datastore>
//   dnnd_cli stats <run-prefix> [--straggler-factor F]
//       offline analysis of a run's telemetry artifacts (<prefix>.metrics
//       .json / .trace.json / .timeseries.json): per-rank load skew,
//       straggler flags, barrier share, queue-latency percentiles
//   dnnd_cli stats <run-prefix> --memory [--budget-gb G]
//       memory-ledger report: per-rank/per-subsystem byte peaks, skew,
//       bytes-per-point, RSS attribution, capacity projection (largest N
//       fitting a G-GiB-per-rank budget)
//   dnnd_cli stats --diff <baseline.metrics.json> <current.metrics.json>
//                  [--tolerance PCT] [--mem-tolerance PCT]
//       regression gate: exits 3 when any deterministic counter drifts
//       beyond the tolerance (mem.* byte peaks at the mem tolerance)
//
// File type is inferred from the extension: .fvecs/.fbin = float32,
// .bvecs/.u8bin = uint8. Metric is L2 (the billion-scale datasets').
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "telemetry/analysis.hpp"

#include "baselines/brute_force.hpp"
#include "comm/environment.hpp"
#include "core/checkpoint_store.hpp"
#include "core/distance.hpp"
#include "core/distributed_query.hpp"
#include "core/dnnd_checkpoint.hpp"
#include "core/dnnd_runner.hpp"
#include "core/recovery.hpp"
#include "core/knn_query.hpp"
#include "core/persistent_graph.hpp"
#include "core/recall.hpp"
#include "data/datasets.hpp"
#include "data/io.hpp"
#include "mpi/fault_injector.hpp"
#include "util/timer.hpp"

namespace {

using namespace dnnd;

struct L2F {
  float operator()(std::span<const float> a, std::span<const float> b) const {
    return core::l2(a, b);
  }
};
struct L2U8 {
  float operator()(std::span<const std::uint8_t> a,
                   std::span<const std::uint8_t> b) const {
    return core::l2(a, b);
  }
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_u8_file(const std::string& path) {
  return ends_with(path, ".bvecs") || ends_with(path, ".u8bin");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s gen   <dataset> <prefix> [n] [nq]\n"
               "       %s build <base-file> <datastore> [k] [ranks]\n"
               "               [--checkpoint-every N] [--checkpoint-dir D] "
               "[--resume] [--threads N]\n"
               "       %s query <datastore> <query-file> [gt.ivecs] [eps]\n"
               "               [--serve N] [--replication F] [--kill R@T]\n"
               "       %s info  <datastore>\n"
               "       %s stats <run-prefix> [--straggler-factor F]\n"
               "       %s stats <run-prefix> --memory [--budget-gb G]\n"
               "       %s stats --diff <baseline> <current> "
               "[--tolerance PCT] [--mem-tolerance PCT]\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

/// build's crash-tolerance knobs: --checkpoint-every N persists a
/// CRC-validated checkpoint generation every N NN-Descent iterations
/// (default dir: <datastore>.ckpt); --resume continues an interrupted
/// build from the newest valid generation instead of starting over.
/// --threads N runs each simulated rank's hot loops on an N-thread pool
/// (bit-identical output for any N; 0 = auto via DNND_THREADS_PER_RANK).
struct BuildOptions {
  std::size_t checkpoint_every = 0;
  std::string checkpoint_dir;
  bool resume = false;
  std::size_t threads = 0;
};

int cmd_gen(int argc, char** argv) {
  const std::string name = argv[2];
  const std::string prefix = argv[3];
  const std::size_t n =
      argc > 4 ? static_cast<std::size_t>(std::atoll(argv[4])) : 0;
  const std::size_t nq =
      argc > 5 ? static_cast<std::size_t>(std::atoll(argv[5])) : 100;
  const auto& spec = data::dataset_by_name(name);
  const double scale =
      n > 0 ? static_cast<double>(n) / static_cast<double>(spec.scaled_entries)
            : 1.0;

  if (spec.element == data::ElementKind::kUint8) {
    const auto ds = data::make_dense_u8(spec, scale, nq);
    data::write_u8bin(prefix + ".base.u8bin", ds.base);
    data::write_u8bin(prefix + ".query.u8bin", ds.queries);
    const auto gt =
        baselines::brute_force_query_batch(ds.base, ds.queries, L2U8{}, 10);
    data::write_ivecs(prefix + ".gt.ivecs", gt);
    std::printf("wrote %zu base + %zu query points (uint8) + ground truth\n",
                ds.base.size(), ds.queries.size());
  } else if (spec.element == data::ElementKind::kFloat32) {
    const auto ds = data::make_dense_float(spec, scale, nq);
    data::write_fvecs(prefix + ".base.fvecs", ds.base);
    data::write_fvecs(prefix + ".query.fvecs", ds.queries);
    const auto gt =
        baselines::brute_force_query_batch(ds.base, ds.queries, L2F{}, 10);
    data::write_ivecs(prefix + ".gt.ivecs", gt);
    std::printf("wrote %zu base + %zu query points (float32) + ground truth\n",
                ds.base.size(), ds.queries.size());
  } else {
    std::fprintf(stderr, "gen: sparse datasets have no file format here\n");
    return 1;
  }
  return 0;
}

template <typename T, typename Fn>
int build_typed(const core::FeatureStore<T>& base, const std::string& store,
                std::size_t k, int ranks, const BuildOptions& opts) {
  // Causal tracing on by default for CLI builds: every 64th root message
  // starts a traced chain, cheap enough to leave on and dense enough that
  // a multi-iteration build yields cross-rank flow arrows. No-op (and
  // zero envelope bytes) when the library is built with DNND_TELEMETRY=OFF.
  // DNND_TRACE_SAMPLE_PERIOD overrides the period; 0 disables tracing,
  // which also makes handler byte counters byte-deterministic (traced
  // envelopes carry wall-clock varints) — the regression gate relies on
  // this (tests/check_metrics_regression.sh).
  std::uint64_t trace_period = 64;
  if (const char* env_period = std::getenv("DNND_TRACE_SAMPLE_PERIOD")) {
    trace_period = static_cast<std::uint64_t>(std::atoll(env_period));
  }
  comm::Config env_cfg;
  env_cfg.num_ranks = ranks;
  env_cfg.trace_sample_period = trace_period;
  core::DnndConfig cfg;
  cfg.k = k;
  cfg.threads_per_rank = opts.threads;

  std::unique_ptr<comm::Environment> env;
  std::unique_ptr<core::DnndRunner<T, Fn>> runner;
  util::Timer timer;
  core::DnndBuildStats stats;
  if (opts.checkpoint_every != 0 || opts.resume) {
    // Supervised path: checkpoint generations every N iterations and/or
    // resume from an earlier process's last valid generation. A rank
    // failure mid-build (real or injected) is absorbed by re-running from
    // the newest checkpoint in a fresh environment.
    core::CheckpointStore ckpt(
        opts.checkpoint_dir.empty() ? store + ".ckpt" : opts.checkpoint_dir);
    core::RecoveryOptions ropts;
    ropts.checkpoint_every = opts.checkpoint_every;
    ropts.resume = opts.resume;
    auto result = core::run_build_with_recovery<T, Fn>(
        ckpt,
        [&](std::size_t) { return std::make_unique<comm::Environment>(env_cfg); },
        [&](comm::Environment& e) {
          return std::make_unique<core::DnndRunner<T, Fn>>(e, cfg, Fn{});
        },
        [&](core::DnndRunner<T, Fn>& r) { r.distribute(base); }, ropts);
    stats = result.report.stats;
    env = std::move(result.env);
    runner = std::move(result.runner);
    if (!result.report.resumed_from.empty()) {
      std::printf("resumed from iteration %llu (checkpoint dir %s)\n",
                  static_cast<unsigned long long>(
                      result.report.resumed_from.back()),
                  ckpt.directory().c_str());
    }
    if (result.report.checkpoints_written != 0) {
      std::printf("checkpoints: %llu written, %llu bytes, %.3fs wall\n",
                  static_cast<unsigned long long>(
                      result.report.checkpoints_written),
                  static_cast<unsigned long long>(
                      result.report.checkpoint_bytes),
                  result.report.checkpoint_seconds);
    }
  } else {
    env = std::make_unique<comm::Environment>(env_cfg);
    runner = std::make_unique<core::DnndRunner<T, Fn>>(*env, cfg, Fn{});
    runner->distribute(base);
    stats = runner->build();
  }
  runner->optimize();
  std::printf("built k=%zu graph over %zu points on %d ranks: %zu iters, "
              "%.2fs wall, %.3e sim-units\n",
              k, base.size(), ranks, stats.iterations, timer.elapsed_s(),
              runner->last_build_stats().simulated_parallel_units);

  // Size the store from the data: features + graph + slack.
  const std::size_t bytes =
      (base.size() * (base.dim() * sizeof(T) + 64) +
       base.size() * static_cast<std::size_t>(static_cast<double>(k) * 1.5) *
           sizeof(core::Neighbor)) *
          4 +
      (64 << 20);
  auto mgr = pmem::Manager::create(store, bytes);
  core::store_graph(mgr, runner->gather(), "knng");
  core::store_features(mgr, base, "points");
  core::IndexMetadata meta;
  meta.set_metric("L2");
  meta.k = static_cast<std::uint32_t>(k);
  meta.dim = static_cast<std::uint32_t>(base.dim());
  meta.num_points = base.size();
  meta.build_seed = cfg.seed;
  core::store_index_metadata(mgr, meta);
  mgr.flush();
  std::printf("datastore %s: %zu / %zu bytes allocated\n", store.c_str(),
              mgr.allocated_bytes(), mgr.capacity_bytes());

  // Publish the datastore's arena accounting into rank 0's registry so
  // the memory report sees it next to the heap subsystems (flagged as
  // file-backed there — it does not count against a DRAM budget).
  if constexpr (telemetry::kEnabled) {
    const pmem::ArenaStats astats = mgr.stats();
    auto& tel0 = env->telemetry(0);
    tel0.set_with_peak(
        tel0.gauge("mem.pmem.arena.bytes", telemetry::MetricUnit::kBytes),
        static_cast<std::int64_t>(astats.allocated_bytes),
        static_cast<std::int64_t>(astats.high_water_bytes));
  }
  // Telemetry artifacts ride along with the datastore: merged + per-rank
  // metrics, a Chrome trace of the build's phase timeline with causal
  // message flows (load in chrome://tracing), and the per-iteration
  // counter time series. Exported after the datastore is persisted so the
  // memory gauges capture the whole build, arena included. With
  // DNND_TELEMETRY=OFF all three files are still written as
  // valid-but-empty documents. Inspect with `dnnd_cli stats <datastore>`.
  env->export_telemetry(store + ".metrics.json", store + ".trace.json",
                        store + ".timeseries.json");
  std::printf("telemetry: %s.{metrics,trace,timeseries}.json\n",
              store.c_str());
  return 0;
}

int cmd_build(int argc, char** argv) {
  // Positional args first ([base store k ranks]), then --flag [value].
  std::vector<std::string> positional;
  BuildOptions opts;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--checkpoint-every" && i + 1 < argc) {
      opts.checkpoint_every = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--checkpoint-dir" && i + 1 < argc) {
      opts.checkpoint_dir = argv[++i];
    } else if (arg == "--resume") {
      opts.resume = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      opts.threads = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "build: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() < 2) {
    std::fprintf(stderr, "build needs <base-file> <datastore>\n");
    return 2;
  }
  const std::string& base_file = positional[0];
  const std::string& store = positional[1];
  const std::size_t k =
      positional.size() > 2
          ? static_cast<std::size_t>(std::atoll(positional[2].c_str()))
          : 10;
  const int ranks =
      positional.size() > 3 ? std::atoi(positional[3].c_str()) : 8;

  if (is_u8_file(base_file)) {
    const auto base = ends_with(base_file, ".bvecs")
                          ? data::read_bvecs(base_file)
                          : data::read_u8bin(base_file);
    return build_typed<std::uint8_t, L2U8>(base, store, k, ranks, opts);
  }
  const auto base = ends_with(base_file, ".fvecs")
                        ? data::read_fvecs(base_file)
                        : data::read_fbin(base_file);
  return build_typed<float, L2F>(base, store, k, ranks, opts);
}

/// query's serving knobs: --serve N answers through the replicated
/// distributed serving path on N simulated ranks instead of the local
/// zero-copy searcher; --replication F mirrors each shard onto F ranks;
/// --kill R@T injects a crash-stop fault on rank R at tick T of the query
/// epoch (repeatable) to demonstrate failover end to end.
struct QueryOptions {
  std::string gt_file;
  double epsilon = 0.2;
  int serve_ranks = 0;  ///< 0 = local zero-copy searcher
  int replication = 1;
  std::vector<mpi::CrashFault> kills;
};

double mean_recall_against(const std::string& gt_file,
                           const std::vector<core::SearchResult>& results) {
  const auto truth = data::read_ivecs(gt_file);
  std::vector<std::vector<core::Neighbor>> computed;
  computed.reserve(results.size());
  for (const auto& r : results) computed.push_back(r.neighbors);
  return core::mean_query_recall(computed, truth, 10);
}

template <typename T, typename Fn>
int serve_typed(pmem::Manager& mgr, const std::string& store,
                const core::FeatureStore<T>& queries,
                const QueryOptions& opts) {
  const auto meta = core::load_index_metadata(mgr);
  core::validate_index_metadata(meta, "L2", queries.dim());
  const auto graph = core::load_graph(mgr, "knng");
  const auto base = core::load_features<T>(mgr, "points");

  comm::Config env_cfg;
  env_cfg.num_ranks = opts.serve_ranks;
  mpi::FaultPlan plan;
  plan.crashes = opts.kills;
  env_cfg.fault_plan = std::move(plan);
  comm::Environment env(env_cfg);

  core::ServingConfig serving;
  serving.replication_factor = opts.replication;
  core::DistributedQueryService<T, Fn> service(env, graph, base, Fn{},
                                               serving);

  core::SearchParams params;
  params.num_neighbors = 10;
  params.epsilon = opts.epsilon;
  params.num_entry_points = 24;

  util::Timer timer;
  const auto results = service.run(queries, params);
  const double seconds = timer.elapsed_s();

  // Structured JSON event log, one object per line: every detected rank
  // failure with its detector context, then a run summary with the
  // failover/degraded counters. Grep-friendly ("event":"...") and stable
  // enough for scripts to parse.
  for (const auto& f : service.rank_failures()) {
    std::printf("{\"event\":\"rank_failure\",\"failed_rank\":%d,"
                "\"detected_by\":%d,\"epoch\":%llu,\"silent_ticks\":%llu}\n",
                f.failed_rank, f.detected_by,
                static_cast<unsigned long long>(f.epoch),
                static_cast<unsigned long long>(f.silent_ticks));
  }
  std::size_t degraded = 0;
  double min_coverage = 1.0;
  double coverage_sum = 0.0;
  std::uint64_t evals = 0;
  for (const auto& r : results) {
    if (r.degraded) ++degraded;
    min_coverage = std::min(min_coverage, r.coverage);
    coverage_sum += r.coverage;
    evals += r.distance_evals;
  }
  const auto metrics = env.aggregate_metrics();
  const auto counter = [&](const char* name) -> unsigned long long {
    return static_cast<unsigned long long>(metrics.counter_value(name));
  };
  std::printf(
      "{\"event\":\"serving_summary\",\"queries\":%zu,\"ranks\":%d,"
      "\"replication\":%d,\"qps\":%.0f,\"evals_per_query\":%.0f,"
      "\"degraded\":%zu,\"min_coverage\":%.4f,\"mean_coverage\":%.4f,"
      "\"failover\":{\"reissues\":%llu,\"rerouted\":%llu,"
      "\"resubmitted\":%llu,\"abandoned\":%llu,\"hedges\":%llu},"
      "\"degraded_completed\":%llu}\n",
      queries.size(), opts.serve_ranks, opts.replication,
      static_cast<double>(queries.size()) / seconds,
      static_cast<double>(evals) / static_cast<double>(queries.size()),
      degraded, min_coverage,
      coverage_sum / static_cast<double>(queries.size()),
      counter("query.failover.reissues"), counter("query.failover.rerouted"),
      counter("query.failover.resubmitted"),
      counter("query.failover.abandoned"), counter("query.hedge.sent"),
      counter("query.degraded.completed"));
  if (!opts.gt_file.empty()) {
    std::printf("{\"event\":\"recall\",\"recall_at_10\":%.4f}\n",
                mean_recall_against(opts.gt_file, results));
  }
  // Serving telemetry rides along under a distinct prefix so it never
  // clobbers the build's artifacts: inspect with
  // `dnnd_cli stats <datastore>.query`.
  env.export_telemetry(store + ".query.metrics.json",
                       store + ".query.trace.json",
                       store + ".query.timeseries.json");
  return 0;
}

/// Parses all of `text` as a base-10 integer of `out`'s type. False for
/// empty text, a non-digit anywhere (trailing junk included) or a value
/// out of range, so a mistyped flag is rejected rather than read as 0.
template <typename Int>
bool parse_whole_number(std::string_view text, Int& out) {
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

template <typename T, typename Fn>
int query_typed(pmem::Manager& mgr, const core::FeatureStore<T>& queries,
                const std::string& gt_file, double epsilon) {
  // Refuse to search with the wrong metric or dimensionality.
  const auto meta = core::load_index_metadata(mgr);
  core::validate_index_metadata(meta, "L2", queries.dim());
  const auto graph = core::load_graph(mgr, "knng");
  // Zero-copy feature access straight out of the mapping.
  const core::PersistentFeatureView<T> view(mgr, "points");
  core::GraphSearcher searcher(graph, view, Fn{});
  core::SearchParams params;
  params.num_neighbors = 10;
  params.epsilon = epsilon;
  params.num_entry_points = 24;

  util::Timer timer;
  const auto results = searcher.batch_search(queries, params, 2);
  const double seconds = timer.elapsed_s();
  std::uint64_t evals = 0;
  for (const auto& r : results) evals += r.distance_evals;
  std::printf("%zu queries, epsilon %.3f: %.0f qps, %.0f evals/query\n",
              queries.size(), epsilon,
              static_cast<double>(queries.size()) / seconds,
              static_cast<double>(evals) / static_cast<double>(queries.size()));

  if (!gt_file.empty()) {
    std::printf("recall@10: %.4f\n", mean_recall_against(gt_file, results));
  }
  return 0;
}

int cmd_query(int argc, char** argv) {
  // Positional args first ([datastore query-file gt eps]), then flags.
  std::vector<std::string> positional;
  QueryOptions opts;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--serve" && i + 1 < argc) {
      if (!parse_whole_number(argv[++i], opts.serve_ranks) ||
          opts.serve_ranks < 1) {
        std::fprintf(stderr,
                     "query: --serve wants a rank count >= 1, got %s\n",
                     argv[i]);
        return 2;
      }
    } else if (arg == "--replication" && i + 1 < argc) {
      if (!parse_whole_number(argv[++i], opts.replication) ||
          opts.replication < 1) {
        std::fprintf(stderr,
                     "query: --replication wants a factor >= 1, got %s\n",
                     argv[i]);
        return 2;
      }
    } else if (arg == "--kill" && i + 1 < argc) {
      // R@T: rank R crashes at tick T of the query epoch.
      const std::string_view spec = argv[++i];
      const auto at = spec.find('@');
      mpi::CrashFault crash;
      crash.after_serving_epoch = true;
      if (at == std::string_view::npos ||
          !parse_whole_number(spec.substr(0, at), crash.rank) ||
          crash.rank < 0 ||
          !parse_whole_number(spec.substr(at + 1), crash.at_tick)) {
        std::fprintf(stderr,
                     "query: --kill wants R@T with integers R, T >= 0, "
                     "got %s\n",
                     argv[i]);
        return 2;
      }
      opts.kills.push_back(crash);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "query: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() < 2) {
    std::fprintf(stderr, "query needs <datastore> <query-file>\n");
    return 2;
  }
  const std::string& store = positional[0];
  const std::string& query_file = positional[1];
  opts.gt_file = positional.size() > 2 ? positional[2] : "";
  opts.epsilon =
      positional.size() > 3 ? std::atof(positional[3].c_str()) : 0.2;
  if (opts.serve_ranks == 0 && (!opts.kills.empty() || opts.replication > 1)) {
    std::fprintf(stderr, "query: --kill/--replication need --serve N\n");
    return 2;
  }

  auto mgr = pmem::Manager::open(store);
  if (is_u8_file(query_file)) {
    const auto queries = ends_with(query_file, ".bvecs")
                             ? data::read_bvecs(query_file)
                             : data::read_u8bin(query_file);
    if (opts.serve_ranks > 0) {
      return serve_typed<std::uint8_t, L2U8>(mgr, store, queries, opts);
    }
    return query_typed<std::uint8_t, L2U8>(mgr, queries, opts.gt_file,
                                           opts.epsilon);
  }
  const auto queries = ends_with(query_file, ".fvecs")
                           ? data::read_fvecs(query_file)
                           : data::read_fbin(query_file);
  if (opts.serve_ranks > 0) {
    return serve_typed<float, L2F>(mgr, store, queries, opts);
  }
  return query_typed<float, L2F>(mgr, queries, opts.gt_file, opts.epsilon);
}

int cmd_info(int, char** argv) {
  auto mgr = pmem::Manager::open(argv[2]);
  std::printf("datastore %s\n", argv[2]);
  std::printf("  capacity  %zu bytes\n", mgr.capacity_bytes());
  std::printf("  allocated %zu bytes\n", mgr.allocated_bytes());
  std::printf("  has graph    : %s\n", mgr.contains("knng") ? "yes" : "no");
  std::printf("  has features : %s\n", mgr.contains("points") ? "yes" : "no");
  if (mgr.contains("index_meta")) {
    const auto meta = core::load_index_metadata(mgr);
    std::printf("  metric %s, k %u, dim %u, %llu points, seed %llu\n",
                std::string(meta.metric_name()).c_str(), meta.k, meta.dim,
                static_cast<unsigned long long>(meta.num_points),
                static_cast<unsigned long long>(meta.build_seed));
  }
  if (mgr.contains("knng")) {
    const auto graph = core::load_graph(mgr, "knng");
    std::printf("  graph: %zu vertices, %zu edges, max degree %zu\n",
                graph.num_vertices(), graph.num_edges(), graph.max_degree());
  }
  return 0;
}

// Exit code for `stats --diff` when a counter drifts out of tolerance —
// distinct from 1 (operational error) so CI can tell "regression" from
// "the tool broke".
constexpr int kExitOutOfTolerance = 3;

int cmd_stats(int argc, char** argv) {
  // Flag parsing: positional args first, then --flag value pairs.
  std::vector<std::string> positional;
  double straggler_factor = 1.25;
  double tolerance_pct = 0.0;
  double mem_tolerance_pct = -1.0;  // negative: reuse --tolerance
  double budget_gb = 16.0;
  bool diff = false;
  bool memory = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--diff") {
      diff = true;
    } else if (arg == "--memory") {
      memory = true;
    } else if (arg == "--straggler-factor" && i + 1 < argc) {
      straggler_factor = std::atof(argv[++i]);
    } else if (arg == "--tolerance" && i + 1 < argc) {
      tolerance_pct = std::atof(argv[++i]);
    } else if (arg == "--mem-tolerance" && i + 1 < argc) {
      mem_tolerance_pct = std::atof(argv[++i]);
    } else if (arg == "--budget-gb" && i + 1 < argc) {
      budget_gb = std::atof(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "stats: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }

  if (diff) {
    if (positional.size() != 2) {
      std::fprintf(stderr,
                   "stats --diff needs <baseline.metrics.json> "
                   "<current.metrics.json>\n");
      return 2;
    }
    const auto baseline = telemetry::load_json_file(positional[0]);
    const auto current = telemetry::load_json_file(positional[1]);
    if (!baseline || !current) {
      std::fprintf(stderr, "stats: cannot read %s\n",
                   (!baseline ? positional[0] : positional[1]).c_str());
      return 1;
    }
    const auto report = telemetry::diff_metrics(*baseline, *current,
                                                tolerance_pct,
                                                mem_tolerance_pct);
    telemetry::print_diff_report(std::cout, report, tolerance_pct);
    return report.within_tolerance() ? 0 : kExitOutOfTolerance;
  }

  if (positional.size() != 1) {
    std::fprintf(stderr, "stats needs one <run-prefix>\n");
    return 2;
  }

  if (memory) {
    const std::string& prefix = positional[0];
    const auto metrics = telemetry::load_json_file(prefix + ".metrics.json");
    if (!metrics) {
      std::fprintf(stderr, "stats: cannot read %s.metrics.json\n",
                   prefix.c_str());
      return 1;
    }
    telemetry::print_memory_report(
        std::cout, telemetry::analyze_memory(*metrics, budget_gb));
    return 0;
  }
  // Accept either the datastore prefix (`run.store`) or a directory-style
  // prefix — artifacts are <prefix>.metrics.json etc., exactly as `build`
  // writes them.
  const std::string& prefix = positional[0];
  const auto metrics = telemetry::load_json_file(prefix + ".metrics.json");
  const auto trace = telemetry::load_json_file(prefix + ".trace.json");
  const auto timeseries =
      telemetry::load_json_file(prefix + ".timeseries.json");
  if (!metrics && !trace && !timeseries) {
    std::fprintf(stderr, "stats: no telemetry artifacts found at %s.*\n",
                 prefix.c_str());
    return 1;
  }
  if (metrics) {
    std::printf("run: %d ranks, telemetry %s\n",
                static_cast<int>(metrics->at("ranks").as_number()),
                metrics->at("enabled").as_bool() ? "on" : "off");
    // Checkpoint/recovery overhead, when the run wrote any (build
    // --checkpoint-every). Counters live in the merged metrics object.
    if (metrics->contains("metrics") &&
        metrics->at("metrics").contains("counters")) {
      const auto& counters = metrics->at("metrics").at("counters");
      const auto counter = [&](const char* name) -> double {
        return counters.contains(name) ? counters.at(name).as_number() : 0.0;
      };
      const double written = counter("ckpt.checkpoints_written");
      if (written > 0) {
        std::printf(
            "checkpointing: %.0f checkpoints, %.1f KiB, %.3fs wall "
            "(%.1f ms each)\n",
            written, counter("ckpt.bytes_written") / 1024.0,
            counter("ckpt.write_us") / 1e6,
            counter("ckpt.write_us") / 1e3 / written);
      }
      // Serving failover/degradation, when the artifact came from a
      // `query --serve` run (a plain build never constructs the query
      // service, so its export never contains these counters).
      const double failover = counter("query.failover.reissues") +
                              counter("query.failover.rerouted") +
                              counter("query.failover.resubmitted") +
                              counter("query.failover.abandoned") +
                              counter("query.hedge.sent") +
                              counter("query.degraded.completed");
      if (failover > 0 || counters.contains("query.failover.reissues")) {
        std::printf(
            "serving failover: %.0f re-issued, %.0f rerouted, %.0f "
            "resubmitted, %.0f abandoned, %.0f hedged\n",
            counter("query.failover.reissues"),
            counter("query.failover.rerouted"),
            counter("query.failover.resubmitted"),
            counter("query.failover.abandoned"),
            counter("query.hedge.sent"));
        std::printf("serving degraded completions: %.0f\n",
                    counter("query.degraded.completed"));
      }
      const double recoveries = counter("recovery.events");
      const double resumes = counter("recovery.resumes");
      // A manual `--resume` has resumes > 0 with no failure event in THIS
      // process (the crash happened in the interrupted one), so either
      // counter alone warrants the line.
      if (recoveries > 0 || resumes > 0) {
        std::printf("recovery: %.0f rank failure(s) absorbed, "
                    "%.0f resume(s) from checkpoint\n",
                    recoveries, resumes);
      }
    }
  }
  if (trace) {
    const auto report = telemetry::analyze_load(*trace, straggler_factor);
    telemetry::print_load_report(std::cout, report, straggler_factor);
  } else {
    std::printf("no trace.json — skipping load analysis\n");
  }
  if (timeseries) {
    telemetry::print_timeseries_summary(
        std::cout, telemetry::summarize_timeseries(*timeseries));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string mode = argv[1];
  try {
    if (mode == "gen" && argc >= 4) return cmd_gen(argc, argv);
    if (mode == "build" && argc >= 4) return cmd_build(argc, argv);
    if (mode == "query" && argc >= 4) return cmd_query(argc, argv);
    if (mode == "info" && argc >= 3) return cmd_info(argc, argv);
    if (mode == "stats" && argc >= 3) return cmd_stats(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage(argv[0]);
}
