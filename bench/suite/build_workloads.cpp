// build-deep and build-kosarak: repeated DNND builds of one point set.
//
// build-deep is the paper's headline workload (DEEP1B stand-in, dense
// fp32, L2): transport dominates, and the SIMD kernels and the per-rank
// thread pool are in play. build-kosarak (sparse sets, Jaccard) sends as
// many messages with fewer than half the bytes, so per-message and
// per-byte transport costs separate; it bypasses the SIMD kernels and the
// pool, and it is the only workload that writes checkpoints.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "baselines/brute_force.hpp"
#include "common.hpp"
#include "data/datasets.hpp"
#include "data/synthetic.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace dnnd::suite {
namespace {

constexpr std::size_t kPoints = 5000;
constexpr std::size_t kSmokePoints = 2000;
/// Vertices whose exact neighbors are computed for graph recall.
constexpr std::size_t kSampledVertices = 500;
constexpr std::size_t kProbeQueries = 256;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kMinBuilds = 3;
/// Unmeasured builds before the window. The first builds of a process run
/// up to 1.7x slower while the allocator's free lists and the page tables
/// settle; the window measures the steady state.
constexpr std::size_t kWarmupBuilds = 2;

struct BuildWorkload {
  BuildConfig config;
  double recall_floor = 0.0;
};

template <typename T>
struct BuildSetup {
  core::FeatureStore<T> points;
  std::vector<core::VertexId> sample;
  std::vector<std::vector<core::VertexId>> truth;
};

/// Exact k nearest neighbors of each sampled vertex, itself excluded.
template <typename T, typename Fn>
std::vector<std::vector<core::VertexId>> sampled_truth(
    const core::FeatureStore<T>& points,
    const std::vector<core::VertexId>& sample) {
  std::vector<std::vector<core::VertexId>> truth;
  truth.reserve(sample.size());
  for (const core::VertexId v : sample) {
    auto ids = baselines::brute_force_query(points, points[v], Fn{}, kK + 1);
    std::erase(ids, v);
    ids.resize(std::min(ids.size(), kK));
    truth.push_back(std::move(ids));
  }
  return truth;
}

struct BuildWindow {
  std::vector<double> latencies_s;
  std::vector<double> peak_rss_mib;  ///< VmHWM of each build alone
  double recall = 0.0;
  std::vector<BuildResult> builds;  ///< only when kept; last one keeps env
};

/// Builds in a closed loop for one window. Every build is audited and must
/// reproduce the first build's fingerprint (the sequential driver is
/// deterministic); the first build's sampled recall must reach the floor,
/// else every build counts as failed.
template <typename T, typename Fn>
BuildWindow build_window(
    const Options& options, const BuildWorkload& workload,
    const BuildSetup<T>& setup, const std::string& scratch, bool keep,
    const std::function<void(core::DnndRunner<T, Fn>&)>& after_first,
    Report& report, Tracer& tracer) {
  BuildWindow out;
  const std::size_t n = setup.points.size();
  std::uint64_t reference = 0;
  std::uint64_t failed = 0;
  closed_loop(options.seconds, options.smoke ? 1 : kMinBuilds, options.smoke,
              [&](std::size_t i) {
                restart_peak_rss();
                BuildResult b = timed_build<T, Fn>(
                    setup.points, workload.config, tracer, scratch,
                    i == 0 ? after_first
                           : std::function<void(core::DnndRunner<T, Fn>&)>{});
                out.peak_rss_mib.push_back(peak_rss_mib());
                out.latencies_s.push_back(b.total_s);
                std::string why = audit_graph(b.graph, n, kMaxRow);
                const std::uint64_t print = graph_fingerprint(b.graph);
                if (i == 0) {
                  reference = print;
                  out.recall = sampled_graph_recall(b.graph, setup.sample,
                                                    setup.truth, kK);
                } else if (why.empty() && print != reference) {
                  why = "graph differs from the first build";
                }
                if (!why.empty()) {
                  ++failed;
                  report.fail("build " + std::to_string(i) + ": " + why);
                }
                if (keep) {
                  if (!out.builds.empty()) out.builds.back().env.reset();
                  out.builds.push_back(std::move(b));
                }
              });
  if (out.recall < workload.recall_floor) {
    report.fail("graph recall " + std::to_string(out.recall) +
                " below the floor " + std::to_string(workload.recall_floor));
    failed = out.latencies_s.size();
  }
  report.count_ops(out.latencies_s.size(), failed);
  return out;
}

/// `draw(n, seed)` samples n points of the workload's family; the run's
/// seed selects the base draw and seed + 1 the probe queries.
template <typename T, typename Fn, typename Draw>
void run_build_workload(const Options& options, const std::string& scratch,
                        const BuildWorkload& workload, const Draw& draw,
                        Report& report, Tracer& tracer) {
  const std::size_t n = options.smoke ? kSmokePoints : kPoints;
  const auto make_setup = [&] {
    auto setup = std::make_unique<BuildSetup<T>>();
    const auto span = tracer.span("setup", "bench");
    {
      const auto step = tracer.span("generate", "data");
      setup->points = draw(n, options.seed);
    }
    {
      const auto step = tracer.span("ground_truth", "baseline");
      for (std::size_t i = 0; i < kSampledVertices; ++i) {
        setup->sample.push_back(
            static_cast<core::VertexId>(i * n / kSampledVertices));
      }
      setup->truth = sampled_truth<T, Fn>(setup->points, setup->sample);
    }
    return setup;
  };
  auto setup =
      repeated_setup(options.smoke ? 1 : kSetups, report, make_setup);
  for (std::size_t i = 0; i < (options.smoke ? 0 : kWarmupBuilds); ++i) {
    (void)timed_build<T, Fn>(setup->points, workload.config, tracer, scratch);
  }

  const BuildWindow untraced = build_window<T, Fn>(
      options, workload, *setup, scratch, false, {}, report, tracer);
  std::printf("build seconds:");
  for (const double s : untraced.latencies_s) std::printf(" %.3f", s);
  std::printf("\n");
  report.set("peak_rss_mb", median(untraced.peak_rss_mib), "MiB");
  const double p50_s = median(untraced.latencies_s);
  report.set("latency_p50_ms", p50_s * 1e3, "ms");
  report.set("latency_p99_ms", tail_latency(untraced.latencies_s) * 1e3,
             "ms");
  report.set("throughput", static_cast<double>(n) / p50_s, "1/s");
  report.set("recall", untraced.recall, "fraction");
  if (!options.traced()) return;

  tracer.enable();
  setup = make_setup();
  Probes probes;
  const BuildWindow traced = build_window<T, Fn>(
      options, workload, *setup, scratch, true,
      [&](core::DnndRunner<T, Fn>& runner) {
        probes.checkpoint =
            probe_checkpoint(runner, scratch + "/probe-ckpt", tracer);
      },
      report, tracer);
  const double traced_p50_s = median(traced.latencies_s);
  report_trace_overhead(report, p50_s * 1e3, traced_p50_s * 1e3,
                        static_cast<double>(n) / p50_s,
                        static_cast<double>(n) / traced_p50_s);

  const core::FeatureStore<T> queries = draw(kProbeQueries, options.seed + 1);
  const core::KnnGraph& graph = traced.builds.back().graph;
  probes.transport = probe_transport(tracer, options.smoke);
  probes.kernel_ns_per_eval =
      probe_kernel_ns<T, Fn>(setup->points, tracer, options.smoke);
  probes.dquery = probe_query_service<T, Fn>(graph, setup->points, queries,
                                             query_params(), tracer);
  probes.search = probe_search<T, Fn>(graph, setup->points, queries,
                                      query_params(), tracer);
  probes.reference_s = probe_reference<T, Fn>(setup->points, tracer);
  report_layers(report, traced.builds, probes);
  write_trace_outputs(options.trace_dir, tracer, *traced.builds.back().env);
}

}  // namespace

void run_build_deep(const Options& options, const std::string& scratch,
                    Report& report, Tracer& tracer) {
  const data::DatasetSpec& spec = data::dataset_by_name("deep1b");
  const data::GaussianMixture family(
      bench::billion_standin_spec(spec.dim, spec.seed));
  run_build_workload<float, bench::L2Fn>(
      options, scratch,
      BuildWorkload{BuildConfig{.threads_per_rank = 4}, 0.80},
      [&family](std::size_t n, std::uint64_t seed) {
        return family.sample(n, seed);
      },
      report, tracer);
}

void run_build_kosarak(const Options& options, const std::string& scratch,
                       Report& report, Tracer& tracer) {
  const data::DatasetSpec& spec = data::dataset_by_name("kosarak");
  data::SparseSetSpec sets;
  sets.universe = static_cast<std::uint32_t>(spec.dim);
  sets.seed = spec.seed;
  const data::SparseSetFamily family(sets);
  run_build_workload<std::uint32_t, bench::JacFn>(
      options, scratch,
      BuildWorkload{
          BuildConfig{.threads_per_rank = 1, .checkpoint_every = 2}, 0.95},
      [&family](std::size_t n, std::uint64_t seed) {
        return family.sample(n, seed);
      },
      report, tracer);
}

}  // namespace dnnd::suite
