// §7 — performance profiling breakdown.
//
// The paper's first stated future-work item: "further performance
// profiling is required to identify bottlenecks, such as finding how much
// the computation or communication is heavier than the other". This bench
// provides that view for the reproduction: per-phase simulated work and
// barrier counts, per-handler communication volume, and the compute/
// communication split implied by the work model, across rank counts.
#include <cinttypes>

#include "common.hpp"

using namespace dnnd;  // NOLINT

int main() {
  bench::print_header(
      "Section 7 profiling: where DNND spends its work (per phase, per "
      "message type, compute vs communication)");

  const double scale = bench::bench_scale();
  const auto n = static_cast<std::size_t>(6000.0 * scale);
  const auto base =
      data::GaussianMixture(bench::billion_standin_spec(96, 107)).sample(n, 1);

  for (const int ranks : {4, 16}) {
    comm::Environment env(comm::Config{.num_ranks = ranks});
    core::DnndConfig cfg;
    cfg.k = 10;
    core::DnndRunner<float, bench::L2Fn> runner(env, cfg, bench::L2Fn{});
    runner.distribute(base);
    runner.build();
    runner.optimize();

    std::printf("\n-- %d ranks, %zu points --\n", ranks, n);
    std::printf("%-12s %16s %10s %9s\n", "phase", "sim-units", "share",
                "barriers");
    double total = 0;
    for (const auto& [name, cost] : runner.phase_profile()) {
      total += cost.simulated_parallel_units;
    }
    for (const auto& [name, cost] : runner.phase_profile()) {
      std::printf("%-12s %16.3e %9.1f%% %9zu\n", name.c_str(),
                  cost.simulated_parallel_units,
                  100.0 * cost.simulated_parallel_units / total,
                  cost.barriers);
    }

    // Compute vs communication under the work model.
    std::uint64_t evals = 0;
    for (int r = 0; r < ranks; ++r) {
      evals += runner.engine(r).distance_evals();
    }
    const auto stats = env.aggregate_stats();
    const double compute = static_cast<double>(evals) *
                           static_cast<double>(base.dim()) *
                           core::kWorkPerFeatureElement;
    const double communication =
        static_cast<double>(stats.total_remote_bytes()) *
        core::kWorkPerSentByte;
    std::printf("compute %.3e units (%.0f%%) vs communication %.3e units "
                "(%.0f%%)\n",
                compute, 100.0 * compute / (compute + communication),
                communication,
                100.0 * communication / (compute + communication));

    std::printf("top message types by volume:\n");
    for (const auto& h : stats.handlers()) {
      if (h.remote_bytes == 0) continue;
      std::printf("  %-12s %12" PRIu64 " msgs %14" PRIu64 " bytes\n",
                  h.label.c_str(), h.remote_messages, h.remote_bytes);
    }

    // Registry view of the same run (merged across ranks) plus the
    // recorded barrier-wait distribution; the full artifacts land next to
    // the bench so they can be diffed between commits or opened in
    // chrome://tracing.
    const auto merged = env.aggregate_metrics();
    std::printf("telemetry: %" PRIu64 " distance evals, %" PRIu64
                " neighbor-list updates, inbox-depth peak %" PRId64 "\n",
                merged.counter_value("engine.distance_evals"),
                merged.counter_value("engine.updates"),
                merged.gauge_peak("comm.inbox_depth"));
    const auto& waits = merged.histogram_of("comm.barrier_wait_us");
    std::printf("barrier waits: %" PRIu64 " drains, mean %.0f us, max %"
                PRIu64 " us\n",
                waits.count(), waits.mean(), waits.max());
    const std::string prefix = "profile_r" + std::to_string(ranks);
    env.export_telemetry(prefix + ".metrics.json", prefix + ".trace.json",
                         prefix + ".timeseries.json");
    std::printf("wrote %s.{metrics,trace,timeseries}.json\n", prefix.c_str());
  }

  std::printf(
      "\nReading guide: 'checks' is the neighbor-check phase (a Type-1 "
      "and a Type-2+\nround per chunk). type2plus leads the bytes: each "
      "bundle carries u1's feature\nonce per (u1, rank), where the paper's "
      "per-pair Type-2 messages carried it once\nper pair — the §4.3 "
      "bottleneck, cut further by bundling.\n");
  return 0;
}
