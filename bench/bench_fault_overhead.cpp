// Fault-injection / reliability-protocol overhead.
//
// Not a paper figure: this quantifies the cost of the chaos-testing
// substrate so the "zero overhead when disabled" claim stays honest. The
// same DNND build (DEEP1B stand-in, k = 10, 8 ranks) runs under four
// transport configurations:
//
//   clean          — no injector installed; the fast path the experiment
//                    benches use. This row is the baseline.
//   ckpt-off       — checkpoint hook armed with every=0 (the
//                    `--checkpoint-every 0` CLI path): must match clean —
//                    disabled checkpointing is one integer compare per
//                    iteration, nothing else.
//   ckpt-every-2   — epoch checkpoint written every 2 iterations: the
//                    real price of crash-stop insurance.
//   protocol-only  — injector installed with zero fault probabilities:
//                    isolates the retry/dedup protocol cost (sequence
//                    numbers, acks, pending-buffer copies).
//   light-faults   — 5% drop/dup, 10% delay/reorder: a misbehaving fabric.
//   heavy-faults   — 25% drop, 15% dup, 25% delay/reorder + rank stalls.
//
// Every row reports wall time, transport datagrams, protocol traffic
// (acks, retransmits, suppressed duplicates), checkpoints written, and
// final recall@10 — which must be identical in every row (the protocol
// restores exactly-once delivery, checkpointing only reads quiescent
// cuts, and the engine's arrival-order canonicalization makes the result
// schedule-independent).
// A second table covers the query-serving path (ISSUE 10): the same
// index served with replication off (rf=1, the default) vs mirrored onto
// two ranks (rf=2). Answers must be bit-identical — replication only
// changes who *can* answer — and the rf=1 row must carry zero replica
// bytes: the failover machinery is pay-for-what-you-use.
#include <cinttypes>
#include <filesystem>

#include "common.hpp"
#include "core/checkpoint_store.hpp"
#include "core/distributed_query.hpp"
#include "core/dnnd_checkpoint.hpp"
#include "mpi/fault_injector.hpp"

using namespace dnnd;  // NOLINT

namespace {

struct Row {
  const char* name;
  double wall_s = 0;
  double recall = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t acks = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t dups_suppressed = 0;
  std::uint64_t injected_drops = 0;
  std::uint64_t checkpoints = 0;
};

// `checkpoint_mode`: -1 = no hook installed (clean), 0 = hook armed but
// disabled (every=0), N>0 = checkpoint every N iterations.
Row run(const char* name, const core::FeatureStore<float>& base,
        const core::KnnGraph& exact, const mpi::FaultPlan& plan,
        int checkpoint_mode = -1) {
  comm::Environment env([&] {
    comm::Config cfg{.num_ranks = 8};
    cfg.fault_plan = plan;
    return cfg;
  }());
  core::DnndConfig cfg;
  cfg.k = 10;
  cfg.delta = 0.0;
  cfg.max_iterations = 10;
  cfg.redundant_check_reduction = false;  // schedule-independent setup
  core::DnndRunner<float, bench::L2Fn> runner(env, cfg, bench::L2Fn{});
  runner.distribute(base);

  const auto ckpt_dir =
      std::filesystem::temp_directory_path() / "dnnd_bench_fault_ckpt";
  std::filesystem::remove_all(ckpt_dir);
  core::CheckpointStore store(ckpt_dir.string());
  std::uint64_t checkpoints = 0;
  if (checkpoint_mode >= 0) {
    runner.set_checkpoint_hook(
        static_cast<std::size_t>(checkpoint_mode), [&](std::size_t, bool) {
          core::write_checkpoint_generation(store, runner, 64ull << 20);
          ++checkpoints;
        });
  }

  util::Timer timer;
  runner.build();
  Row row;
  row.name = name;
  row.wall_s = timer.elapsed_s();
  row.recall = core::graph_recall(runner.gather(), exact, 10);
  row.datagrams = env.world().datagrams_posted();
  const auto transport = env.aggregate_transport_counters();
  row.acks = transport.acks_sent;
  row.retransmits = transport.retransmits;
  row.dups_suppressed = transport.duplicates_suppressed;
  row.injected_drops = env.fault_stats().dropped;
  row.checkpoints = checkpoints;
  std::filesystem::remove_all(ckpt_dir);
  return row;
}

struct QueryRow {
  const char* name;
  double wall_s = 0;
  double qps = 0;
  double recall = 0;
  std::uint64_t datagrams = 0;
  std::int64_t replica_bytes = 0;
  bool identical_to_baseline = true;
};

QueryRow run_queries(const char* name, const core::FeatureStore<float>& base,
                     const core::KnnGraph& graph,
                     const core::FeatureStore<float>& queries,
                     const std::vector<std::vector<std::uint32_t>>& truth,
                     int replication_factor,
                     const std::vector<core::SearchResult>* baseline,
                     std::vector<core::SearchResult>* out) {
  comm::Environment env(comm::Config{.num_ranks = 8});
  core::ServingConfig serving;
  serving.replication_factor = replication_factor;
  core::DistributedQueryService<float, bench::L2Fn> service(
      env, graph, base, bench::L2Fn{}, serving, /*threads=*/1);
  core::SearchParams params;
  params.num_neighbors = 10;
  params.epsilon = 0.2;
  params.num_entry_points = 16;

  util::Timer timer;
  const auto results = service.run(queries, params);
  QueryRow row;
  row.name = name;
  row.wall_s = timer.elapsed_s();
  row.qps = static_cast<double>(queries.size()) / row.wall_s;
  row.datagrams = env.world().datagrams_posted();
  const auto metrics = env.aggregate_metrics();
  row.replica_bytes = metrics.gauge_value("mem.replica.features") +
                      metrics.gauge_value("mem.replica.rows");
  std::vector<std::vector<core::Neighbor>> computed;
  computed.reserve(results.size());
  for (const auto& r : results) computed.push_back(r.neighbors);
  row.recall = core::mean_query_recall(computed, truth, 10);
  if (baseline != nullptr) {
    for (std::size_t qi = 0; qi < results.size(); ++qi) {
      const auto& a = results[qi].neighbors;
      const auto& b = (*baseline)[qi].neighbors;
      if (a.size() != b.size()) row.identical_to_baseline = false;
      for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
        if (a[i].id != b[i].id || a[i].distance != b[i].distance) {
          row.identical_to_baseline = false;
        }
      }
    }
  }
  if (out != nullptr) *out = results;
  return row;
}

}  // namespace

int main() {
  bench::print_header(
      "Fault-injection overhead: DNND build on clean vs faulty transport "
      "(recall must not move)");

  const double scale = bench::bench_scale();
  const auto n = static_cast<std::size_t>(2000.0 * scale);
  const auto base =
      data::GaussianMixture(bench::billion_standin_spec(32, 211)).sample(n, 1);
  const auto exact = baselines::brute_force_knn_graph(base, bench::L2Fn{}, 10);

  mpi::FaultPlan clean;  // never installed (empty plan)

  mpi::FaultPlan protocol_only;
  protocol_only.force_protocol = true;

  mpi::FaultPlan light;
  light.seed = 1009;
  light.defaults = mpi::EdgePolicy{.drop = 0.05,
                                   .duplicate = 0.05,
                                   .delay = 0.10,
                                   .reorder = 0.10,
                                   .max_delay_ticks = 8};

  mpi::FaultPlan heavy;
  heavy.seed = 2003;
  heavy.defaults = mpi::EdgePolicy{.drop = 0.25,
                                   .duplicate = 0.15,
                                   .delay = 0.25,
                                   .reorder = 0.25,
                                   .max_delay_ticks = 16};
  heavy.stall = 0.02;
  heavy.max_stall_ticks = 12;

  const Row rows[] = {
      run("clean", base, exact, clean),
      run("ckpt-off", base, exact, clean, 0),
      run("ckpt-every-2", base, exact, clean, 2),
      run("protocol-only", base, exact, protocol_only),
      run("light-faults", base, exact, light),
      run("heavy-faults", base, exact, heavy),
  };

  std::printf("%-14s %9s %8s %10s %10s %11s %10s %6s %8s\n", "transport",
              "wall[s]", "x-clean", "datagrams", "acks", "retransmits",
              "dup-supp", "ckpts", "recall");
  const double base_wall = rows[0].wall_s;
  for (const Row& r : rows) {
    std::printf("%-14s %9.3f %8.2f %10" PRIu64 " %10" PRIu64 " %11" PRIu64
                " %10" PRIu64 " %6" PRIu64 " %8.4f\n",
                r.name, r.wall_s, r.wall_s / base_wall, r.datagrams, r.acks,
                r.retransmits, r.dups_suppressed, r.checkpoints, r.recall);
  }
  std::printf(
      "\nAll rows must report the same recall: the retry/dedup protocol "
      "restores\nexactly-once delivery, checkpointing only reads the "
      "quiescent iteration\ncut, and the engine canonicalizes arrival "
      "order, so the constructed graph\nis independent of both the fault "
      "schedule and the checkpoint cadence.\nckpt-off must match clean: "
      "a disarmed hook costs one compare per iteration.\n");

  // -- replicated serving: replication off vs rf=2, fault-free ----------
  bench::print_header(
      "Replicated query serving: replication off (rf=1) vs mirrored (rf=2)");
  const auto nq = static_cast<std::size_t>(200.0 * scale);
  const auto queries =
      data::GaussianMixture(bench::billion_standin_spec(32, 211)).sample(nq, 2);
  const auto truth =
      baselines::brute_force_query_batch(base, queries, bench::L2Fn{}, 10);
  core::KnnGraph serving_graph = exact;
  serving_graph.merge_reverse_edges(20);  // navigable undirected index

  std::vector<core::SearchResult> rf1_results;
  const QueryRow qrows[] = {
      run_queries("serve-rf1", base, serving_graph, queries, truth, 1,
                  nullptr, &rf1_results),
      run_queries("serve-rf2", base, serving_graph, queries, truth, 2,
                  &rf1_results, nullptr),
  };
  std::printf("%-14s %9s %9s %10s %14s %8s %10s\n", "serving", "wall[s]",
              "qps", "datagrams", "replica-bytes", "recall", "identical");
  for (const QueryRow& r : qrows) {
    std::printf("%-14s %9.3f %9.0f %10" PRIu64 " %14" PRId64 " %8.4f %10s\n",
                r.name, r.wall_s, r.qps, r.datagrams, r.replica_bytes,
                r.recall, r.identical_to_baseline ? "yes" : "NO");
  }
  std::printf(
      "\nserve-rf2 must answer bit-identically to serve-rf1 (slot-0 routing "
      "is the\nhome rank, so replicas never change an answer — only who can "
      "give it) and\nserve-rf1 must carry zero replica bytes: with "
      "replication off the failover\nmachinery registers nothing, buffers "
      "nothing, and sends nothing extra.\n");
  return 0;
}
