// Figure 2 — recall@10 vs query throughput tradeoff.
//
// Paper: for the graphs built in Figure 3 (DNND k10/k20/k30 and Hnsw A–D),
// sweep the query knob (epsilon for DNND, ef for HNSW) and plot recall@10
// against queries-per-second. Findings: DNND k20 matches Hnswlib's best
// graphs; DNND k30 beats them.
//
// Here: identical sweeps on the DEEP1B and BigANN stand-ins. Each line of
// output is one data point of one curve (dataset, index, knob, recall,
// QPS, mean distance evals per query). QPS is single-threaded, so absolute
// numbers are small; curve shapes and orderings are the reproduced result.
#include "common.hpp"

using namespace dnnd;  // NOLINT

namespace {

constexpr std::size_t kTop = 10;

template <typename T, typename Fn>
void sweep_dnnd(const char* dataset, const char* label, std::size_t k,
                const core::FeatureStore<T>& base,
                const core::FeatureStore<T>& queries,
                const std::vector<std::vector<core::VertexId>>& truth,
                Fn fn) {
  comm::Environment env(comm::Config{.num_ranks = 8});
  core::DnndConfig cfg;
  cfg.k = k;
  core::DnndRunner<T, Fn> runner(env, cfg, fn);
  runner.distribute(base);
  runner.build();
  runner.optimize();
  const auto graph = runner.gather();
  core::GraphSearcher searcher(graph, base, fn);

  // The paper sweeps epsilon 0 and 0.1..0.4 in steps of 0.025; a coarser
  // grid keeps the single-threaded run short while tracing the same curve.
  for (const double epsilon : {0.0, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4}) {
    core::SearchParams params;
    params.num_neighbors = kTop;
    params.epsilon = epsilon;
    params.num_entry_points = 24;
    util::Timer timer;
    const auto results = searcher.batch_search(queries, params, 1);
    const double seconds = timer.elapsed_s();
    std::uint64_t evals = 0;
    for (const auto& r : results) evals += r.distance_evals;
    std::printf("%-8s %-10s eps=%-5.3f  recall@10 %.4f  qps %8.0f  "
                "evals/query %7.0f\n",
                dataset, label, epsilon,
                bench::recall_of(results, truth, kTop),
                static_cast<double>(queries.size()) / seconds,
                static_cast<double>(evals) /
                    static_cast<double>(queries.size()));
  }
}

template <typename T, typename Fn>
void sweep_hnsw(const char* dataset, const char* label, std::size_t M,
                std::size_t efc, const core::FeatureStore<T>& base,
                const core::FeatureStore<T>& queries,
                const std::vector<std::vector<core::VertexId>>& truth,
                Fn fn) {
  baselines::HnswIndex<T, Fn> index(
      base, fn, baselines::HnswParams{.M = M, .ef_construction = efc});
  index.build();
  for (const std::size_t ef : {10UL, 20UL, 40UL, 80UL, 160UL, 320UL}) {
    util::Timer timer;
    std::vector<std::vector<core::Neighbor>> computed;
    computed.reserve(queries.size());
    std::uint64_t evals = 0;
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      computed.push_back(index.search(queries.row(qi), kTop, ef, &evals));
    }
    const double seconds = timer.elapsed_s();
    std::printf("%-8s %-10s ef=%-6zu  recall@10 %.4f  qps %8.0f  "
                "evals/query %7.0f\n",
                dataset, label, ef,
                core::mean_query_recall(computed, truth, kTop),
                static_cast<double>(queries.size()) / seconds,
                static_cast<double>(evals) /
                    static_cast<double>(queries.size()));
  }
}

template <typename T, typename Fn>
void run_dataset(const char* dataset, const core::FeatureStore<T>& base,
                 const core::FeatureStore<T>& queries, Fn fn) {
  const auto truth =
      baselines::brute_force_query_batch(base, queries, fn, kTop);
  std::printf("\n-- %s (%zu points, %zu queries) --\n", dataset, base.size(),
              queries.size());
  // DNND curves (Figure 2's k10/k20/k30 lines).
  sweep_dnnd(dataset, "DNND-k10", 10, base, queries, truth, fn);
  sweep_dnnd(dataset, "DNND-k20", 20, base, queries, truth, fn);
  sweep_dnnd(dataset, "DNND-k30", 30, base, queries, truth, fn);
  // HNSW curves (A/C-like fast build, B/D-like quality build).
  sweep_hnsw(dataset, "Hnsw-fast", 12, 40, base, queries, truth, fn);
  sweep_hnsw(dataset, "Hnsw-qual", 16, 200, base, queries, truth, fn);
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 2: recall@10 vs query throughput (paper: DNND k20 ~ best "
      "Hnsw; DNND k30 better)");

  const double scale = bench::bench_scale();
  const auto n = static_cast<std::size_t>(5000.0 * scale);
  const std::size_t num_queries = 200;

  {
    const data::GaussianMixture family(bench::billion_standin_spec(96, 107));
    run_dataset("DEEP", family.sample(n, 1), family.sample(num_queries, 2),
                bench::L2Fn{});
  }
  {
    const data::GaussianMixture family(bench::billion_standin_spec(128, 108));
    run_dataset("BigANN", family.sample_u8(n, 1),
                family.sample_u8(num_queries, 2), bench::L2U8Fn{});
  }

  std::printf(
      "\nReading guide: each (index, knob) line is one point of a Figure-2 "
      "curve.\nCompare at equal recall: higher qps (fewer evals/query) wins. "
      "Figures 2c/2d\nare the recall >= 0.90 region of the same data.\n");
  return 0;
}
