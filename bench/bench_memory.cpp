// Memory-footprint bench: bytes per point, by subsystem, for the two
// feature layouts (CSR FeatureStore vs padded DenseBlockStore) plus the
// k-NN graph rows, measured through the memory ledger at n = 1e4 and
// 1e5. The committed BENCH_memory.json snapshot is what EXPERIMENTS.md
// quotes; regenerate with `./bench_memory` from the build directory.
//
// The numbers are layout properties, not workload properties: values are
// filled with a deterministic pattern because the footprint depends only
// on shape (n, dim, k), never on content.
#include "common.hpp"

#include "core/feature_store.hpp"
#include "core/neighbor_list.hpp"
#include "telemetry/memory.hpp"

namespace {

using dnnd::bench::BenchReport;
using dnnd::core::FeatureStore;
using dnnd::core::DenseBlockStore;
using dnnd::core::NeighborList;
using dnnd::core::VertexId;

constexpr std::size_t kDim = 64;
constexpr std::size_t kGraphK = 16;

std::vector<float> pattern_row(std::size_t i) {
  std::vector<float> row(kDim);
  for (std::size_t d = 0; d < kDim; ++d) {
    row[d] = static_cast<float>((i * 31 + d * 7) % 97);
  }
  return row;
}

struct Footprint {
  std::int64_t features_peak = 0;
  std::int64_t features_current = 0;
  std::int64_t graph_peak = 0;
};

/// Builds a store of `n` points plus `n` graph rows of capacity k, all
/// charged against a fresh ledger, and reads the ledger back. `Store` is
/// FeatureStore<float> (CSR) or DenseBlockStore<float> (padded dense).
template <typename Store>
Footprint measure(std::size_t n) {
  dnnd::telemetry::MemoryLedger ledger;
  const auto t_features = ledger.tag("mem.engine.features");
  const auto t_graph = ledger.tag("mem.engine.graph");

  Store store;
  store.set_mem_tag(dnnd::telemetry::MemTag(&ledger, t_features));
  std::vector<NeighborList> graph;
  graph.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = pattern_row(i);
    store.add(static_cast<VertexId>(i), std::span<const float>(row));
    graph.emplace_back(kGraphK,
                       dnnd::telemetry::MemTag(&ledger, t_graph));
  }

  Footprint fp;
  fp.features_peak = ledger.peak_bytes("mem.engine.features");
  fp.features_current = ledger.current_bytes("mem.engine.features");
  fp.graph_peak = ledger.peak_bytes("mem.engine.graph");
  return fp;
}

void report_layout(BenchReport& report, const char* layout, std::size_t n,
                   const Footprint& fp) {
  const double dn = static_cast<double>(n);
  auto& row = report.add_row(std::string(layout) + "_n" + std::to_string(n));
  row.params["layout"] = layout;
  row.params["n"] = std::to_string(n);
  row.params["dim"] = std::to_string(kDim);
  row.params["graph_k"] = std::to_string(kGraphK);
  row.metrics["features_peak_bytes"] = static_cast<double>(fp.features_peak);
  row.metrics["features_bytes_per_point"] =
      static_cast<double>(fp.features_peak) / dn;
  row.metrics["graph_peak_bytes"] = static_cast<double>(fp.graph_peak);
  row.metrics["graph_bytes_per_point"] =
      static_cast<double>(fp.graph_peak) / dn;
  row.metrics["total_bytes_per_point"] =
      static_cast<double>(fp.features_peak + fp.graph_peak) / dn;
  std::printf("  %-12s n=%-7zu features %8.1f B/pt (peak %10lld B)  "
              "graph %6.1f B/pt  total %8.1f B/pt\n",
              layout, n, static_cast<double>(fp.features_peak) / dn,
              static_cast<long long>(fp.features_peak),
              static_cast<double>(fp.graph_peak) / dn,
              static_cast<double>(fp.features_peak + fp.graph_peak) / dn);
}

}  // namespace

int main() {
  dnnd::bench::print_header(
      "memory footprint: bytes per point by subsystem and layout");
  BenchReport report("memory");
  for (const std::size_t n : {std::size_t{10'000}, std::size_t{100'000}}) {
    const Footprint csr = measure<FeatureStore<float>>(n);
    report_layout(report, "csr_fp32", n, csr);
    const Footprint dense = measure<DenseBlockStore<float>>(n);
    report_layout(report, "dense_fp32", n, dense);
    dnnd::bench::print_rule();
  }
  std::printf("dense pads rows to the SIMD block width (stride %zu for dim "
              "%zu); CSR carries offsets, ids and the id->row index.\n",
              dnnd::core::DenseBlockStore<float>::padded(kDim), kDim);
  report.write("BENCH_memory.json");
  return 0;
}
