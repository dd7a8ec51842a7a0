// Shared infrastructure for the experiment-reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper at
// simulation scale (DESIGN.md §4 maps experiment → binary). The knobs
// below scale the workloads: DNND_BENCH_SCALE (float multiplier on point
// counts, default 1.0) lets a beefier machine run closer to paper scale
// without recompiling.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/brute_force.hpp"
#include "baselines/hnsw.hpp"
#include "comm/environment.hpp"
#include "core/distance.hpp"
#include "core/distance_kernels.hpp"
#include "core/dnnd_runner.hpp"
#include "core/knn_query.hpp"
#include "core/nn_descent.hpp"
#include "core/recall.hpp"
#include "data/datasets.hpp"
#include "data/synthetic.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace dnnd::bench {

// The dense metrics are the kernel functors themselves, so every bench
// (and the tests that reuse these aliases) exercises the batched,
// runtime-dispatched kernels; Jaccard is sparse and has no batch kernel,
// so the same evaluation loops call it once per row.
using L2Fn = core::L2Kernel<float>;
using L2U8Fn = core::L2Kernel<std::uint8_t>;
using CosFn = core::CosineKernel<float>;
struct JacFn {
  float operator()(std::span<const std::uint32_t> a,
                   std::span<const std::uint32_t> b) const {
    return core::jaccard_sorted(a, b);
  }
};

inline double bench_scale() {
  if (const char* env = std::getenv("DNND_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0) return s;
  }
  return 1.0;
}

/// Billion-scale stand-in (DEEP1B-like unless u8): overlapping clusters so
/// the k-NN graph is connected, as real embedding corpora are. The
/// center_range/cluster_std ratio is calibrated (see EXPERIMENTS.md):
/// wider ranges give near-perfect graph recall but a disconnected k-NN
/// graph that no greedy search can traverse; this setting keeps graph
/// recall ≈ 0.99 while epsilon sweeps trace the paper's recall range.
inline data::MixtureSpec billion_standin_spec(std::size_t dim,
                                              std::uint64_t seed) {
  data::MixtureSpec spec;
  spec.dim = dim;
  spec.num_clusters = 64;
  spec.center_range = 2.0f;
  spec.cluster_std = 1.5f;
  spec.seed = seed;
  return spec;
}

inline void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void print_rule() {
  std::printf("--------------------------------------------------------------------------\n");
}

/// Machine-readable bench output: every bench binary collects its result
/// rows into a BenchReport and writes one `BENCH_<name>.json` with schema
/// `dnnd.bench.v1` — committed snapshots of these files are how measured
/// numbers enter the repo (EXPERIMENTS.md quotes them).
///
/// Schema:
///   { "schema": "dnnd.bench.v1", "bench": "<binary>",
///     "rows": [ { "name": "<row id>",
///                 "params":  { "<k>": "<string>", ... },
///                 "metrics": { "<k>": <number>, ... } }, ... ] }
class BenchReport {
 public:
  struct Row {
    std::string name;
    std::map<std::string, std::string> params;
    std::map<std::string, double> metrics;
  };

  explicit BenchReport(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  Row& add_row(std::string name) {
    rows_.push_back(Row{std::move(name), {}, {}});
    return rows_.back();
  }

  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }

  void write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) {
      throw std::runtime_error("BenchReport: cannot open " + path);
    }
    os << "{\n  \"schema\": \"dnnd.bench.v1\",\n  \"bench\": ";
    util::json::write_string(os, bench_name_);
    os << ",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      os << (i == 0 ? "\n" : ",\n") << "    {\"name\": ";
      util::json::write_string(os, row.name);
      os << ", \"params\": {";
      bool first = true;
      for (const auto& [k, v] : row.params) {
        os << (first ? "" : ", ");
        first = false;
        util::json::write_string(os, k);
        os << ": ";
        util::json::write_string(os, v);
      }
      os << "}, \"metrics\": {";
      first = true;
      for (const auto& [k, v] : row.metrics) {
        os << (first ? "" : ", ");
        first = false;
        util::json::write_string(os, k);
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        os << ": " << buf;
      }
      os << "}}";
    }
    os << "\n  ]\n}\n";
    if (!os.flush()) {
      throw std::runtime_error("BenchReport: write failed for " + path);
    }
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  }

 private:
  std::string bench_name_;
  std::vector<Row> rows_;
};

/// Mean recall@k of a batch of SearchResults against brute-force truth.
inline double recall_of(const std::vector<core::SearchResult>& results,
                        const std::vector<std::vector<core::VertexId>>& truth,
                        std::size_t k) {
  std::vector<std::vector<core::Neighbor>> computed;
  computed.reserve(results.size());
  for (const auto& r : results) computed.push_back(r.neighbors);
  return core::mean_query_recall(computed, truth, k);
}

}  // namespace dnnd::bench
