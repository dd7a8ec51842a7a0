// Kernel-parity suite for the blocked SIMD distance layer.
//
// The determinism contract (core/distance_kernels.hpp) says the scalar
// reference and the AVX2 variants return bit-identical Dist values for
// every input, that batch kernels match the single-pair kernels
// element-for-element, and that zero padding past a row's end never
// changes a distance. This suite proves each clause bit-for-bit (float
// compares are on the bit pattern, never EXPECT_FLOAT_EQ), then checks
// the consequence the rest of the repo relies on: serial, brute-force,
// searcher, and distributed builds come out byte-identical whichever
// dispatch path executed — and whether or not the functor has a batch
// kernel at all.
//
// Also hosts the feature-store satellite tests (CSR empty/dense-ctor
// edge cases) and the dnnd.bench.v1 schema check for the shared bench
// writer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "baselines/brute_force.hpp"
#include "bench/common.hpp"
#include "comm/environment.hpp"
#include "core/distance.hpp"
#include "core/distance_kernels.hpp"
#include "core/distributed_query.hpp"
#include "core/dnnd_runner.hpp"
#include "core/feature_store.hpp"
#include "core/knn_query.hpp"
#include "core/nn_descent.hpp"
#include "data/synthetic.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace dnnd;  // NOLINT

[[nodiscard]] std::uint32_t bits(float v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

[[nodiscard]] bool simd_available() {
  return core::simd_kernels_compiled() && core::simd_runtime_supported();
}

template <typename T>
std::vector<T> random_vec(util::Xoshiro256& rng, std::size_t dim) {
  std::vector<T> v(dim);
  for (auto& x : v) {
    if constexpr (std::is_same_v<T, float>) {
      x = rng.uniform_float(-2.0f, 2.0f);
    } else {
      x = static_cast<T>(rng.uniform_below(256));
    }
  }
  return v;
}

// The three dense metrics as (single-pair, batch) call pairs, so the
// sweeps below can iterate metrics uniformly.
template <typename T>
struct MetricOps {
  const char* name;
  core::Dist (*single)(const T*, const T*, std::size_t);
  void (*batch)(const T*, const T* const*, std::size_t, std::size_t,
                core::Dist*);
};

template <typename T>
const MetricOps<T> kMetrics[] = {
    {"squared_l2", &core::k_squared_l2<T>, &core::k_batch_squared_l2<T>},
    {"cosine", &core::k_cosine<T>, &core::k_batch_cosine<T>},
    {"inner_product", &core::k_inner_product<T>,
     &core::k_batch_inner_product<T>},
};

// ---- scalar vs SIMD bit parity -----------------------------------------

// Every metric × element type × dim 1..130 (crosses the 8-lane block
// boundary and the 64-byte pad boundary many times, plus the full-blocks
// + tail shapes) × batch {1, 3, 8, 33}.
template <typename T>
void parity_sweep() {
  if (!simd_available()) {
    GTEST_SKIP() << "AVX2 kernels not compiled or not supported on this CPU";
  }
  util::Xoshiro256 rng(0xD157);
  const std::size_t kBatches[] = {1, 3, 8, 33};
  for (std::size_t dim = 1; dim <= 130; ++dim) {
    for (const std::size_t count : kBatches) {
      const auto q = random_vec<T>(rng, dim);
      std::vector<std::vector<T>> rows;
      std::vector<const T*> ptrs;
      for (std::size_t i = 0; i < count; ++i) {
        rows.push_back(random_vec<T>(rng, dim));
        ptrs.push_back(rows.back().data());
      }
      for (const auto& m : kMetrics<T>) {
        std::vector<core::Dist> scalar_out(count), simd_out(count);
        core::Dist scalar_single, simd_single;
        {
          core::ScopedKernelDispatch d(core::KernelDispatch::kForceScalar);
          ASSERT_FALSE(core::simd_kernels_active());
          m.batch(q.data(), ptrs.data(), count, dim, scalar_out.data());
          scalar_single = m.single(q.data(), ptrs[0], dim);
        }
        {
          core::ScopedKernelDispatch d(core::KernelDispatch::kForceSimd);
          ASSERT_TRUE(core::simd_kernels_active());
          m.batch(q.data(), ptrs.data(), count, dim, simd_out.data());
          simd_single = m.single(q.data(), ptrs[0], dim);
        }
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(bits(scalar_out[i]), bits(simd_out[i]))
              << m.name << " dim=" << dim << " count=" << count
              << " row=" << i;
        }
        // Batch element 0 must also match the single-pair kernel on both
        // paths — the batch form is defined as "single, amortized".
        ASSERT_EQ(bits(scalar_single), bits(scalar_out[0]))
            << m.name << " scalar single-vs-batch dim=" << dim;
        ASSERT_EQ(bits(simd_single), bits(simd_out[0]))
            << m.name << " simd single-vs-batch dim=" << dim;
      }
    }
  }
}

TEST(KernelParity, ScalarVsSimdBitIdenticalF32) { parity_sweep<float>(); }
TEST(KernelParity, ScalarVsSimdBitIdenticalU8) {
  parity_sweep<std::uint8_t>();
}

// Zero padding is part of the contract: evaluating a row through its
// zero-padded length (here rounded up to 64 bytes) returns the identical
// bits as the logical length.
template <typename T>
void padding_sweep() {
  constexpr std::size_t kPadElements = 64 / sizeof(T);
  util::Xoshiro256 rng(0xBEEF);
  for (std::size_t dim = 1; dim <= 130; ++dim) {
    const auto a = random_vec<T>(rng, dim);
    const auto b = random_vec<T>(rng, dim);
    const std::size_t padded =
        (dim + kPadElements - 1) / kPadElements * kPadElements;
    std::vector<T> ap(a), bp(b);
    ap.resize(padded, T{});
    bp.resize(padded, T{});
    for (const bool simd : {false, true}) {
      if (simd && !simd_available()) continue;
      core::ScopedKernelDispatch d(simd ? core::KernelDispatch::kForceSimd
                                        : core::KernelDispatch::kForceScalar);
      for (const auto& m : kMetrics<T>) {
        ASSERT_EQ(bits(m.single(a.data(), b.data(), dim)),
                  bits(m.single(ap.data(), bp.data(), padded)))
            << m.name << (simd ? " simd" : " scalar") << " dim=" << dim;
      }
    }
  }
}

TEST(KernelParity, PaddingLanesContributeZeroF32) { padding_sweep<float>(); }
TEST(KernelParity, PaddingLanesContributeZeroU8) {
  padding_sweep<std::uint8_t>();
}

TEST(KernelParity, CosineZeroNormVectorIsMaximallyDistant) {
  const std::vector<float> zero(16, 0.0f);
  const std::vector<float> one(16, 1.0f);
  for (const bool simd : {false, true}) {
    if (simd && !simd_available()) continue;
    core::ScopedKernelDispatch d(simd ? core::KernelDispatch::kForceSimd
                                      : core::KernelDispatch::kForceScalar);
    EXPECT_EQ(core::k_cosine(zero.data(), one.data(), 16), 1.0f);
    EXPECT_EQ(core::k_cosine(one.data(), zero.data(), 16), 1.0f);
    EXPECT_EQ(core::k_cosine(zero.data(), zero.data(), 16), 1.0f);
  }
}

TEST(KernelParity, EmptyAndZeroCountInputsAreSafe) {
  const float* nothing = nullptr;
  EXPECT_EQ(core::k_squared_l2(nothing, nothing, 0), 0.0f);
  EXPECT_EQ(core::k_inner_product(nothing, nothing, 0), -0.0f);
  EXPECT_EQ(core::k_cosine(nothing, nothing, 0), 1.0f);  // zero norms
  core::k_batch_squared_l2<float>(nothing, nullptr, 0, 0, nullptr);  // no-op
}

// core/distance.hpp routes the dense metrics through the kernels, so the
// span API must agree with the kernel API bit-for-bit.
TEST(KernelParity, DistanceHppRoutesThroughKernels) {
  util::Xoshiro256 rng(0x5EED);
  const auto a = random_vec<float>(rng, 71);
  const auto b = random_vec<float>(rng, 71);
  const std::span<const float> sa(a), sb(b);
  EXPECT_EQ(bits(core::squared_l2(sa, sb)),
            bits(core::k_squared_l2(a.data(), b.data(), a.size())));
  EXPECT_EQ(bits(core::cosine(sa, sb)),
            bits(core::k_cosine(a.data(), b.data(), a.size())));
  EXPECT_EQ(bits(core::l2(sa, sb)),
            bits(std::sqrt(core::k_squared_l2(a.data(), b.data(), a.size()))));
}

// ---- dispatch machinery ------------------------------------------------

TEST(KernelDispatch, ScopedOverrideRestoresPreviousMode) {
  ASSERT_EQ(core::kernel_dispatch(), core::KernelDispatch::kAuto);
  {
    core::ScopedKernelDispatch d(core::KernelDispatch::kForceScalar);
    EXPECT_EQ(core::kernel_dispatch(), core::KernelDispatch::kForceScalar);
    EXPECT_FALSE(core::simd_kernels_active());
  }
  EXPECT_EQ(core::kernel_dispatch(), core::KernelDispatch::kAuto);
}

TEST(KernelDispatch, ForceSimdThrowsWhenUnavailable) {
  if (simd_available()) {
    core::ScopedKernelDispatch d(core::KernelDispatch::kForceSimd);
    EXPECT_TRUE(core::simd_kernels_active());
  } else {
    core::ScopedKernelDispatch d(core::KernelDispatch::kForceSimd);
    EXPECT_THROW((void)core::simd_kernels_active(), std::runtime_error);
  }
}

TEST(KernelDispatch, ForceScalarEnvPinsScalarUnderAuto) {
  ASSERT_EQ(::setenv("DNND_FORCE_SCALAR", "1", 1), 0);
  core::set_kernel_dispatch(core::KernelDispatch::kAuto);  // drop cache
  EXPECT_FALSE(core::simd_kernels_active());
  ASSERT_EQ(::setenv("DNND_FORCE_SCALAR", "0", 1), 0);
  core::set_kernel_dispatch(core::KernelDispatch::kAuto);
  EXPECT_EQ(core::simd_kernels_active(), simd_available());
  ASSERT_EQ(::unsetenv("DNND_FORCE_SCALAR"), 0);
  core::set_kernel_dispatch(core::KernelDispatch::kAuto);
  EXPECT_EQ(core::simd_kernels_active(), simd_available());
}

// ---- whole-build bit-identity across dispatch modes --------------------

core::FeatureStore<float> small_dataset(std::size_t n, std::uint64_t seed) {
  data::MixtureSpec spec;
  spec.dim = 24;
  spec.num_clusters = 8;
  spec.seed = seed;
  return data::GaussianMixture(spec).sample(n, 1);
}

TEST(BuildBitIdentity, SerialNnDescentGraphsMatchAcrossDispatch) {
  if (!simd_available()) GTEST_SKIP() << "AVX2 kernels unavailable";
  const auto points = small_dataset(300, 41);
  core::NnDescentConfig cfg;
  cfg.k = 8;
  cfg.seed = 7;
  core::NnDescentStats scalar_stats, simd_stats;
  core::KnnGraph scalar_graph, simd_graph;
  {
    core::ScopedKernelDispatch d(core::KernelDispatch::kForceScalar);
    scalar_graph = core::build_nn_descent(points, core::L2Kernel<float>{},
                                          cfg, &scalar_stats);
  }
  {
    core::ScopedKernelDispatch d(core::KernelDispatch::kForceSimd);
    simd_graph = core::build_nn_descent(points, core::L2Kernel<float>{}, cfg,
                                        &simd_stats);
  }
  EXPECT_EQ(scalar_graph, simd_graph);
  EXPECT_EQ(scalar_stats.distance_evals, simd_stats.distance_evals);
  EXPECT_EQ(scalar_stats.updates_per_iteration,
            simd_stats.updates_per_iteration);
}

TEST(BuildBitIdentity, BruteForceGraphMatchesAcrossDispatchAndBatching) {
  const auto points = small_dataset(120, 13);
  // Plain per-pair functor (no batch member): the concept must not
  // detect it, and — because values are canonical — the graph it builds
  // must equal the batched kernel functor's graph exactly.
  struct PairwiseSq {
    float operator()(std::span<const float> a,
                     std::span<const float> b) const {
      return core::squared_l2(a, b);
    }
  };
  static_assert(!core::BatchDistance<PairwiseSq, float>);
  static_assert(core::BatchDistance<core::SquaredL2Kernel<float>, float>);
  const auto pairwise = baselines::brute_force_knn_graph(points, PairwiseSq{}, 6);
  const auto batched = baselines::brute_force_knn_graph(
      points, core::SquaredL2Kernel<float>{}, 6);
  EXPECT_EQ(pairwise, batched);
  if (simd_available()) {
    core::ScopedKernelDispatch d(core::KernelDispatch::kForceScalar);
    const auto scalar = baselines::brute_force_knn_graph(
        points, core::SquaredL2Kernel<float>{}, 6);
    EXPECT_EQ(scalar, batched);
  }
}

// A batch-less twin of core::L2Kernel<float>: the same operator() and no
// `batch` member, so core::evaluate_rows calls it once per row.
struct L2Twin {
  core::Dist operator()(std::span<const float> a,
                        std::span<const float> b) const {
    return core::L2Kernel<float>{}(a, b);
  }
};
static_assert(!core::BatchDistance<L2Twin, float>);
static_assert(core::BatchDistance<core::L2Kernel<float>, float>);

// Every evaluation loop has one path, so a functor without a batch kernel
// must reproduce the kernel functor's graphs, answers AND work counters in
// serial NN-Descent, the searcher, the 4-rank build and the query service.
TEST(BuildBitIdentity, BatchlessTwinMatchesKernelFunctorEverywhere) {
  using Kernel = core::L2Kernel<float>;
  data::MixtureSpec spec;
  spec.dim = 32;
  spec.num_clusters = 8;
  spec.seed = 1;
  const data::GaussianMixture mixture(spec);
  const auto points = mixture.sample(2000, 1);
  const auto queries = mixture.sample(40, 2);
  const auto same_answers = [](const std::vector<core::SearchResult>& a,
                               const std::vector<core::SearchResult>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].distance_evals, b[i].distance_evals) << "query " << i;
      EXPECT_EQ(a[i].visited, b[i].visited) << "query " << i;
      ASSERT_EQ(a[i].neighbors.size(), b[i].neighbors.size());
      for (std::size_t j = 0; j < a[i].neighbors.size(); ++j) {
        EXPECT_EQ(a[i].neighbors[j].id, b[i].neighbors[j].id);
        EXPECT_EQ(bits(a[i].neighbors[j].distance),
                  bits(b[i].neighbors[j].distance));
      }
    }
  };

  // Serial NN-Descent, then the searcher over its graph.
  core::NnDescentConfig cfg;
  cfg.k = 10;
  cfg.seed = 1;
  core::NnDescentStats kernel_stats, twin_stats;
  const auto graph =
      core::build_nn_descent(points, Kernel{}, cfg, &kernel_stats);
  EXPECT_EQ(core::build_nn_descent(points, L2Twin{}, cfg, &twin_stats), graph);
  EXPECT_EQ(twin_stats.distance_evals, kernel_stats.distance_evals);
  EXPECT_EQ(twin_stats.updates_per_iteration,
            kernel_stats.updates_per_iteration);
  EXPECT_EQ(twin_stats.tasks, kernel_stats.tasks);
  EXPECT_GT(kernel_stats.tasks, 0u);

  core::SearchParams params;
  params.num_neighbors = 10;
  params.epsilon = 0.2;
  same_answers(core::GraphSearcher(graph, points, Kernel{})
                   .batch_search(queries, params, 1),
               core::GraphSearcher(graph, points, L2Twin{})
                   .batch_search(queries, params, 1));

  // The 4-rank build and the query service over it.
  struct Distributed {
    core::KnnGraph graph;
    std::uint64_t engine_evals = 0;
    std::vector<core::SearchResult> answers;
  };
  const auto run = [&]<typename Fn>(Fn fn) {
    comm::Environment env(comm::Config{.num_ranks = 4});
    core::DnndConfig dcfg;
    dcfg.k = 10;
    core::DnndRunner<float, Fn> runner(env, dcfg, fn);
    runner.distribute(points);
    (void)runner.build();
    Distributed out;
    out.graph = runner.gather();
    out.engine_evals =
        env.aggregate_metrics().counter_value("engine.distance_evals");
    core::DistributedQueryService<float, Fn> service(env, out.graph, points,
                                                     fn);
    out.answers = service.run(queries, params);
    return out;
  };
  const Distributed kernel_run = run(Kernel{});
  const Distributed twin_run = run(L2Twin{});
  EXPECT_EQ(twin_run.graph, kernel_run.graph);
  EXPECT_GT(kernel_run.engine_evals, 0u);
  EXPECT_EQ(twin_run.engine_evals, kernel_run.engine_evals);
  same_answers(kernel_run.answers, twin_run.answers);
}

TEST(BuildBitIdentity, GraphSearcherResultsMatchAcrossDispatch) {
  if (!simd_available()) GTEST_SKIP() << "AVX2 kernels unavailable";
  const auto points = small_dataset(250, 77);
  const auto queries = small_dataset(10, 78);
  const auto graph =
      baselines::brute_force_knn_graph(points, core::L2Kernel<float>{}, 8);
  core::SearchParams params;
  params.num_neighbors = 8;
  params.epsilon = 0.2;
  auto run = [&](core::KernelDispatch mode) {
    core::ScopedKernelDispatch d(mode);
    core::GraphSearcher searcher(graph, points, core::L2Kernel<float>{});
    return searcher.batch_search(queries, params, 1);
  };
  const auto scalar = run(core::KernelDispatch::kForceScalar);
  const auto simd = run(core::KernelDispatch::kForceSimd);
  ASSERT_EQ(scalar.size(), simd.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(scalar[i].distance_evals, simd[i].distance_evals);
    EXPECT_EQ(scalar[i].visited, simd[i].visited);
    ASSERT_EQ(scalar[i].neighbors.size(), simd[i].neighbors.size());
    for (std::size_t j = 0; j < scalar[i].neighbors.size(); ++j) {
      EXPECT_EQ(scalar[i].neighbors[j].id, simd[i].neighbors[j].id);
      EXPECT_EQ(bits(scalar[i].neighbors[j].distance),
                bits(simd[i].neighbors[j].distance));
    }
  }
}

// The distributed engine: same seeded 4-rank build under both dispatch
// modes must produce byte-identical adjacency AND identical
// engine.distance_evals in the exported metrics — the §4.3 message
// savings must not depend on which kernel variant computed the values.
TEST(BuildBitIdentity, DistributedBuildAndMetricsMatchAcrossDispatch) {
  if (!simd_available()) GTEST_SKIP() << "AVX2 kernels unavailable";
  const auto points = small_dataset(300, 5);
  auto run = [&](core::KernelDispatch mode, core::KnnGraph& graph_out) {
    core::ScopedKernelDispatch d(mode);
    comm::Environment env(comm::Config{.num_ranks = 4});
    core::DnndConfig cfg;
    cfg.k = 8;
    core::DnndRunner<float, core::L2Kernel<float>> runner(
        env, cfg, core::L2Kernel<float>{});
    runner.distribute(points);
    (void)runner.build();
    graph_out = runner.gather();
    std::ostringstream os;
    env.write_metrics_json(os);
    return util::json::parse(os.str());
  };
  core::KnnGraph scalar_graph, simd_graph;
  const auto scalar_doc = run(core::KernelDispatch::kForceScalar, scalar_graph);
  const auto simd_doc = run(core::KernelDispatch::kForceSimd, simd_graph);
  EXPECT_EQ(scalar_graph, simd_graph);
  const auto evals = [](const util::json::Value& doc) {
    return doc.at("metrics").at("counters").at("engine.distance_evals")
        .as_number();
  };
  EXPECT_GT(evals(scalar_doc), 0.0);
  EXPECT_EQ(evals(scalar_doc), evals(simd_doc));
}

// ---- FeatureStore satellite fixes --------------------------------------

TEST(FeatureStoreDense, ZeroRowConstructorYieldsWorkingEmptyStore) {
  core::FeatureStore<float> store(0, 8, {});
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.dim(), 0u);
  // add() must keep working on a dense-constructed empty store.
  const std::vector<float> row{1, 2, 3};
  store.add(7, row);
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.dim(), 3u);
  EXPECT_TRUE(std::equal(row.begin(), row.end(), store[7].begin()));
}

TEST(FeatureStoreDense, SingleRowStore) {
  core::FeatureStore<float> store(1, 4, {1, 2, 3, 4});
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.dim(), 4u);
  EXPECT_EQ(store.id_at(0), 0u);
  EXPECT_EQ(store.row(0).size(), 4u);
  EXPECT_EQ(store.row_ptr(0)[3], 4.0f);
}

TEST(FeatureStoreDense, AddAfterDenseConstructAppends) {
  core::FeatureStore<float> store(2, 2, {1, 2, 3, 4});
  const std::vector<float> extra{5, 6};
  store.add(10, extra);
  ASSERT_EQ(store.size(), 3u);
  EXPECT_EQ(store[10][1], 6.0f);
  EXPECT_EQ(store.id_at(2), 10u);
}

TEST(FeatureStoreDense, RowPtrIsBoundsChecked) {
  core::FeatureStore<float> store(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(store.row_ptr(1)[0], 3.0f);
  EXPECT_THROW((void)store.row_ptr(2), std::out_of_range);
  core::FeatureStore<float> empty;
  EXPECT_THROW((void)empty.row_ptr(0), std::out_of_range);
}

// ---- bench writer schema ------------------------------------------------

TEST(BenchReport, WritesValidDnndBenchV1Json) {
  const auto path =
      (std::filesystem::temp_directory_path() / "dnnd_bench_schema.json")
          .string();
  bench::BenchReport report("bench_schema_test");
  auto& row = report.add_row("kernel/squared_l2/f32/dim128/batch8");
  row.params["metric"] = "squared_l2";
  row.params["dispatch"] = "simd";
  row.metrics["evals_per_sec"] = 1.25e8;
  row.metrics["gbps"] = 12.5;
  auto& row2 = report.add_row("needs\"escaping\\row");
  row2.params["note"] = "tab\there";
  report.write(path);

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = util::json::parse(buf.str());
  EXPECT_EQ(doc.at("schema").as_string(), "dnnd.bench.v1");
  EXPECT_EQ(doc.at("bench").as_string(), "bench_schema_test");
  const auto& rows = doc.at("rows").as_array();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].at("name").as_string(),
            "kernel/squared_l2/f32/dim128/batch8");
  EXPECT_EQ(rows[0].at("params").at("metric").as_string(), "squared_l2");
  EXPECT_EQ(rows[0].at("metrics").at("evals_per_sec").as_number(), 1.25e8);
  EXPECT_EQ(rows[0].at("metrics").at("gbps").as_number(), 12.5);
  EXPECT_EQ(rows[1].at("name").as_string(), "needs\"escaping\\row");
  EXPECT_EQ(rows[1].at("params").at("note").as_string(), "tab\there");
  std::filesystem::remove(path);
}

}  // namespace
