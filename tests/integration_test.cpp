// End-to-end integration tests: the full paper pipeline
//
//   synthetic dataset → distributed build (DNND) → §4.5 optimization →
//   persist to a pmem datastore → reopen → shared-memory queries →
//   recall vs. brute-force ground truth
//
// plus the persistence round-trip across "executables" (two Manager
// sessions on the same file) that §5.1.3 relies on.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "baselines/brute_force.hpp"
#include "core/distance.hpp"
#include "comm/environment.hpp"
#include "core/dnnd_runner.hpp"
#include "core/knn_query.hpp"
#include "core/persistent_graph.hpp"
#include "core/recall.hpp"
#include "data/datasets.hpp"
#include "data/synthetic.hpp"

namespace {

using namespace dnnd;  // NOLINT

struct L2Fn {
  float operator()(std::span<const float> a, std::span<const float> b) const {
    return core::l2(a, b);
  }
};
struct CosFn {
  float operator()(std::span<const float> a, std::span<const float> b) const {
    return core::cosine(a, b);
  }
};
struct JacFn {
  float operator()(std::span<const std::uint32_t> a,
                   std::span<const std::uint32_t> b) const {
    return core::jaccard_sorted(a, b);
  }
};

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Integration, FullPipelineWithPersistence) {
  const std::string store_path = temp_path("dnnd_integration.dat");
  std::remove(store_path.c_str());

  data::MixtureSpec spec;
  spec.dim = 8;
  spec.num_clusters = 10;
  spec.seed = 55;
  const data::GaussianMixture family(spec);
  const auto base = family.sample(500, 1);
  const auto queries = family.sample(25, 2);
  const auto truth =
      baselines::brute_force_query_batch(base, queries, L2Fn{}, 10);

  // --- "construction program": build, optimize, persist, close ---
  {
    comm::Environment env(comm::Config{.num_ranks = 4});
    core::DnndConfig cfg;
    cfg.k = 10;
    core::DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
    runner.distribute(base);
    const auto stats = runner.build();
    EXPECT_GT(stats.iterations, 0u);
    runner.optimize();
    const auto graph = runner.gather();

    auto mgr = pmem::Manager::create(store_path, 64 << 20);
    core::store_graph(mgr, graph, "knng");
    core::store_features(mgr, base, "points");
  }  // datastore closed

  // --- "query program": reopen, load, search ---
  {
    auto mgr = pmem::Manager::open(store_path);
    const auto graph = core::load_graph(mgr, "knng");
    const auto points = core::load_features<float>(mgr, "points");
    ASSERT_EQ(graph.num_vertices(), 500u);
    ASSERT_EQ(points.size(), 500u);

    core::GraphSearcher searcher(graph, points, L2Fn{});
    core::SearchParams params;
    params.num_neighbors = 10;
    params.epsilon = 0.3;
    params.num_entry_points = 32;  // guard against cluster-local minima
    const auto results = searcher.batch_search(queries, params, 2);
    std::vector<std::vector<core::Neighbor>> computed;
    computed.reserve(results.size());
    for (const auto& r : results) computed.push_back(r.neighbors);
    EXPECT_GT(core::mean_query_recall(computed, truth, 10), 0.85);
  }
  std::remove(store_path.c_str());
}

TEST(Integration, GraphRoundTripsThroughDatastoreExactly) {
  const std::string store_path = temp_path("dnnd_graph_roundtrip.dat");
  std::remove(store_path.c_str());
  const auto base = data::GaussianMixture({.dim = 6, .seed = 3}).sample(120, 1);
  const auto graph = baselines::brute_force_knn_graph(base, L2Fn{}, 5);
  {
    auto mgr = pmem::Manager::create(store_path, 16 << 20);
    core::store_graph(mgr, graph, "g");
  }
  {
    auto mgr = pmem::Manager::open(store_path);
    EXPECT_EQ(core::load_graph(mgr, "g"), graph);
    EXPECT_THROW((void)core::load_graph(mgr, "nope"), std::runtime_error);
  }
  std::remove(store_path.c_str());
}

TEST(Integration, SparseFeaturesRoundTripThroughDatastore) {
  const std::string store_path = temp_path("dnnd_sparse_roundtrip.dat");
  std::remove(store_path.c_str());
  const auto base = data::SparseSetFamily(data::SparseSetSpec{}).sample(80, 1);
  {
    auto mgr = pmem::Manager::create(store_path, 16 << 20);
    core::store_features(mgr, base, "sets");
  }
  {
    auto mgr = pmem::Manager::open(store_path);
    const auto loaded = core::load_features<std::uint32_t>(mgr, "sets");
    ASSERT_EQ(loaded.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      const auto a = base.row(i), b = loaded.row(i);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j], b[j]);
    }
  }
  std::remove(store_path.c_str());
}

// §5.2 methodology on the small Table-1 stand-ins: DNND's graph recall vs
// brute force must be high for each metric family.
TEST(Integration, Section52RecallAcrossMetrics) {
  // Cosine dataset (nytimes stand-in, scaled way down for test time).
  {
    const auto& spec = data::dataset_by_name("nytimes");
    auto ds = data::make_dense_float(spec, 0.08, 0);  // 400 points
    comm::Environment env(comm::Config{.num_ranks = 4});
    core::DnndConfig cfg;
    cfg.k = 8;
    core::DnndRunner<float, CosFn> runner(env, cfg, CosFn{});
    runner.distribute(ds.base);
    runner.build();
    const auto exact = baselines::brute_force_knn_graph(ds.base, CosFn{}, 8);
    EXPECT_GT(core::graph_recall(runner.gather(), exact, 8), 0.85)
        << "cosine (nytimes stand-in)";
  }
  // Jaccard dataset (kosarak stand-in).
  {
    const auto& spec = data::dataset_by_name("kosarak");
    auto ds = data::make_sparse(spec, 0.1, 0);  // 300 points
    comm::Environment env(comm::Config{.num_ranks = 4});
    core::DnndConfig cfg;
    cfg.k = 8;
    core::DnndRunner<std::uint32_t, JacFn> runner(env, cfg, JacFn{});
    runner.distribute(ds.base);
    runner.build();
    const auto exact = baselines::brute_force_knn_graph(ds.base, JacFn{}, 8);
    EXPECT_GT(core::graph_recall(runner.gather(), exact, 8), 0.6)
        << "jaccard (kosarak stand-in)";
  }
}

TEST(Integration, Uint8PipelineMatchesBigAnnSetup) {
  // BigANN uses uint8 features end to end (§5.3); verify the whole
  // pipeline is instantiable and accurate for T = uint8_t.
  struct L2U8 {
    float operator()(std::span<const std::uint8_t> a,
                     std::span<const std::uint8_t> b) const {
      return core::l2(a, b);
    }
  };
  const auto& spec = data::dataset_by_name("bigann");
  auto ds = data::make_dense_u8(spec, 0.02, 10);  // 400 points
  comm::Environment env(comm::Config{.num_ranks = 4});
  core::DnndConfig cfg;
  cfg.k = 10;
  core::DnndRunner<std::uint8_t, L2U8> runner(env, cfg, L2U8{});
  runner.distribute(ds.base);
  runner.build();
  runner.optimize();
  const auto graph = runner.gather();

  const auto truth =
      baselines::brute_force_query_batch(ds.base, ds.queries, L2U8{}, 10);
  core::GraphSearcher searcher(graph, ds.base, L2U8{});
  core::SearchParams params;
  params.num_neighbors = 10;
  params.epsilon = 0.3;
  params.num_entry_points = 32;
  std::vector<std::vector<core::Neighbor>> computed;
  for (std::size_t qi = 0; qi < ds.queries.size(); ++qi) {
    computed.push_back(searcher.search(ds.queries.row(qi), params).neighbors);
  }
  EXPECT_GT(core::mean_query_recall(computed, truth, 10), 0.8);
}

TEST(Integration, IndexMetadataRoundTripAndValidation) {
  const std::string store_path = temp_path("dnnd_meta_roundtrip.dat");
  std::remove(store_path.c_str());
  {
    auto mgr = pmem::Manager::create(store_path, 4 << 20);
    core::IndexMetadata meta;
    meta.set_metric("Cosine");
    meta.k = 20;
    meta.dim = 96;
    meta.num_points = 12345;
    core::store_index_metadata(mgr, meta);
  }
  {
    auto mgr = pmem::Manager::open(store_path);
    const auto meta = core::load_index_metadata(mgr);
    EXPECT_EQ(meta.metric_name(), "Cosine");
    EXPECT_EQ(meta.k, 20u);
    EXPECT_EQ(meta.num_points, 12345u);
    // Matching expectations pass...
    core::validate_index_metadata(meta, "Cosine", 96);
    core::validate_index_metadata(meta, "Cosine", 0);  // dim 0 = don't care
    // ...mismatches are rejected with precise errors.
    EXPECT_THROW(core::validate_index_metadata(meta, "L2", 96),
                 std::runtime_error);
    EXPECT_THROW(core::validate_index_metadata(meta, "Cosine", 128),
                 std::runtime_error);
  }
  std::remove(store_path.c_str());
}

TEST(Integration, MissingIndexMetadataThrows) {
  const std::string store_path = temp_path("dnnd_meta_missing.dat");
  std::remove(store_path.c_str());
  auto mgr = pmem::Manager::create(store_path, 4 << 20);
  EXPECT_THROW((void)core::load_index_metadata(mgr), std::runtime_error);
  std::remove(store_path.c_str());
}

TEST(Integration, ZeroCopyViewMatchesLoadedFeatures) {
  const std::string store_path = temp_path("dnnd_view_match.dat");
  std::remove(store_path.c_str());
  const auto base = data::GaussianMixture({.dim = 6, .seed = 15}).sample(80, 1);
  auto mgr = pmem::Manager::create(store_path, 16 << 20);
  core::store_features(mgr, base, "pts");

  const core::PersistentFeatureView<float> view(mgr, "pts");
  ASSERT_EQ(view.size(), 80u);
  EXPECT_EQ(view.dim(), 6u);
  for (core::VertexId v = 0; v < 80; ++v) {
    ASSERT_TRUE(view.contains(v));
    const auto a = view[v];
    const auto b = base[v];
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t d = 0; d < a.size(); ++d) EXPECT_EQ(a[d], b[d]);
    // Zero-copy: the span must point inside the mapping, not a copy.
    const auto* base_ptr = reinterpret_cast<const char*>(mgr.header());
    EXPECT_GE(reinterpret_cast<const char*>(a.data()), base_ptr);
    EXPECT_LT(reinterpret_cast<const char*>(a.data()),
              base_ptr + mgr.capacity_bytes());
  }
  EXPECT_THROW((void)view[999], std::out_of_range);
  EXPECT_THROW((core::PersistentFeatureView<float>(mgr, "nope")),
               std::runtime_error);
  mgr.close();
  std::remove(store_path.c_str());
}

}  // namespace
