// Unit tests for core building blocks: distance metrics (including metric
// properties as parameterized sweeps), the feature store, the bounded
// neighbor list, and the k-NN graph container.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/distance.hpp"
#include "core/feature_store.hpp"
#include "core/knn_graph.hpp"
#include "core/neighbor_list.hpp"
#include "data/synthetic.hpp"
#include "util/rng.hpp"

namespace {

using namespace dnnd;  // NOLINT
using core::Dist;
using core::FeatureStore;
using core::KnnGraph;
using core::Neighbor;
using core::NeighborList;
using core::VertexId;

std::span<const float> sp(const std::vector<float>& v) { return v; }
std::span<const std::uint32_t> spu(const std::vector<std::uint32_t>& v) {
  return v;
}

// -- distances ----------------------------------------------------------------

TEST(Distance, L2KnownValues) {
  const std::vector<float> a = {0, 0, 0}, b = {1, 2, 2};
  EXPECT_FLOAT_EQ(core::squared_l2(sp(a), sp(b)), 9.0f);
  EXPECT_FLOAT_EQ(core::l2(sp(a), sp(b)), 3.0f);
  EXPECT_FLOAT_EQ(core::l2(sp(a), sp(a)), 0.0f);
}

TEST(Distance, CosineKnownValues) {
  const std::vector<float> x = {1, 0}, y = {0, 1}, z = {2, 0}, w = {-1, 0};
  EXPECT_NEAR(core::cosine(sp(x), sp(y)), 1.0f, 1e-6);   // orthogonal
  EXPECT_NEAR(core::cosine(sp(x), sp(z)), 0.0f, 1e-6);   // parallel
  EXPECT_NEAR(core::cosine(sp(x), sp(w)), 2.0f, 1e-6);   // opposite
}

TEST(Distance, CosineZeroNormIsMaximallyFar) {
  const std::vector<float> zero = {0, 0}, x = {1, 1};
  EXPECT_FLOAT_EQ(core::cosine(sp(zero), sp(x)), 1.0f);
}

TEST(Distance, JaccardKnownValues) {
  const std::vector<std::uint32_t> a = {1, 2, 3, 4}, b = {3, 4, 5, 6};
  EXPECT_NEAR(core::jaccard_sorted(spu(a), spu(b)), 1.0f - 2.0f / 6.0f, 1e-6);
  EXPECT_FLOAT_EQ(core::jaccard_sorted(spu(a), spu(a)), 0.0f);
  const std::vector<std::uint32_t> c = {7, 8};
  EXPECT_FLOAT_EQ(core::jaccard_sorted(spu(a), spu(c)), 1.0f);
  EXPECT_FLOAT_EQ(core::jaccard_sorted(spu({}), spu({})), 0.0f);
}

TEST(Distance, MetricNames) {
  EXPECT_EQ(core::metric_name(core::Metric::kL2), "L2");
  EXPECT_EQ(core::metric_name(core::Metric::kJaccard), "Jaccard");
}

/// Property sweep: symmetry, identity, non-negativity on random data for
/// each dense distance function. The parameter is a 4-byte index into
/// kDenseFns, not the function pointer itself, so each case's test id
/// stays the same from build to build.
enum class DenseFn { kL2, kSqL2, kCosine };
constexpr Dist (*kDenseFns[])(std::span<const float>, std::span<const float>) =
    {&core::l2<float>, &core::squared_l2<float>, &core::cosine<float>};
constexpr const char* kDenseFnNames[] = {"L2", "SqL2", "Cosine"};

class MetricProperties : public ::testing::TestWithParam<DenseFn> {};

TEST_P(MetricProperties, SymmetryIdentityNonNegativity) {
  const auto fn = kDenseFns[static_cast<int>(GetParam())];
  util::Xoshiro256 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> a(8), b(8);
    for (auto& v : a) v = rng.uniform_float(-5, 5);
    for (auto& v : b) v = rng.uniform_float(-5, 5);
    const Dist ab = fn(sp(a), sp(b));
    const Dist ba = fn(sp(b), sp(a));
    EXPECT_FLOAT_EQ(ab, ba) << "asymmetric at trial " << trial;
    EXPECT_GE(ab, 0.0f);
    EXPECT_NEAR(fn(sp(a), sp(a)), 0.0f, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(ProperMetrics, MetricProperties,
                         ::testing::Values(DenseFn::kL2, DenseFn::kSqL2,
                                           DenseFn::kCosine),
                         [](const auto& info) {
                           return std::string(
                               kDenseFnNames[static_cast<int>(info.param)]);
                         });

TEST(Distance, JaccardPropertiesOnRandomSets) {
  util::Xoshiro256 rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint32_t> a, b;
    for (std::uint32_t i = 0; i < 40; ++i) {
      if (rng.bernoulli(0.3)) a.push_back(i);
      if (rng.bernoulli(0.3)) b.push_back(i);
    }
    const Dist ab = core::jaccard_sorted(spu(a), spu(b));
    EXPECT_FLOAT_EQ(ab, core::jaccard_sorted(spu(b), spu(a)));
    EXPECT_GE(ab, 0.0f);
    EXPECT_LE(ab, 1.0f);
    EXPECT_FLOAT_EQ(core::jaccard_sorted(spu(a), spu(a)), 0.0f);
  }
}

// -- FeatureStore --------------------------------------------------------------

TEST(FeatureStore, DenseConstruction) {
  FeatureStore<float> store(3, 2, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.dim(), 2u);
  EXPECT_EQ(store[1][0], 3.0f);
  EXPECT_EQ(store[2][1], 6.0f);
  EXPECT_TRUE(store.contains(0));
  EXPECT_FALSE(store.contains(3));
}

TEST(FeatureStore, DenseSizeMismatchThrows) {
  EXPECT_THROW(FeatureStore<float>(3, 2, {1, 2, 3}), std::invalid_argument);
}

TEST(FeatureStore, SparseAddWithArbitraryIds) {
  FeatureStore<std::uint32_t> store;
  store.add(100, std::vector<std::uint32_t>{1, 2});
  store.add(7, std::vector<std::uint32_t>{9});
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store[100].size(), 2u);
  EXPECT_EQ(store[7][0], 9u);
  EXPECT_EQ(store.id_at(0), 100u);
}

TEST(FeatureStore, DuplicateIdThrows) {
  FeatureStore<float> store;
  store.add(1, std::vector<float>{1.f});
  EXPECT_THROW(store.add(1, std::vector<float>{2.f}), std::invalid_argument);
}

TEST(FeatureStore, UnknownIdThrows) {
  FeatureStore<float> store;
  EXPECT_THROW((void)store[5], std::out_of_range);
}

// -- NeighborList ---------------------------------------------------------------

TEST(NeighborList, FillsThenReplacesFarthest) {
  NeighborList list(3);
  EXPECT_EQ(list.furthest_distance(), core::kInfiniteDistance);
  EXPECT_EQ(list.update(1, 5.0f, true), 1);
  EXPECT_EQ(list.update(2, 3.0f, true), 1);
  EXPECT_EQ(list.update(3, 4.0f, true), 1);
  EXPECT_TRUE(list.full());
  EXPECT_FLOAT_EQ(list.furthest_distance(), 5.0f);

  // Better candidate evicts the farthest.
  EXPECT_EQ(list.update(4, 1.0f, true), 1);
  EXPECT_FLOAT_EQ(list.furthest_distance(), 4.0f);
  EXPECT_FALSE(list.contains(1));

  // Worse candidate is rejected.
  EXPECT_EQ(list.update(5, 10.0f, true), 0);
  EXPECT_FALSE(list.contains(5));
}

TEST(NeighborList, RejectsDuplicates) {
  NeighborList list(3);
  EXPECT_EQ(list.update(1, 2.0f, true), 1);
  EXPECT_EQ(list.update(1, 1.0f, true), 0);  // already present
  EXPECT_EQ(list.size(), 1u);
}

TEST(NeighborList, SortedOutputAscending) {
  NeighborList list(4);
  list.update(1, 3.0f, true);
  list.update(2, 1.0f, true);
  list.update(3, 2.0f, false);
  const auto sorted = list.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].id, 2u);
  EXPECT_EQ(sorted[1].id, 3u);
  EXPECT_EQ(sorted[2].id, 1u);
  EXPECT_FALSE(sorted[1].is_new);
}

TEST(NeighborList, HeapInvariantUnderChurn) {
  util::Xoshiro256 rng(5);
  NeighborList list(16);
  for (int i = 0; i < 2000; ++i) {
    list.update(static_cast<VertexId>(rng.uniform_below(500)),
                static_cast<Dist>(rng.uniform_double() * 100), true);
    // The root must always be the maximum.
    Dist max_d = 0;
    for (const auto& n : list.entries()) max_d = std::max(max_d, n.distance);
    if (list.full()) { EXPECT_FLOAT_EQ(list.furthest_distance(), max_d); }
  }
  // No duplicates survived.
  const auto sorted = list.sorted();
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_NE(sorted[i - 1].id, sorted[i].id);
  }
}

// -- KnnGraph --------------------------------------------------------------------

TEST(KnnGraph, SetAndReadRows) {
  KnnGraph graph(3);
  graph.set_neighbors(0, {{1, 1.0f, false}, {2, 2.0f, false}});
  EXPECT_EQ(graph.num_vertices(), 3u);
  EXPECT_EQ(graph.num_edges(), 2u);
  EXPECT_EQ(graph.neighbors(0)[1].id, 2u);
  EXPECT_TRUE(graph.neighbors(1).empty());
}

TEST(KnnGraph, RejectsUnsortedRows) {
  KnnGraph graph(2);
  EXPECT_THROW(graph.set_neighbors(0, {{1, 2.0f, false}, {0, 1.0f, false}}),
               std::invalid_argument);
}

TEST(KnnGraph, MergeReverseEdgesAddsBackLinksAndDedups) {
  KnnGraph graph(3);
  graph.set_neighbors(0, {{1, 1.0f, false}});
  graph.set_neighbors(1, {{0, 1.0f, false}});  // mutual edge: dedup needed
  graph.set_neighbors(2, {{0, 5.0f, false}});
  graph.merge_reverse_edges(10);
  // 0 gains the reverse of 2→0.
  ASSERT_EQ(graph.neighbors(0).size(), 2u);
  EXPECT_EQ(graph.neighbors(0)[0].id, 1u);
  EXPECT_EQ(graph.neighbors(0)[1].id, 2u);
  // The mutual 0↔1 edge stays single per side.
  EXPECT_EQ(graph.neighbors(1).size(), 1u);
  // 2 keeps its edge (no one points at it... 0 now does via reverse of 2→0?
  // No: reverse edges of 2→0 belong to 0. 2 gets nothing new.)
  EXPECT_EQ(graph.neighbors(2).size(), 1u);
}

TEST(KnnGraph, MergeReverseEdgesPrunesToMaxDegree) {
  // Star: everyone points at 0, so 0's reverse degree explodes.
  constexpr std::size_t kN = 20;
  KnnGraph graph(kN);
  for (VertexId v = 1; v < kN; ++v) {
    graph.set_neighbors(v, {{0, static_cast<Dist>(v), false}});
  }
  graph.merge_reverse_edges(5);
  EXPECT_EQ(graph.neighbors(0).size(), 5u);
  // The survivors are the *closest* reverse edges (ids 1..5).
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(graph.neighbors(0)[i].id, static_cast<VertexId>(i + 1));
  }
  EXPECT_EQ(graph.max_degree(), 5u);
}

}  // namespace
