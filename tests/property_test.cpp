// Property-based and model-based tests.
//
// Each test drives a component with long random operation sequences and
// checks it against either a trivially correct shadow model or an
// invariant that must hold at every step. Failures print the seed, so any
// counterexample is reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "baselines/brute_force.hpp"
#include "comm/environment.hpp"
#include "core/distance.hpp"
#include "core/dnnd_runner.hpp"
#include "core/neighbor_list.hpp"
#include "core/recall.hpp"
#include "data/synthetic.hpp"
#include "pmem/arena.hpp"
#include "pmem/vector.hpp"
#include "serial/archive.hpp"
#include "util/rng.hpp"

namespace {

using namespace dnnd;  // NOLINT

// ---------------------------------------------------------------------------
// NeighborList vs. a shadow model (sorted map of the k best distinct ids).
// ---------------------------------------------------------------------------

class NeighborListModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NeighborListModel, MatchesReferenceSemantics) {
  util::Xoshiro256 rng(GetParam());
  constexpr std::size_t kCap = 12;
  core::NeighborList list(kCap);
  // Model: id -> distance of the current best set.
  std::map<core::VertexId, core::Dist> model;

  auto model_furthest = [&]() {
    core::Dist worst = 0;
    for (const auto& [id, d] : model) worst = std::max(worst, d);
    return model.size() == kCap ? worst : core::kInfiniteDistance;
  };

  for (int step = 0; step < 3000; ++step) {
    const auto id = static_cast<core::VertexId>(rng.uniform_below(64));
    // Continuous distances: ties (where the evicted element among equals
    // is unspecified) have measure zero, so the model is exact.
    const auto d = static_cast<core::Dist>(rng.uniform_double());

    // Reference semantics of Algorithm 1's Update().
    int expect = 0;
    if (!model.contains(id) && d < model_furthest()) {
      if (model.size() == kCap) {
        // pop the farthest (ties broken arbitrarily — mirror the heap by
        // allowing either outcome only when a tie exists; distances here
        // are integers over a small range, so handle ties explicitly).
        auto worst = model.begin();
        for (auto it = model.begin(); it != model.end(); ++it) {
          if (it->second > worst->second) worst = it;
        }
        model.erase(worst);
      }
      model.emplace(id, d);
      expect = 1;
    }

    const int got = list.update(id, d, true);
    ASSERT_EQ(got, expect) << "step " << step << " seed " << GetParam();
    ASSERT_EQ(list.size(), model.size());
    // Same farthest distance (the heap root drives all accept decisions).
    if (list.full()) {
      ASSERT_FLOAT_EQ(list.furthest_distance(), model_furthest());
    }
    // Same id set.
    for (const auto& [id2, d2] : model) {
      ASSERT_TRUE(list.contains(id2));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NeighborListModel,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Arena allocator vs. shadow model: blocks never overlap, frees recycle,
// the live-byte counter matches.
// ---------------------------------------------------------------------------

class ArenaModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArenaModel, BlocksDisjointAndCountersExact) {
  util::Xoshiro256 rng(GetParam());
  std::vector<unsigned char> buffer(4 << 20);
  auto* header = reinterpret_cast<pmem::ArenaHeader*>(buffer.data());
  pmem::arena_format(header, buffer.size());

  struct Block {
    char* ptr;
    std::size_t request;
    std::size_t rounded;
  };
  std::vector<Block> live;
  std::uint64_t expected_live_bytes = 0;

  for (int step = 0; step < 5000; ++step) {
    if (live.empty() || rng.bernoulli(0.55)) {
      const std::size_t request = 1 + rng.uniform_below(2048);
      void* p = pmem::arena_allocate(header, request);
      if (p == nullptr) continue;  // exhausted: acceptable, not a failure
      const std::size_t rounded =
          pmem::size_class_bytes(pmem::size_class_of(request));
      // Alignment and containment.
      ASSERT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
      ASSERT_GE(static_cast<unsigned char*>(p), buffer.data());
      ASSERT_LE(static_cast<unsigned char*>(p) + rounded,
                buffer.data() + buffer.size());
      // Disjoint from every live block.
      for (const Block& b : live) {
        const bool before = static_cast<char*>(p) + rounded <= b.ptr;
        const bool after = b.ptr + b.rounded <= static_cast<char*>(p);
        ASSERT_TRUE(before || after) << "overlapping blocks at step " << step;
      }
      live.push_back(Block{static_cast<char*>(p), request, rounded});
      expected_live_bytes += rounded;
    } else {
      const std::size_t victim = rng.uniform_below(live.size());
      pmem::arena_deallocate(header, live[victim].ptr, live[victim].request);
      expected_live_bytes -= live[victim].rounded;
      live[victim] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(header->allocated, expected_live_bytes) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArenaModel, ::testing::Values(11, 12, 13));

// ---------------------------------------------------------------------------
// pmem::vector vs. std::vector under a random operation sequence.
// ---------------------------------------------------------------------------

class PmemVectorModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PmemVectorModel, BehavesLikeStdVector) {
  util::Xoshiro256 rng(GetParam());
  std::vector<unsigned char> buffer(8 << 20);
  auto* header = reinterpret_cast<pmem::ArenaHeader*>(buffer.data());
  pmem::arena_format(header, buffer.size());

  pmem::vector<std::uint64_t> subject{pmem::allocator<std::uint64_t>(header)};
  std::vector<std::uint64_t> model;

  for (int step = 0; step < 4000; ++step) {
    switch (rng.uniform_below(6)) {
      case 0:
      case 1:
      case 2: {  // push_back biased: vectors mostly grow
        const std::uint64_t v = rng();
        subject.push_back(v);
        model.push_back(v);
        break;
      }
      case 3:
        if (!model.empty()) {
          subject.pop_back();
          model.pop_back();
        }
        break;
      case 4: {
        const std::size_t target = rng.uniform_below(model.size() + 20);
        subject.resize(target, 7);
        model.resize(target, 7);
        break;
      }
      case 5:
        subject.shrink_to_fit();
        break;
    }
    ASSERT_EQ(subject.size(), model.size()) << "step " << step;
    for (std::size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(subject[i], model[i]) << "index " << i << " step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmemVectorModel, ::testing::Values(21, 22));

// ---------------------------------------------------------------------------
// Serialization round-trip over randomized message sequences.
// ---------------------------------------------------------------------------

class ArchiveRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArchiveRoundTrip, RandomMessageSequences) {
  util::Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    serial::OutArchive out;
    // Build a random sequence of typed fields; record for verification.
    std::vector<int> kinds;
    std::vector<std::uint64_t> u64s;
    std::vector<float> floats;
    std::vector<std::vector<std::uint8_t>> blobs;
    const int fields = 1 + static_cast<int>(rng.uniform_below(12));
    for (int f = 0; f < fields; ++f) {
      const int kind = static_cast<int>(rng.uniform_below(3));
      kinds.push_back(kind);
      if (kind == 0) {
        u64s.push_back(rng());
        out.write(u64s.back());
      } else if (kind == 1) {
        floats.push_back(rng.uniform_float(-1e6f, 1e6f));
        out.write(floats.back());
      } else {
        std::vector<std::uint8_t> blob(rng.uniform_below(64));
        for (auto& b : blob) b = static_cast<std::uint8_t>(rng());
        blobs.push_back(blob);
        out.write_vector(blob);
      }
    }
    serial::InArchive in(out.bytes());
    std::size_t next_u64 = 0, next_float = 0, next_blob = 0;
    for (const int kind : kinds) {
      if (kind == 0) {
        ASSERT_EQ(in.read<std::uint64_t>(), u64s[next_u64++]);
      } else if (kind == 1) {
        ASSERT_EQ(in.read<float>(), floats[next_float++]);
      } else {
        ASSERT_EQ(in.read_vector<std::uint8_t>(), blobs[next_blob++]);
      }
    }
    ASSERT_TRUE(in.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArchiveRoundTrip, ::testing::Values(31, 32));

TEST_P(ArchiveRoundTrip, WideTypeMixWithEmptyPayloads) {
  // Full codec surface in random interleavings, with empty vectors and
  // empty strings appearing often (they exercise the zero-length varint
  // path that fixed-size fields never touch).
  util::Xoshiro256 rng(GetParam() * 1000003);
  for (int trial = 0; trial < 200; ++trial) {
    serial::OutArchive out;
    std::vector<int> kinds;
    std::vector<std::uint8_t> u8s;
    std::vector<std::uint16_t> u16s;
    std::vector<std::int32_t> i32s;
    std::vector<double> doubles;
    std::vector<std::string> strings;
    std::vector<std::vector<float>> fvecs;
    const int fields = static_cast<int>(rng.uniform_below(16));  // may be 0
    for (int f = 0; f < fields; ++f) {
      const int kind = static_cast<int>(rng.uniform_below(6));
      kinds.push_back(kind);
      switch (kind) {
        case 0:
          u8s.push_back(static_cast<std::uint8_t>(rng()));
          out.write(u8s.back());
          break;
        case 1:
          u16s.push_back(static_cast<std::uint16_t>(rng()));
          out.write(u16s.back());
          break;
        case 2:
          i32s.push_back(static_cast<std::int32_t>(rng()));
          out.write(i32s.back());
          break;
        case 3:
          doubles.push_back(rng.uniform_double());
          out.write(doubles.back());
          break;
        case 4: {  // string, often empty
          std::string s(rng.uniform_below(3) == 0 ? 0 : rng.uniform_below(40),
                        '\0');
          for (auto& ch : s) ch = static_cast<char>('a' + rng.uniform_below(26));
          strings.push_back(s);
          out.write_string(s);
          break;
        }
        case 5: {  // float vector, often empty
          std::vector<float> v(rng.uniform_below(3) == 0
                                   ? 0
                                   : rng.uniform_below(32));
          for (auto& x : v) x = rng.uniform_float(-1.0f, 1.0f);
          fvecs.push_back(v);
          out.write_vector(v);
          break;
        }
      }
    }
    serial::InArchive in(out.bytes());
    std::size_t n0 = 0, n1 = 0, n2 = 0, n3 = 0, n4 = 0, n5 = 0;
    for (const int kind : kinds) {
      switch (kind) {
        case 0: ASSERT_EQ(in.read<std::uint8_t>(), u8s[n0++]); break;
        case 1: ASSERT_EQ(in.read<std::uint16_t>(), u16s[n1++]); break;
        case 2: ASSERT_EQ(in.read<std::int32_t>(), i32s[n2++]); break;
        case 3: ASSERT_EQ(in.read<double>(), doubles[n3++]); break;
        case 4: ASSERT_EQ(in.read_string(), strings[n4++]); break;
        case 5: ASSERT_EQ(in.read_vector<float>(), fvecs[n5++]); break;
      }
    }
    ASSERT_TRUE(in.empty()) << "trial " << trial << " seed " << GetParam();
  }
}

TEST_P(ArchiveRoundTrip, PackUnpackTupleMatches) {
  util::Xoshiro256 rng(GetParam() * 7919);
  for (int trial = 0; trial < 100; ++trial) {
    const auto a = rng();
    const auto b = rng.uniform_float(-1e3f, 1e3f);
    std::vector<std::uint32_t> c(rng.uniform_below(20));
    for (auto& x : c) x = static_cast<std::uint32_t>(rng());
    std::string d(rng.uniform_below(15), 'x');

    serial::OutArchive out;
    serial::pack(out, a, b, c, d);
    serial::InArchive in(out.bytes());
    const auto [ra, rb, rc, rd] =
        serial::unpack<std::uint64_t, float, std::vector<std::uint32_t>,
                       std::string>(in);
    ASSERT_EQ(ra, a);
    ASSERT_EQ(rb, b);
    ASSERT_EQ(rc, c);
    ASSERT_EQ(rd, d);
    ASSERT_TRUE(in.empty());
  }
}

TEST_P(ArchiveRoundTrip, PayloadsBeyondSendBufferSizeSurvive) {
  // Single messages larger than the communicator's 64 KiB flush threshold
  // must round-trip bit-exactly: the transport ships them as one datagram,
  // so the archive layer is the only place they could be split or clipped.
  util::Xoshiro256 rng(GetParam() * 104729);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = (64u << 10) + rng.uniform_below(192u << 10);
    std::vector<std::uint8_t> big(n);
    for (auto& x : big) x = static_cast<std::uint8_t>(rng());
    std::vector<float> feats(20000 + rng.uniform_below(20000));
    for (auto& x : feats) x = rng.uniform_float(-1e6f, 1e6f);

    serial::OutArchive out;
    out.write(std::uint32_t{0xfeedbeef});
    out.write_vector(big);
    out.write_vector(feats);
    out.write(std::uint8_t{42});
    ASSERT_GT(out.size(), 64u << 10);

    serial::InArchive in(out.bytes());
    ASSERT_EQ(in.read<std::uint32_t>(), 0xfeedbeefu);
    ASSERT_EQ(in.read_vector<std::uint8_t>(), big);
    ASSERT_EQ(in.read_vector<float>(), feats);
    ASSERT_EQ(in.read<std::uint8_t>(), 42u);
    ASSERT_TRUE(in.empty());
  }
}

TEST_P(ArchiveRoundTrip, TruncatedBuffersThrowNotCorrupt) {
  // Any prefix-truncation of a valid archive must surface ArchiveError
  // from some read — never a silent wrong value past the end.
  util::Xoshiro256 rng(GetParam() * 613);
  for (int trial = 0; trial < 50; ++trial) {
    serial::OutArchive out;
    std::vector<std::uint8_t> blob(1 + rng.uniform_below(300));
    for (auto& x : blob) x = static_cast<std::uint8_t>(rng());
    out.write(rng());
    out.write_vector(blob);
    out.write(rng());

    const auto bytes = out.bytes();
    const std::size_t cut = rng.uniform_below(bytes.size());  // strict prefix
    serial::InArchive in(bytes.subspan(0, cut));
    ASSERT_THROW(
        {
          in.read<std::uint64_t>();
          in.read_vector<std::uint8_t>();
          in.read<std::uint64_t>();
        },
        serial::ArchiveError)
        << "cut=" << cut << " seed " << GetParam();
  }
}

// ---------------------------------------------------------------------------
// DNND end-to-end invariants over a configuration grid.
// ---------------------------------------------------------------------------

struct GridCase {
  int ranks;
  std::size_t k;
  bool optimized_checks;
  std::uint64_t batch;
};

class DnndGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(DnndGrid, InvariantsAndQualityHold) {
  const auto param = GetParam();
  data::MixtureSpec spec;
  spec.dim = 8;
  spec.num_clusters = 8;
  spec.center_range = 4.0f;
  spec.cluster_std = 1.5f;
  spec.seed = 71;
  const auto points = data::GaussianMixture(spec).sample(250, 1);

  struct L2Fn {
    float operator()(std::span<const float> a, std::span<const float> b) const {
      return core::l2(a, b);
    }
  };

  comm::Environment env(comm::Config{.num_ranks = param.ranks});
  core::DnndConfig cfg;
  cfg.k = param.k;
  cfg.optimized_checks = param.optimized_checks;
  cfg.batch_size = param.batch;
  core::DnndRunner<float, L2Fn> runner(env, cfg, L2Fn{});
  runner.distribute(points);
  runner.build();
  const auto graph = runner.gather();

  // Invariants: full rows, sorted, distinct, no self loops, distances
  // exact, edges within id range.
  for (core::VertexId v = 0; v < 250; ++v) {
    const auto row = graph.neighbors(v);
    ASSERT_EQ(row.size(), param.k);
    for (std::size_t i = 0; i < row.size(); ++i) {
      ASSERT_NE(row[i].id, v);
      ASSERT_LT(row[i].id, 250u);
      ASSERT_FLOAT_EQ(row[i].distance, L2Fn{}(points[v], points[row[i].id]));
      if (i > 0) {
        ASSERT_GE(row[i].distance, row[i - 1].distance);
      }
      for (std::size_t j = i + 1; j < row.size(); ++j) {
        ASSERT_NE(row[i].id, row[j].id);
      }
    }
  }
  const auto exact = baselines::brute_force_knn_graph(points, L2Fn{}, param.k);
  EXPECT_GT(core::graph_recall(graph, exact, param.k), 0.85);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DnndGrid,
    ::testing::Values(GridCase{1, 6, true, 1 << 20},
                      GridCase{2, 6, false, 1 << 20},
                      GridCase{4, 6, true, 256},
                      GridCase{4, 12, true, 1 << 20},
                      GridCase{8, 6, false, 256},
                      GridCase{8, 12, true, 4096}),
    [](const auto& info) {
      const auto& c = info.param;
      return "r" + std::to_string(c.ranks) + "_k" + std::to_string(c.k) +
             (c.optimized_checks ? "_opt" : "_unopt") + "_b" +
             std::to_string(c.batch);
    });

}  // namespace
