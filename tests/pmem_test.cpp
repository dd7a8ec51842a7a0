// Unit tests for the persistent memory layer: offset_ptr semantics, arena
// allocation, the STL allocator, pmem::vector, and Manager lifecycle
// including reopen-at-a-different-address behaviour and sealing; plus the
// torn-write properties of the checkpoint generation store.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/environment.hpp"
#include "core/checkpoint_store.hpp"
#include "core/distance.hpp"
#include "core/dnnd_checkpoint.hpp"
#include "core/dnnd_runner.hpp"
#include "data/synthetic.hpp"
#include "pmem/allocator.hpp"
#include "pmem/arena.hpp"
#include "pmem/manager.hpp"
#include "pmem/offset_ptr.hpp"
#include "pmem/vector.hpp"

namespace {

namespace pmem = dnnd::pmem;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class TempFile {
 public:
  explicit TempFile(const std::string& name) : path_(temp_path(name)) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// -- offset_ptr ---------------------------------------------------------------

TEST(OffsetPtr, NullByDefault) {
  pmem::offset_ptr<int> p;
  EXPECT_FALSE(p);
  EXPECT_EQ(p.get(), nullptr);
  EXPECT_TRUE(p == nullptr);
}

TEST(OffsetPtr, PointsAndDereferences) {
  int x = 42;
  pmem::offset_ptr<int> p(&x);
  EXPECT_TRUE(p);
  EXPECT_EQ(*p, 42);
  *p = 7;
  EXPECT_EQ(x, 7);
}

TEST(OffsetPtr, CopyPreservesTargetNotOffset) {
  // Two offset_ptrs at different addresses pointing at the same object
  // hold different raw offsets; copying must recompute.
  int x = 1;
  pmem::offset_ptr<int> a(&x);
  pmem::offset_ptr<int> b;
  b = a;
  EXPECT_EQ(a.get(), b.get());
}

TEST(OffsetPtr, SurvivesBlockRelocation) {
  // Simulate a remap: a struct containing an offset_ptr into itself is
  // memmoved to a new location; the self-relative pointer must follow.
  struct Node {
    int value;
    pmem::offset_ptr<int> self;
  };
  alignas(Node) unsigned char buf_a[sizeof(Node)];
  alignas(Node) unsigned char buf_b[sizeof(Node)];
  auto* node = new (buf_a) Node{11, nullptr};
  node->self = &node->value;
  std::memcpy(buf_b, buf_a, sizeof(Node));
  auto* moved = reinterpret_cast<Node*>(buf_b);
  EXPECT_EQ(moved->self.get(), &moved->value);
  EXPECT_EQ(*moved->self, 11);
}

TEST(OffsetPtr, ArithmeticWalksArrays) {
  int arr[4] = {0, 1, 2, 3};
  pmem::offset_ptr<int> p(&arr[0]);
  EXPECT_EQ(p[2], 2);
  p += 3;
  EXPECT_EQ(*p, 3);
  pmem::offset_ptr<int> q(&arr[1]);
  EXPECT_EQ(p - q, 2);
}

// -- arena --------------------------------------------------------------------

TEST(Arena, SizeClassesArePowersOfTwoFromSixteen) {
  EXPECT_EQ(pmem::size_class_of(1), 0u);
  EXPECT_EQ(pmem::size_class_of(16), 0u);
  EXPECT_EQ(pmem::size_class_of(17), 1u);
  EXPECT_EQ(pmem::size_class_of(32), 1u);
  EXPECT_EQ(pmem::size_class_of(33), 2u);
  EXPECT_EQ(pmem::size_class_bytes(0), 16u);
  EXPECT_EQ(pmem::size_class_bytes(3), 128u);
}

class ArenaFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    buffer_.resize(1 << 20);
    header_ = reinterpret_cast<pmem::ArenaHeader*>(buffer_.data());
    pmem::arena_format(header_, buffer_.size());
  }
  std::vector<unsigned char> buffer_;
  pmem::ArenaHeader* header_ = nullptr;
};

TEST_F(ArenaFixture, FormatThenValidate) {
  EXPECT_TRUE(pmem::arena_validate(header_, buffer_.size()));
  pmem::ArenaHeader bogus{};
  EXPECT_FALSE(pmem::arena_validate(&bogus, sizeof(bogus)));
}

TEST_F(ArenaFixture, AllocationsAreDisjointAndAligned) {
  void* a = pmem::arena_allocate(header_, 100);
  void* b = pmem::arena_allocate(header_, 100);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 16, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 16, 0u);
  // 100 B rounds to the 128 B class.
  EXPECT_GE(reinterpret_cast<char*>(b) - reinterpret_cast<char*>(a), 128);
}

TEST_F(ArenaFixture, FreedBlocksAreReused) {
  void* a = pmem::arena_allocate(header_, 64);
  pmem::arena_deallocate(header_, a, 64);
  void* b = pmem::arena_allocate(header_, 64);
  EXPECT_EQ(a, b);  // LIFO free list
}

TEST_F(ArenaFixture, AllocatedCounterTracksLiveBytes) {
  EXPECT_EQ(header_->allocated, 0u);
  void* a = pmem::arena_allocate(header_, 10);  // 16 B class
  EXPECT_EQ(header_->allocated, 16u);
  pmem::arena_deallocate(header_, a, 10);
  EXPECT_EQ(header_->allocated, 0u);
}

TEST_F(ArenaFixture, ExhaustionReturnsNull) {
  EXPECT_EQ(pmem::arena_allocate(header_, buffer_.size() * 2), nullptr);
  // Drain with large blocks until failure; must not crash or overrun.
  while (pmem::arena_allocate(header_, 1 << 16) != nullptr) {
  }
  EXPECT_EQ(pmem::arena_allocate(header_, 1 << 16), nullptr);
  EXPECT_NE(pmem::arena_allocate(header_, 8), nullptr);  // smaller still fits
}

TEST_F(ArenaFixture, HighWaterIsMonotoneAcrossFreeAndReuse) {
  void* a = pmem::arena_allocate(header_, 1000);  // 1024 B class
  EXPECT_EQ(pmem::arena_stats(header_).high_water_bytes, 1024u);

  pmem::arena_deallocate(header_, a, 1000);
  auto stats = pmem::arena_stats(header_);
  EXPECT_EQ(stats.allocated_bytes, 0u);
  EXPECT_EQ(stats.high_water_bytes, 1024u);  // freeing never lowers it

  // Reusing the freed block climbs back to, but not past, the old mark.
  (void)pmem::arena_allocate(header_, 1000);
  EXPECT_EQ(pmem::arena_stats(header_).high_water_bytes, 1024u);

  // A second live block pushes the mark higher.
  (void)pmem::arena_allocate(header_, 100);
  stats = pmem::arena_stats(header_);
  EXPECT_EQ(stats.allocated_bytes, 1024u + 128u);
  EXPECT_EQ(stats.high_water_bytes, 1024u + 128u);
  EXPECT_EQ(stats.capacity_bytes, buffer_.size());
  EXPECT_GE(stats.bump_bytes, sizeof(pmem::ArenaHeader));
}

TEST_F(ArenaFixture, StatsClampTornHighWaterToLiveBytes) {
  (void)pmem::arena_allocate(header_, 1 << 12);
  // Simulate a crash that persisted `allocated` but tore the high-water
  // field (the two are separate non-atomic stores). The reader must never
  // report a high water below live bytes — the ledger stays consistent.
  header_->high_water = 0;
  const auto stats = pmem::arena_stats(header_);
  EXPECT_EQ(stats.high_water_bytes, stats.allocated_bytes);
  EXPECT_EQ(stats.allocated_bytes, std::size_t{1} << 12);
}

TEST_F(ArenaFixture, PreHighWaterLayoutsAreRejected) {
  // Version 1 headers predate the high_water field; the layout shifted,
  // so validation must refuse them rather than misread the directory.
  header_->version = 1;
  EXPECT_FALSE(pmem::arena_validate(header_, buffer_.size()));
}

// -- pmem::vector (over a transient arena) ------------------------------------

class PmemVectorFixture : public ArenaFixture {};

TEST_F(PmemVectorFixture, PushBackAndIndex) {
  pmem::vector<int> v{pmem::allocator<int>(header_)};
  for (int i = 0; i < 100; ++i) v.push_back(i * i);
  ASSERT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i * i);
}

TEST_F(PmemVectorFixture, ResizeGrowAndShrink) {
  pmem::vector<int> v{pmem::allocator<int>(header_)};
  v.resize(5, 9);
  EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(v[4], 9);
  v.resize(2);
  EXPECT_EQ(v.size(), 2u);
  v.resize(4);
  EXPECT_EQ(v[3], 0);
}

TEST_F(PmemVectorFixture, AtThrowsOutOfRange) {
  pmem::vector<int> v{pmem::allocator<int>(header_)};
  v.push_back(1);
  EXPECT_EQ(v.at(0), 1);
  EXPECT_THROW(v.at(1), std::out_of_range);
}

TEST_F(PmemVectorFixture, CopyAndMoveSemantics) {
  pmem::vector<int> v{pmem::allocator<int>(header_)};
  for (int i = 0; i < 10; ++i) v.push_back(i);
  pmem::vector<int> copy(v);
  EXPECT_EQ(copy, v);
  pmem::vector<int> moved(std::move(v));
  EXPECT_EQ(moved, copy);
  EXPECT_TRUE(v.empty());  // NOLINT(bugprone-use-after-move): spec'd empty
}

TEST_F(PmemVectorFixture, ShrinkToFitReleasesMemory) {
  pmem::vector<int> v{pmem::allocator<int>(header_)};
  v.reserve(1024);
  v.push_back(1);
  const auto before = header_->allocated;
  v.shrink_to_fit();
  EXPECT_LT(header_->allocated, before);
  EXPECT_EQ(v[0], 1);
}

TEST_F(PmemVectorFixture, WorksWithNonTrivialElements) {
  // Elements with self-relative pointers must survive regrowth (the
  // element-wise move in regrow(); memcpy would corrupt them).
  struct Holder {
    int value = 0;
    pmem::offset_ptr<int> self;
    Holder() { self = &value; }
    explicit Holder(int v) : value(v) { self = &value; }
    Holder(const Holder& o) : value(o.value) { self = &value; }
    Holder& operator=(const Holder& o) {
      value = o.value;
      return *this;
    }
  };
  pmem::vector<Holder> v{pmem::allocator<Holder>(header_)};
  for (int i = 0; i < 50; ++i) v.push_back(Holder(i));  // forces regrowth
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(*v[static_cast<std::size_t>(i)].self, i);
    EXPECT_EQ(v[static_cast<std::size_t>(i)].self.get(),
              &v[static_cast<std::size_t>(i)].value);
  }
}

// -- Manager -------------------------------------------------------------------

TEST(Manager, CreateFindConstructDestroy) {
  TempFile file("dnnd_pmem_basic.dat");
  auto mgr = pmem::Manager::create(file.path(), 1 << 20);
  EXPECT_TRUE(mgr.is_open());

  auto* x = mgr.find_or_construct<int>("answer", 42);
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(*x, 42);
  // Second call finds, does not reconstruct.
  EXPECT_EQ(mgr.find_or_construct<int>("answer", 7), x);
  EXPECT_EQ(*x, 42);
  EXPECT_TRUE(mgr.contains("answer"));

  EXPECT_TRUE(mgr.destroy<int>("answer"));
  EXPECT_FALSE(mgr.contains("answer"));
  EXPECT_FALSE(mgr.destroy<int>("answer"));
}

TEST(Manager, TypeMismatchThrows) {
  TempFile file("dnnd_pmem_type.dat");
  auto mgr = pmem::Manager::create(file.path(), 1 << 20);
  mgr.find_or_construct<int>("obj", 1);
  EXPECT_THROW((void)mgr.find<double>("obj"), std::runtime_error);
}

TEST(Manager, OpenMissingFileThrows) {
  EXPECT_THROW(pmem::Manager::open(temp_path("definitely_missing.dat")),
               std::system_error);
}

TEST(Manager, OpenNonDatastoreThrows) {
  TempFile file("dnnd_pmem_garbage.dat");
  {
    std::ofstream out(file.path(), std::ios::binary);
    out << std::string(8192, 'x');
  }
  EXPECT_THROW(pmem::Manager::open(file.path()), std::runtime_error);
}

TEST(Manager, DataSurvivesReopen) {
  TempFile file("dnnd_pmem_reopen.dat");
  {
    auto mgr = pmem::Manager::create(file.path(), 4 << 20);
    auto* v = mgr.find_or_construct<pmem::vector<std::uint64_t>>(
        "numbers", mgr.get_allocator<std::uint64_t>());
    ASSERT_NE(v, nullptr);
    for (std::uint64_t i = 0; i < 10000; ++i) v->push_back(i * 3);
  }  // close
  {
    auto mgr = pmem::Manager::open(file.path());
    auto* v = mgr.find<pmem::vector<std::uint64_t>>("numbers");
    ASSERT_NE(v, nullptr);
    ASSERT_EQ(v->size(), 10000u);
    for (std::uint64_t i = 0; i < 10000; ++i) EXPECT_EQ((*v)[i], i * 3);
    // And the reopened structure is still mutable.
    v->push_back(999);
    EXPECT_EQ(v->back(), 999u);
  }
}

TEST(Manager, StatsReportHighWaterAndSurviveReopen) {
  TempFile file("dnnd_pmem_stats.dat");
  std::size_t peak = 0;
  {
    auto mgr = pmem::Manager::create(file.path(), 1 << 20);
    EXPECT_EQ(mgr.stats().allocated_bytes, 0u);
    auto* v = mgr.find_or_construct<pmem::vector<std::uint64_t>>(
        "numbers", mgr.get_allocator<std::uint64_t>());
    ASSERT_NE(v, nullptr);
    for (std::uint64_t i = 0; i < 1000; ++i) v->push_back(i);
    peak = mgr.stats().high_water_bytes;
    EXPECT_GE(peak, 1000 * sizeof(std::uint64_t));
    // Dropping the object lowers live bytes but not the high water.
    EXPECT_TRUE(mgr.destroy<pmem::vector<std::uint64_t>>("numbers"));
    EXPECT_LT(mgr.stats().allocated_bytes, peak);
    EXPECT_EQ(mgr.stats().high_water_bytes, peak);
  }
  // The mark is part of the persisted header: a reopening process (the
  // paper's separate optimize/query executables) sees the build's peak.
  auto mgr = pmem::Manager::open(file.path());
  EXPECT_EQ(mgr.stats().high_water_bytes, peak);
  EXPECT_EQ(mgr.stats().capacity_bytes, std::size_t{1} << 20);
}

TEST(Manager, SnapshotIsIndependentCopy) {
  TempFile file("dnnd_pmem_snap_src.dat");
  TempFile snap("dnnd_pmem_snap_dst.dat");
  auto mgr = pmem::Manager::create(file.path(), 1 << 20);
  auto* x = mgr.find_or_construct<int>("x", 5);
  mgr.snapshot(snap.path());
  *x = 6;  // mutate the source after the snapshot
  mgr.flush();

  auto snap_mgr = pmem::Manager::open(snap.path());
  EXPECT_EQ(*snap_mgr.find<int>("x"), 5);
  auto reopened = pmem::Manager::open(file.path());
  EXPECT_EQ(*reopened.find<int>("x"), 6);
}

TEST(Manager, AllocatorThrowsWhenExhausted) {
  TempFile file("dnnd_pmem_exhaust.dat");
  auto mgr = pmem::Manager::create(file.path(), 1 << 20);
  auto alloc = mgr.get_allocator<char>();
  EXPECT_THROW((void)alloc.allocate(2 << 20), pmem::ArenaExhausted);
}

TEST(Manager, SealTrimsTheFileToTheBytesUsed) {
  TempFile file("dnnd_pmem_seal.dat");
  constexpr std::size_t kReserved = 4 << 20;
  std::size_t used = 0;
  {
    auto mgr = pmem::Manager::create(file.path(), kReserved);
    auto* v = mgr.find_or_construct<pmem::vector<std::uint64_t>>(
        "numbers", mgr.get_allocator<std::uint64_t>());
    ASSERT_NE(v, nullptr);
    v->reserve(1000);  // one block: leaves the free lists empty
    for (std::uint64_t i = 0; i < 1000; ++i) v->push_back(i * 7);
    ASSERT_NE(mgr.find_or_construct<int>("answer", 42), nullptr);
    used = mgr.stats().bump_bytes;
    mgr.seal();
    EXPECT_EQ(mgr.capacity_bytes(), used);
    EXPECT_EQ(std::filesystem::file_size(file.path()), used);
    // No fresh bytes remain, even before a reopen.
    EXPECT_EQ(mgr.find_or_construct<int>("late", 1), nullptr);
  }
  EXPECT_LT(used, kReserved / 64);
  EXPECT_EQ(std::filesystem::file_size(file.path()), used);

  // The sealed file reopens through the ordinary open(): capacity equals
  // the file size, and everything written before the seal is intact.
  auto mgr = pmem::Manager::open(file.path());
  EXPECT_EQ(mgr.capacity_bytes(), used);
  EXPECT_EQ(mgr.stats().bump_bytes, used);
  auto* v = mgr.find<pmem::vector<std::uint64_t>>("numbers");
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->size(), 1000u);
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_EQ((*v)[i], i * 7);
  EXPECT_EQ(*mgr.find<int>("answer"), 42);

  // A new object needs fresh bytes: exhaustion, not a write past EOF.
  EXPECT_EQ(mgr.find_or_construct<int>("fresh", 3), nullptr);
  auto alloc = mgr.get_allocator<char>();
  EXPECT_THROW((void)alloc.allocate(64), pmem::ArenaExhausted);
  // Freed blocks lie inside the file, so they stay reusable.
  EXPECT_TRUE(mgr.destroy<int>("answer"));
  auto* reused = mgr.find_or_construct<int>("reused", 5);
  ASSERT_NE(reused, nullptr);
  EXPECT_LT(pmem::arena_offset_of(mgr.header(), reused), used);
}

TEST(Manager, MoveTransfersOwnership) {
  TempFile file("dnnd_pmem_move.dat");
  auto mgr = pmem::Manager::create(file.path(), 1 << 20);
  mgr.find_or_construct<int>("k", 3);
  pmem::Manager moved(std::move(mgr));
  EXPECT_FALSE(mgr.is_open());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(moved.is_open());
  EXPECT_EQ(*moved.find<int>("k"), 3);
}

// -- torn-write properties of the checkpoint generation store -----------------
//
// CheckpointStore's crash-consistency claim: whatever happens to the
// *newest* generation file after commit (truncation mid-write, bit flips,
// garbage appended), open_latest() never returns it — it rolls back to the
// last CRC-valid generation, or to "no checkpoint" when none survives.
// Exercised here as a randomized property over corruption kinds/offsets.

class TempDir {
 public:
  explicit TempDir(const std::string& name) : path_(temp_path(name)) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Commits one generation whose file holds `bytes` pseudo-random bytes
/// (commit() only CRCs the file; the store is format-agnostic).
dnnd::core::GenerationInfo commit_generation(dnnd::core::CheckpointStore& store,
                                             std::uint64_t iteration,
                                             std::size_t bytes,
                                             std::mt19937_64& rng) {
  const std::uint64_t gen = store.next_generation();
  std::ofstream out(store.generation_path(gen), std::ios::binary);
  for (std::size_t i = 0; i < bytes; ++i) {
    out.put(static_cast<char>(rng() & 0xFF));
  }
  out.close();
  return store.commit(gen, iteration, false);
}

struct L2Fn {
  float operator()(std::span<const float> a, std::span<const float> b) const {
    return dnnd::core::l2(a, b);
  }
};

dnnd::core::DnndConfig small_build_config(std::uint64_t seed) {
  dnnd::core::DnndConfig cfg;
  cfg.k = 8;
  cfg.delta = 0.0;
  cfg.max_iterations = 3;
  cfg.seed = seed;
  return cfg;
}

/// Commits generations through the real checkpoint path — a small 4-rank
/// build whose hook writes a sealed pmem generation every iteration — and
/// returns the store's two newest, each recording the iteration it cut.
std::pair<dnnd::core::GenerationInfo, dnnd::core::GenerationInfo>
commit_checkpoint_generations(dnnd::core::CheckpointStore& store,
                              const dnnd::core::FeatureStore<float>& points,
                              std::uint64_t seed) {
  dnnd::comm::Environment env(dnnd::comm::Config{.num_ranks = 4});
  dnnd::core::DnndRunner<float, L2Fn> runner(env, small_build_config(seed),
                                             L2Fn{});
  runner.set_checkpoint_hook(1, [&](std::size_t, bool) {
    dnnd::core::write_checkpoint_generation(store, runner, 4 << 20);
  });
  runner.distribute(points);
  runner.build();
  const auto gens = store.generations();
  EXPECT_EQ(gens.size(), dnnd::core::CheckpointStore::kKeepGenerations);
  return {gens.front(), gens.back()};
}

/// Damages a committed file the way a crash or bad media can; `kind`
/// (0, 1 or 2) picks one of the three cases below.
void corrupt(const std::string& path, std::uint64_t bytes,
             std::uint64_t kind, std::mt19937_64& rng) {
  if (kind == 0) {
    // Torn write: truncate at a random interior offset.
    std::filesystem::resize_file(path, rng() % bytes);
  } else if (kind == 1) {
    // Bit flip at a random offset.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const auto at = static_cast<std::streamoff>(rng() % bytes);
    f.seekg(at);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ (1 << (rng() % 8)));
    f.seekp(at);
    f.write(&byte, 1);
  } else {
    // Trailing garbage (e.g. a crashed re-extend).
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.put('x');
  }
}

TEST(CheckpointStoreTornWrites, RandomCorruptionAlwaysRollsBack) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    SCOPED_TRACE("property seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    TempDir dir("dnnd_store_torn_" + std::to_string(seed));
    dnnd::core::CheckpointStore store(dir.path());
    const auto good = commit_generation(store, 3, 8192, rng);
    const auto newest = commit_generation(store, 6, 8192, rng);
    ASSERT_EQ(store.open_latest()->generation, newest.generation);

    corrupt(dir.path() + "/" + newest.file, newest.bytes, rng() % 3, rng);
    EXPECT_FALSE(store.valid(newest));
    const auto opened = store.open_latest();
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(opened->generation, good.generation);
    EXPECT_EQ(opened->iteration, 3u);
  }

  // The same property over sealed checkpoint datastores written by
  // write_checkpoint_generation, one build per corruption kind; the
  // rolled-back generation still loads.
  const auto points =
      dnnd::data::GaussianMixture({.dim = 8, .seed = 17}).sample(200, 1);
  for (const std::uint64_t kind : {0ULL, 1ULL, 2ULL}) {
    const std::uint64_t seed = kind + 1;
    SCOPED_TRACE("checkpoint generations, corruption kind " +
                 std::to_string(kind));
    std::mt19937_64 rng(seed);
    TempDir dir("dnnd_store_torn_ckpt_" + std::to_string(seed));
    dnnd::core::CheckpointStore store(dir.path());
    const auto [good, newest] =
        commit_checkpoint_generations(store, points, seed);
    ASSERT_EQ(store.open_latest()->generation, newest.generation);

    corrupt(dir.path() + "/" + newest.file, newest.bytes, kind, rng);
    EXPECT_FALSE(store.valid(newest));
    dnnd::comm::Environment env(dnnd::comm::Config{.num_ranks = 4});
    dnnd::core::DnndRunner<float, L2Fn> runner(env, small_build_config(seed),
                                               L2Fn{});
    const auto loaded = dnnd::core::load_latest_generation(store, runner);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->generation, good.generation);
    EXPECT_EQ(runner.completed_iterations(), good.iteration);
  }
}

TEST(CheckpointStoreTornWrites, AllGenerationsCorruptMeansNoCheckpoint) {
  std::mt19937_64 rng(99);
  TempDir dir("dnnd_store_all_torn");
  dnnd::core::CheckpointStore store(dir.path());
  commit_generation(store, 1, 2048, rng);
  commit_generation(store, 2, 2048, rng);
  for (const auto& gen : store.generations()) {
    std::filesystem::resize_file(dir.path() + "/" + gen.file, 16);
  }
  EXPECT_FALSE(store.open_latest().has_value());
}

TEST(CheckpointStoreTornWrites, DeletedGenerationFileRollsBackToo) {
  std::mt19937_64 rng(7);
  TempDir dir("dnnd_store_deleted");
  dnnd::core::CheckpointStore store(dir.path());
  const auto good = commit_generation(store, 2, 1024, rng);
  const auto newest = commit_generation(store, 4, 1024, rng);
  std::filesystem::remove(dir.path() + "/" + newest.file);
  ASSERT_TRUE(store.open_latest().has_value());
  EXPECT_EQ(store.open_latest()->generation, good.generation);
}

TEST(CheckpointStoreTornWrites, MalformedManifestReadsAsEmptyStore) {
  std::mt19937_64 rng(13);
  TempDir dir("dnnd_store_bad_manifest");
  dnnd::core::CheckpointStore store(dir.path());
  commit_generation(store, 1, 512, rng);
  {
    std::ofstream out(dir.path() + "/MANIFEST.json",
                      std::ios::binary | std::ios::trunc);
    out << "{\"schema\":\"dnnd.checkpoint.v1\",\"generations\":[{\"gen";
  }
  EXPECT_TRUE(store.generations().empty());
  EXPECT_FALSE(store.open_latest().has_value());
}

TEST(CheckpointStore, PrunesToTheTwoNewestGenerations) {
  std::mt19937_64 rng(21);
  TempDir dir("dnnd_store_prune");
  dnnd::core::CheckpointStore store(dir.path());
  for (std::uint64_t i = 1; i <= 5; ++i) {
    commit_generation(store, i, 1024, rng);
  }
  const auto gens = store.generations();
  ASSERT_EQ(gens.size(), dnnd::core::CheckpointStore::kKeepGenerations);
  EXPECT_EQ(gens.front().generation, 4u);
  EXPECT_EQ(gens.back().generation, 5u);
  // Pruned files are gone from disk; retained ones still validate.
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/gen-1.dat"));
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/gen-3.dat"));
  for (const auto& gen : gens) EXPECT_TRUE(store.valid(gen));
}

}  // namespace
