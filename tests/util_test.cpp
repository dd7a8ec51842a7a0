// Unit tests for dnnd::util — RNG determinism and statistics, hashing and
// partitioning, the clock, CRC-32 and the JSON reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.hpp"
#include "util/clock.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using dnnd::util::Xoshiro256;

TEST(Rng, SameSeedSameStream) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Xoshiro256 parent(7);
  const Xoshiro256 forked_early = parent.fork(3);
  (void)parent();
  (void)parent();
  Xoshiro256 parent2(7);
  const Xoshiro256 forked_late = parent2.fork(3);
  Xoshiro256 a = forked_early, b = forked_late;
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, ForksWithDifferentIdsDiffer) {
  Xoshiro256 parent(7);
  Xoshiro256 a = parent.fork(0), b = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformBelowStaysInRange) {
  Xoshiro256 rng(42);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 7ULL, 100ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform_below(bound), bound);
  }
}

TEST(Rng, UniformBelowOneAlwaysZero) {
  Xoshiro256 rng(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_below(1), 0u);
}

TEST(Rng, UniformBelowIsRoughlyUniform) {
  Xoshiro256 rng(42);
  constexpr std::uint64_t kBound = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_below(kBound)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBound, 0.1 * kDraws / kBound);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NormalHasExpectedMoments) {
  Xoshiro256 rng(9);
  constexpr int kDraws = 50000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kDraws;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(std::sqrt(sum_sq / kDraws - mean * mean), 1.0, 0.03);
}

TEST(Rng, ShuffleIsAPermutation) {
  Xoshiro256 rng(11);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  dnnd::util::shuffle(shuffled.begin(), shuffled.end(), rng);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, BernoulliExtremes) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Hash, OwnerRankInRangeAndStable) {
  for (int ranks : {1, 2, 7, 16, 128}) {
    for (std::uint64_t id = 0; id < 1000; ++id) {
      const int r = dnnd::util::owner_rank(id, ranks);
      EXPECT_GE(r, 0);
      EXPECT_LT(r, ranks);
      EXPECT_EQ(r, dnnd::util::owner_rank(id, ranks));
    }
  }
}

TEST(Hash, OwnerRankBalancesLoad) {
  constexpr int kRanks = 8;
  constexpr int kIds = 80000;
  std::vector<int> counts(kRanks, 0);
  for (std::uint64_t id = 0; id < kIds; ++id) {
    ++counts[dnnd::util::owner_rank(id, kRanks)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kIds / kRanks, 0.05 * kIds / kRanks);
  }
}

TEST(Hash, Mix64ChangesOnSingleBitFlips) {
  // Weak avalanche check: flipping one input bit flips a sizeable number
  // of output bits.
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t a = dnnd::util::mix64(0x123456789abcdefULL);
    const std::uint64_t b =
        dnnd::util::mix64(0x123456789abcdefULL ^ (1ULL << bit));
    EXPECT_GE(std::popcount(a ^ b), 10);
  }
}

TEST(Hash, Fnv1aDistinguishesStrings) {
  EXPECT_NE(dnnd::util::fnv1a("abc"), dnnd::util::fnv1a("abd"));
  EXPECT_NE(dnnd::util::fnv1a(""), dnnd::util::fnv1a("a"));
  EXPECT_EQ(dnnd::util::fnv1a("type1"), dnnd::util::fnv1a("type1"));
}

TEST(Clock, MonotonicMicrosecondsNeverGoBackwards) {
  const auto a = dnnd::util::monotonic_us();
  const auto b = dnnd::util::monotonic_us();
  EXPECT_GE(b, a);
}

// -- CRC-32 (checkpoint generation validation) --------------------------------

TEST(Crc32, MatchesTheIeeeCheckVector) {
  // The canonical CRC-32/ISO-HDLC check value: crc("123456789").
  EXPECT_EQ(dnnd::util::crc32(std::string_view("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) {
  EXPECT_EQ(dnnd::util::crc32(std::string_view("")), 0u);
}

TEST(Crc32, StreamingMatchesOneShotAcrossSplitPoints) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const auto expected = dnnd::util::crc32(std::string_view(data));
  for (std::size_t split = 0; split <= data.size(); ++split) {
    dnnd::util::Crc32 crc;
    crc.update(data.data(), split);
    crc.update(data.data() + split, data.size() - split);
    EXPECT_EQ(crc.value(), expected) << "split at " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::string data(256, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 7);
  }
  const auto clean = dnnd::util::crc32(std::string_view(data));
  for (const std::size_t at : {std::size_t{0}, data.size() / 2,
                               data.size() - 1}) {
    std::string torn = data;
    torn[at] = static_cast<char>(torn[at] ^ 0x10);
    EXPECT_NE(dnnd::util::crc32(std::string_view(torn)), clean)
        << "bit flip at " << at << " went undetected";
  }
}

// -- RNG state capture (checkpointed so resumed builds replay exactly) --------

TEST(Rng, StateRoundTripResumesTheExactStream) {
  Xoshiro256 original(42);
  for (int i = 0; i < 37; ++i) (void)original();  // advance mid-stream

  const auto state = original.state();
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 100; ++i) expected.push_back(original());

  Xoshiro256 resumed(999);  // different seed; state() overrides it fully
  resumed.set_state(state);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(resumed(), expected[i]);
}

}  // namespace
