#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

namespace ftcs::util {
namespace {

TEST(Prng, SplitMix64KnownSequence) {
  // Reference values for seed 0 (from the SplitMix64 reference code).
  std::uint64_t s = 0;
  const std::uint64_t first = splitmix64(s);
  EXPECT_EQ(first, 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(splitmix64(s), 0x6E789E6AA1B965F4ULL);
}

TEST(Prng, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Prng, DeriveSeedIndependence) {
  // Derived streams should not collide for distinct stream ids.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 1000; ++s) seeds.push_back(derive_seed(7, s));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(Prng, UniformInUnitInterval) {
  Xoshiro256 rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Prng, BelowRespectsBound) {
  Xoshiro256 rng(4);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) ASSERT_LT(rng.below(bound), bound);
  }
}

TEST(Prng, BelowIsRoughlyUniform) {
  Xoshiro256 rng(5);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.below(10)];
  for (int c : counts) EXPECT_NEAR(c, trials / 10, trials / 10 * 0.15);
}

TEST(Prng, InRangeInclusive) {
  Xoshiro256 rng(6);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.in_range(3, 5);
    ASSERT_GE(v, 3u);
    ASSERT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Prng, BernoulliMatchesProbability) {
  Xoshiro256 rng(7);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / static_cast<double>(trials), 0.3, 0.01);
}

TEST(Prng, ExponentialMeanMatchesRate) {
  Xoshiro256 rng(8);
  double sum = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / trials, 0.5, 0.02);
}

TEST(Prng, GeometricMeanMatchesP) {
  Xoshiro256 rng(9);
  double sum = 0;
  const int trials = 100000;
  const double p = 0.25;
  for (int i = 0; i < trials; ++i) sum += static_cast<double>(rng.geometric(p));
  EXPECT_NEAR(sum / trials, (1 - p) / p, 0.1);
}

TEST(Prng, GeometricEdgeCases) {
  Xoshiro256 rng(10);
  EXPECT_EQ(rng.geometric(1.0), 0u);
  // Gaps past 2^64 saturate rather than hit an out-of-range cast.
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(rng.geometric(1e-300), std::numeric_limits<std::uint64_t>::max());
}

TEST(Prng, ShuffleIsPermutation) {
  Xoshiro256 rng(11);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  shuffle(v, rng);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Prng, ShuffleActuallyShuffles) {
  Xoshiro256 rng(12);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  shuffle(v, rng);
  int fixed = 0;
  for (int i = 0; i < 50; ++i)
    if (v[i] == i) ++fixed;
  EXPECT_LT(fixed, 10);
}

}  // namespace
}  // namespace ftcs::util
