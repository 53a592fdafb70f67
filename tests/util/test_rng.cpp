#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace gaia::util {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Xoshiro256 rng(10);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Xoshiro256 rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexInRange) {
  Xoshiro256 rng(12);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_index(7), 7u);
  }
  // n = 1 always yields 0.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Xoshiro256 rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NormalMomentsMatch) {
  Xoshiro256 rng(14);
  const int n = 200000;
  double sum = 0, sumsq = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sumsq += v * v;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsScalesAndShifts) {
  Xoshiro256 rng(15);
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 0.5);
  EXPECT_NEAR(sum / n, 5.0, 0.02);
}

TEST(Rng, JumpProducesDisjointStream) {
  Xoshiro256 a(77);
  Xoshiro256 b(77);
  b.jump();
  // Streams must differ immediately and extensively.
  int same = 0;
  for (int i = 0; i < 1000; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

// The generator's replay relies on this: discarding k normals leaves the
// stream exactly where k normal() calls would, cached value included.
TEST(Rng, DiscardNormalsMatchesDrawingThem) {
  for (const bool cached : {false, true}) {
    for (const std::uint64_t k : {0, 1, 2, 3, 23, 24, 25}) {
      Xoshiro256 drawn(2024);
      Xoshiro256 discarded(2024);
      if (cached) {
        (void)drawn.normal();
        (void)discarded.normal();
      }
      for (std::uint64_t i = 0; i < k; ++i) (void)drawn.normal();
      discarded.discard_normals(k);
      EXPECT_EQ(discarded.normal(), drawn.normal())
          << "k=" << k << " cached=" << cached;
      EXPECT_EQ(discarded.next(), drawn.next())
          << "k=" << k << " cached=" << cached;
    }
  }
}

TEST(Rng, SplitMixDeterministic) {
  SplitMix64 a(5), b(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
}

}  // namespace
}  // namespace gaia::util
