#include "core/vector_ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace gaia::core {
namespace {

using backends::BackendKind;

std::uint64_t bits(real value) { return std::bit_cast<std::uint64_t>(value); }

/// Lengths at every edge of the reduction partition: the 4096-element
/// block, the 32 768-element parallel threshold, and the 256-block cap
/// past which the blocks grow.
constexpr std::size_t kLongest = 3 * (1 << 20) + 5;
constexpr std::size_t kReductionLengths[] = {
    0,     1,     5,     4095,           4096,           4097,
    32767, 32768, 32769, 256 * 4096 - 1, 256 * 4096 + 1, kLongest};

class VectorOps : public ::testing::TestWithParam<BackendKind> {
 protected:
  static std::vector<real> random_vec(std::size_t n, std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    std::vector<real> v(n);
    for (auto& x : v) x = rng.normal();
    return v;
  }
  /// Two shared operands as long as the longest reduction length.
  static const std::vector<real>& operand(int which) {
    static const std::vector<real> a = random_vec(kLongest, 8);
    static const std::vector<real> b = random_vec(kLongest, 9);
    return which == 0 ? a : b;
  }
};

TEST_P(VectorOps, ScaleMultipliesEveryElement) {
  auto v = random_vec(10001, 1);
  const auto orig = v;
  vscale(GetParam(), v, 2.5);
  for (std::size_t i = 0; i < v.size(); ++i)
    ASSERT_DOUBLE_EQ(v[i], orig[i] * 2.5);
}

TEST_P(VectorOps, AxpyMatchesReference) {
  auto y = random_vec(10001, 2);
  const auto x = random_vec(10001, 3);
  const auto y0 = y;
  vaxpy(GetParam(), y, -1.5, x);
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_DOUBLE_EQ(y[i], y0[i] - 1.5 * x[i]);
}

TEST_P(VectorOps, XpbyMatchesReference) {
  auto y = random_vec(5000, 4);
  const auto x = random_vec(5000, 5);
  const auto y0 = y;
  vxpby(GetParam(), y, x, 0.75);
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_DOUBLE_EQ(y[i], x[i] + 0.75 * y0[i]);
}

TEST_P(VectorOps, AccumulateSquareMatchesReference) {
  auto y = random_vec(5000, 6);
  const auto x = random_vec(5000, 7);
  const auto y0 = y;
  vaccumulate_sq(GetParam(), y, 0.5, x);
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_DOUBLE_EQ(y[i], y0[i] + 0.25 * x[i] * x[i]);
}

TEST_P(VectorOps, ReductionsMatchTheCallingThreadBitForBit) {
  // The partition depends on n alone, so every backend returns the
  // one-argument call's bits.
  for (const std::size_t n : kReductionLengths) {
    const auto a = std::span<const real>(operand(0)).first(n);
    const auto b = std::span<const real>(operand(1)).first(n);
    EXPECT_EQ(bits(vnorm(GetParam(), a)), bits(vnorm(a))) << "n=" << n;
    EXPECT_EQ(bits(vsum(GetParam(), a)), bits(vsum(a))) << "n=" << n;
    EXPECT_EQ(bits(vdot(GetParam(), a, b)), bits(vdot(a, b))) << "n=" << n;
  }
}

TEST_P(VectorOps, BlockedSumIgnoresTheWorkerCount) {
  // The blocks are block_partition(n)'s and their partials fold in block
  // order, so the sum equals a block-by-block fold built by hand, at any
  // thread count: on OpenMP at teams of 1, 2, 3, 5 and 8 threads.
  for (const std::size_t n : {std::size_t{32769}, kLongest}) {
    const real* x = operand(0).data();
    const auto term = [=](std::size_t i) { return x[i]; };
    const BlockPartition part = block_partition(n);
    util::KahanSum by_hand;
    for (std::size_t begin = 0; begin < n; begin += part.length)
      by_hand.add(util::block_sum(begin, std::min(n, begin + part.length),
                                  term));
    const auto blocked = [&] {
      return backends::dispatch(GetParam(), [&](auto exec) {
        return detail::blocked_sum<decltype(exec)>(n, term);
      });
    };
    EXPECT_EQ(bits(blocked()), bits(by_hand.sum)) << "n=" << n;
#if defined(GAIA_HAS_OPENMP)
    if (GetParam() != BackendKind::kOpenMP) continue;
    const int team = omp_get_max_threads();
    for (const int threads : {1, 2, 3, 5, 8}) {
      omp_set_num_threads(threads);
      EXPECT_EQ(bits(blocked()), bits(by_hand.sum))
          << "n=" << n << " threads=" << threads;
    }
    omp_set_num_threads(team);
#endif
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, VectorOps,
                         ::testing::ValuesIn(backends::all_backends()),
                         [](const auto& info) {
                           return backends::to_string(info.param);
                         });

TEST(VectorNorm, MatchesHandComputed) {
  std::vector<real> v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(vnorm(v), 5.0);
  EXPECT_DOUBLE_EQ(vnorm(std::vector<real>{}), 0.0);
}

TEST(VectorDot, KahanSummationBeatsNaiveOnSkewedData) {
  // One large product followed by many small ones of alternating sign:
  // naive left-to-right summation loses the small terms entirely;
  // compensated summation keeps them. Compare against a long-double
  // reference, on every backend, also at a length whose 256 blocks are
  // longer than the minimum. The reference adds the large product last:
  // added one by one onto 1e12, millions of small products would round
  // in the same direction even in long double.
  for (const int n_small : {100000, 3 << 20}) {
    std::vector<real> a, b;
    a.push_back(1e12);
    b.push_back(1.0);
    for (int i = 0; i < n_small; ++i) {
      a.push_back(1.0);
      b.push_back(i % 2 ? 1e-3 : -1e-3 + 1e-5);
    }
    long double exact = 0;
    for (std::size_t i = 1; i < a.size(); ++i)
      exact += static_cast<long double>(a[i]) * b[i];
    exact += static_cast<long double>(a[0]) * b[0];
    double naive = 0;
    for (std::size_t i = 0; i < a.size(); ++i) naive += a[i] * b[i];
    const double naive_err = std::abs(static_cast<double>(naive - exact));
    for (const BackendKind backend : backends::all_backends()) {
      const real kahan = vdot(backend, a, b);
      const double kahan_err = std::abs(static_cast<double>(kahan - exact));
      EXPECT_LE(kahan_err, naive_err)
          << backends::to_string(backend) << " n=" << a.size();
      EXPECT_LT(kahan_err, 1e-3)
          << backends::to_string(backend) << " n=" << a.size();
    }
  }
}

TEST(VectorDot, MatchesHandComputed) {
  std::vector<real> a{1, 2, 3};
  std::vector<real> b{4, 5, 6};
  EXPECT_DOUBLE_EQ(vdot(a, b), 32.0);
}

TEST(VectorDot, DeterministicAcrossCalls) {
  util::Xoshiro256 rng(11);
  std::vector<real> a(100000), b(100000);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  const real d1 = vdot(a, b);
  const real d2 = vdot(a, b);
  // Bitwise: the blocks and their fold order are fixed by the length.
  EXPECT_EQ(d1, d2);
}

}  // namespace
}  // namespace gaia::core
