#include "core/weights.hpp"

#include <gtest/gtest.h>

#include "core/lsqr.hpp"
#include "matrix/dense.hpp"
#include "matrix/generator.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace gaia::core {
namespace {

TEST(RowWeights, ScalesMatrixAndRhs) {
  auto gen = matrix::generate_system(gaia::testing::small_config(120));
  const auto values_before =
      std::vector<real>(gen.A.values().begin(), gen.A.values().end());
  const auto b_before = std::vector<real>(gen.A.known_terms().begin(),
                                          gen.A.known_terms().end());
  std::vector<real> w(static_cast<std::size_t>(gen.A.n_rows()));
  util::Xoshiro256 rng(1);
  for (auto& v : w) v = 0.5 + rng.uniform();
  apply_row_weights(gen.A, w);
  for (row_index r = 0; r < gen.A.n_rows(); ++r) {
    const auto ri = static_cast<std::size_t>(r);
    for (int k = 0; k < kNnzPerRow; ++k) {
      EXPECT_DOUBLE_EQ(gen.A.values()[ri * kNnzPerRow + k],
                       values_before[ri * kNnzPerRow + k] * w[ri]);
    }
    EXPECT_DOUBLE_EQ(gen.A.known_terms()[ri], b_before[ri] * w[ri]);
  }
}

TEST(RowWeights, UnitWeightsAreIdentity) {
  auto gen = matrix::generate_system(gaia::testing::small_config(121));
  const auto before =
      std::vector<real>(gen.A.values().begin(), gen.A.values().end());
  std::vector<real> ones(static_cast<std::size_t>(gen.A.n_rows()), 1.0);
  apply_row_weights(gen.A, ones);
  EXPECT_TRUE(std::equal(before.begin(), before.end(),
                         gen.A.values().begin()));
}

TEST(RowWeights, RejectsBadInput) {
  auto gen = matrix::generate_system(gaia::testing::small_config(122));
  std::vector<real> short_w(3, 1.0);
  EXPECT_THROW(apply_row_weights(gen.A, short_w), gaia::Error);
  std::vector<real> bad(static_cast<std::size_t>(gen.A.n_rows()), 1.0);
  bad[0] = 0.0;
  EXPECT_THROW(apply_row_weights(gen.A, bad), gaia::Error);
}

TEST(FormalWeights, InverseOfSigma) {
  std::vector<real> sigmas{0.5, 2.0, 1.0};
  const auto w = weights_from_formal_errors(sigmas);
  EXPECT_DOUBLE_EQ(w[0], 2.0);
  EXPECT_DOUBLE_EQ(w[1], 0.5);
  EXPECT_DOUBLE_EQ(w[2], 1.0);
  std::vector<real> bad{1.0, 0.0};
  EXPECT_THROW(weights_from_formal_errors(bad), gaia::Error);
}

TEST(Huber, CoreKeepsUnitWeight) {
  std::vector<real> residuals{0.1, -0.2, 0.15, -0.05, 0.12};
  HuberConfig cfg;
  cfg.sigma_unit = 1.0;  // threshold = 3
  const auto f = huber_factors(residuals, cfg);
  for (real v : f) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Huber, OutliersDownweightedProportionally) {
  std::vector<real> residuals{0.1, 6.0, -12.0};
  HuberConfig cfg;
  cfg.k = 3.0;
  cfg.sigma_unit = 1.0;
  const auto f = huber_factors(residuals, cfg);
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], 0.5);   // 3 / 6
  EXPECT_DOUBLE_EQ(f[2], 0.25);  // 3 / 12
}

TEST(Huber, MadScaleEstimatedWhenUnset) {
  // Gaussian-ish core with one large outlier: the MAD-derived cut must
  // flag only the outlier.
  util::Xoshiro256 rng(2);
  std::vector<real> residuals(500);
  for (auto& r : residuals) r = rng.normal(0.0, 0.1);
  residuals[7] = 5.0;
  const auto f = huber_factors(residuals);
  EXPECT_LT(f[7], 0.2);
  int downweighted = 0;
  for (real v : f) downweighted += (v < 1.0);
  EXPECT_LT(downweighted, 25);  // ~1% expected beyond 3 sigma
}

TEST(Huber, AllZeroResidualsNoop) {
  std::vector<real> residuals(10, 0.0);
  const auto f = huber_factors(residuals);
  for (real v : f) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Residuals, MatchDenseComputation) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(123));
  util::Xoshiro256 rng(3);
  std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()));
  for (auto& v : x) v = rng.normal();
  const auto res = compute_residuals(gen.A, x);
  const auto M = matrix::to_dense(gen.A);
  auto expect = matrix::dense_matvec(M, gen.A.n_rows(), gen.A.n_cols(), x);
  for (std::size_t i = 0; i < expect.size(); ++i)
    expect[i] -= gen.A.known_terms()[i];
  EXPECT_LT(gaia::testing::max_abs_diff(res, expect), 1e-10);
}

TEST(WeightedSolve, EquivalentToScaledSystem) {
  // Solving the weighted system must equal dense weighted least squares.
  auto gen = matrix::generate_system(gaia::testing::small_config(124));
  std::vector<real> w(static_cast<std::size_t>(gen.A.n_rows()));
  util::Xoshiro256 rng(4);
  for (auto& v : w) v = 0.25 + rng.uniform();
  apply_row_weights(gen.A, w);

  LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kSerial;
  opts.max_iterations = 500;
  opts.atol = 1e-12;
  opts.btol = 1e-12;
  const auto result = lsqr_solve(gen.A, opts);
  const auto M = matrix::to_dense(gen.A);
  const auto x_ref = matrix::dense_least_squares(
      M, gen.A.n_rows(), gen.A.n_cols(), gen.A.known_terms());
  EXPECT_LT(gaia::testing::rel_l2_error(result.x, x_ref), 1e-6);
}

TEST(WeightedSolve, DownweightingOutliersImprovesRecovery) {
  // Ground-truth system with a handful of corrupted observations: the
  // robust re-weighted solve must land closer to the truth.
  auto cfg = gaia::testing::medium_config(125);
  cfg.rhs_mode = matrix::RhsMode::kFromGroundTruth;
  cfg.noise_sigma = 0.01;
  auto gen = matrix::generate_system(cfg);
  auto b = gen.A.known_terms();
  util::Xoshiro256 rng(5);
  for (int k = 0; k < 25; ++k) {
    b[rng.uniform_index(static_cast<std::uint64_t>(gen.A.n_obs()))] +=
        rng.normal(0.0, 20.0);
  }

  LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kSerial;
  opts.max_iterations = 400;
  opts.atol = 1e-12;
  opts.btol = 1e-12;
  const auto naive = lsqr_solve(gen.A, opts);

  // One robust outer iteration: residuals -> Huber factors -> re-solve.
  const auto residuals = compute_residuals(gen.A, naive.x);
  const auto factors = huber_factors(residuals);
  matrix::SystemMatrix weighted = gen.A;
  apply_row_weights(weighted, factors);
  const auto robust = lsqr_solve(weighted, opts);

  const auto& truth = *gen.ground_truth;
  const double err_naive = gaia::testing::rel_l2_error(naive.x, truth);
  const double err_robust = gaia::testing::rel_l2_error(robust.x, truth);
  EXPECT_LT(err_robust, err_naive);
}

}  // namespace
}  // namespace gaia::core
