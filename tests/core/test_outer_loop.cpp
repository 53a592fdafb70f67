#include "core/outer_loop.hpp"

#include <gtest/gtest.h>

#include "matrix/generator.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace gaia::core {
namespace {

OuterLoopOptions loop_options() {
  OuterLoopOptions opts;
  opts.lsqr.aprod.backend = backends::BackendKind::kSerial;
  opts.lsqr.max_iterations = 300;
  opts.lsqr.atol = 1e-12;
  opts.lsqr.btol = 1e-12;
  opts.weight_change_tol = 2e-2;
  return opts;
}

matrix::GeneratedSystem corrupted_system(std::uint64_t seed, int outliers) {
  auto cfg = gaia::testing::medium_config(seed);
  cfg.rhs_mode = matrix::RhsMode::kFromGroundTruth;
  cfg.noise_sigma = 0.01;
  auto gen = matrix::generate_system(cfg);
  util::Xoshiro256 rng(seed ^ 0x0717e5ull);
  auto b = gen.A.known_terms();
  for (int k = 0; k < outliers; ++k)
    b[rng.uniform_index(static_cast<std::uint64_t>(gen.A.n_obs()))] +=
        rng.normal(0.0, 30.0);
  return gen;
}

TEST(OuterLoop, CleanDataConvergesImmediatelyWithUnitWeights) {
  auto cfg = gaia::testing::small_config(160);
  cfg.rhs_mode = matrix::RhsMode::kFromGroundTruth;
  cfg.noise_sigma = 0.01;
  const auto gen = matrix::generate_system(cfg);
  const auto result = robust_solve(gen.A, loop_options());
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.outer_iterations, 3);
  // Only a modest fraction of rows flagged on clean (gaussian + mild
  // constraint-inconsistency) data.
  EXPECT_LT(result.downweighted_rows.back(), gen.A.n_obs() / 5);
}

TEST(OuterLoop, OutliersGetDownweighted) {
  const auto gen = corrupted_system(161, 30);
  const auto result = robust_solve(gen.A, loop_options());
  EXPECT_TRUE(result.converged);
  EXPECT_GE(result.downweighted_rows.back(), 20);
  int strongly_downweighted = 0;
  for (real w : result.weights) strongly_downweighted += (w < 0.5);
  EXPECT_GE(strongly_downweighted, 20);
}

TEST(OuterLoop, RobustSolutionBeatsSingleSolve) {
  const auto gen = corrupted_system(162, 30);
  const auto naive = lsqr_solve(gen.A, loop_options().lsqr);
  const auto robust = robust_solve(gen.A, loop_options());
  const auto& truth = *gen.ground_truth;
  EXPECT_LT(gaia::testing::rel_l2_error(robust.solution.x, truth),
            gaia::testing::rel_l2_error(naive.x, truth));
}

TEST(OuterLoop, WeightChangesShrinkAcrossIterations) {
  const auto gen = corrupted_system(163, 40);
  auto opts = loop_options();
  opts.weight_change_tol = 0;  // run all outer iterations
  opts.max_outer_iterations = 4;
  const auto result = robust_solve(gen.A, opts);
  EXPECT_EQ(result.outer_iterations, 4);
  ASSERT_EQ(result.weight_rms_change.size(), 4u);
  EXPECT_LT(result.weight_rms_change.back(),
            result.weight_rms_change.front());
}

TEST(OuterLoop, ConstraintRowsKeepUnitWeight) {
  const auto gen = corrupted_system(164, 25);
  const auto result = robust_solve(gen.A, loop_options());
  for (row_index r = gen.A.n_obs(); r < gen.A.n_rows(); ++r)
    EXPECT_DOUBLE_EQ(result.weights[static_cast<std::size_t>(r)], 1.0);
}

TEST(OuterLoop, RejectsBadOptions) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(165));
  auto opts = loop_options();
  opts.max_outer_iterations = 0;
  EXPECT_THROW(robust_solve(gen.A, opts), gaia::Error);
}

}  // namespace
}  // namespace gaia::core
