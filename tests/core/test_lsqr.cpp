#include "core/lsqr.hpp"

#include "core/lsqr_engine.hpp"
#include "core/vector_ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "matrix/dense.hpp"
#include "matrix/generator.hpp"
#include "test_helpers.hpp"

namespace gaia::core {
namespace {

using backends::BackendKind;

LsqrOptions base_options(BackendKind backend, std::int64_t iters = 400) {
  LsqrOptions opts;
  opts.aprod.backend = backend;
  opts.max_iterations = iters;
  opts.atol = 1e-12;
  opts.btol = 1e-12;
  return opts;
}

class LsqrSolve : public ::testing::TestWithParam<BackendKind> {};

TEST_P(LsqrSolve, MatchesDenseLeastSquaresSolution) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(60));
  const auto M = matrix::to_dense(gen.A);
  const auto x_ref = matrix::dense_least_squares(
      M, gen.A.n_rows(), gen.A.n_cols(), gen.A.known_terms());
  const auto result = lsqr_solve(gen.A, base_options(GetParam()));
  EXPECT_LT(gaia::testing::rel_l2_error(result.x, x_ref), 1e-6)
      << "stopped after " << result.iterations << ": "
      << to_string(result.istop);
}

TEST_P(LsqrSolve, RecoversNoiselessGroundTruth) {
  auto cfg = gaia::testing::small_config(61);
  cfg.rhs_mode = matrix::RhsMode::kFromGroundTruth;
  cfg.noise_sigma = 0.0;
  const auto gen = matrix::generate_system(cfg);
  ASSERT_TRUE(gen.ground_truth.has_value());
  const auto result = lsqr_solve(gen.A, base_options(GetParam()));
  // The consistent part of the system is A x* = b; the three constraint
  // rows pull the attitude solution toward the constrained subspace, so
  // agreement is approximate but strong for a random x*.
  const auto M = matrix::to_dense(gen.A);
  const auto x_ref = matrix::dense_least_squares(
      M, gen.A.n_rows(), gen.A.n_cols(), gen.A.known_terms());
  EXPECT_LT(gaia::testing::rel_l2_error(result.x, x_ref), 1e-6);
}

TEST_P(LsqrSolve, ZeroRhsStopsImmediately) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(62));
  std::vector<real> zero(static_cast<std::size_t>(gen.A.n_rows()), 0.0);
  const auto result = lsqr_solve(gen.A, zero, base_options(GetParam()));
  EXPECT_EQ(result.istop, LsqrStop::kXZero);
  for (real v : result.x) EXPECT_EQ(v, 0.0);
}

TEST_P(LsqrSolve, FixedIterationModeNeverStopsEarly) {
  // The paper's timing runs: tolerances zero, exactly N iterations.
  const auto gen = matrix::generate_system(gaia::testing::small_config(63));
  LsqrOptions opts;
  opts.aprod.backend = GetParam();
  opts.max_iterations = 25;
  const auto result = lsqr_solve(gen.A, opts);
  EXPECT_EQ(result.iterations, 25);
  EXPECT_EQ(result.istop, LsqrStop::kIterationLimit);
  EXPECT_EQ(result.iteration_seconds.size(), 25u);
  EXPECT_GT(result.mean_iteration_s, 0.0);
}

TEST_P(LsqrSolve, FixedIterationSolvePastConvergenceStaysFinite) {
  // With every tolerance 0 the solve runs on long after it converged,
  // and rhobar decays until its square underflows: sqrt(rhobar^2 +
  // damp^2) became 0 and damp / 0 poisoned the solve (iteration 373 on
  // this system, serially). hypot-formed rotation norms keep the run
  // finite to the iteration limit, on the converged solution.
  const auto gen =
      matrix::generate_system(matrix::config_for_footprint(1 * kMiB, 42));
  LsqrOptions opts;
  opts.aprod.backend = GetParam();
  opts.max_iterations = 1500;
  const auto long_run = lsqr_solve(gen.A, opts);
  EXPECT_EQ(long_run.istop, LsqrStop::kIterationLimit);
  EXPECT_EQ(long_run.iterations, 1500);
  EXPECT_TRUE(std::isfinite(long_run.rnorm));
  EXPECT_TRUE(std::isfinite(long_run.xnorm));
  for (real v : long_run.x) ASSERT_TRUE(std::isfinite(v));
  opts.max_iterations = 300;
  const auto converged = lsqr_solve(gen.A, opts);
  EXPECT_LT(gaia::testing::rel_l2_error(long_run.x, converged.x), 1e-8);
}

TEST_P(LsqrSolve, FixedConfigSolveRepeatsBitForBit) {
  // Every sum of the solve is fixed by the system: the gathers write
  // each y[r] once, the step folds its row blocks' slices and partials
  // in block order and every reduction is a blocked sum. So this
  // backend, at the tuned table and at shapes from one thread to far
  // more threads than blocks, returns the serial solve bit for bit, and
  // a repeat returns it again.
  const auto gen = matrix::generate_system(gaia::testing::medium_config(64));
  ASSERT_GE(block_partition(static_cast<std::size_t>(gen.A.n_obs())).count,
            3u);
  const LsqrOptions serial_opts = base_options(BackendKind::kSerial, 60);
  const auto serial = lsqr_solve(gen.A, serial_opts);
  const auto expect_serial = [&](const LsqrResult& got,
                                 const std::string& label) {
    ASSERT_EQ(got.iterations, serial.iterations) << label;
    EXPECT_EQ(got.x, serial.x) << label;
    EXPECT_EQ(got.rnorm, serial.rnorm) << label;
    EXPECT_EQ(got.arnorm, serial.arnorm) << label;
    EXPECT_EQ(got.anorm, serial.anorm) << label;
    EXPECT_EQ(got.acond, serial.acond) << label;
  };
  LsqrOptions opts = base_options(GetParam(), 60);
  expect_serial(lsqr_solve(gen.A, opts), "tuned");
  expect_serial(lsqr_solve(gen.A, opts), "tuned, repeated");
  for (const backends::KernelConfig shape :
       {backends::KernelConfig{1, 1}, backends::KernelConfig{2, 2},
        backends::KernelConfig{3, 7}, backends::KernelConfig{256, 256}}) {
    opts.aprod.tuning = backends::TuningTable::untuned(shape);
    expect_serial(lsqr_solve(gen.A, opts), std::to_string(shape.blocks) +
                                               "x" +
                                               std::to_string(shape.threads));
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, LsqrSolve,
                         ::testing::ValuesIn(backends::all_backends()),
                         [](const auto& info) {
                           return backends::to_string(info.param);
                         });

// ---- scalar-path behaviour (serial backend for speed) ---------------------

TEST(Lsqr, PreconditioningAcceleratesConvergence) {
  // Badly scaled columns: preconditioned LSQR must reach the tolerance
  // in (far) fewer iterations.
  auto gen = matrix::generate_system(gaia::testing::small_config(64));
  auto vals = gen.A.values();
  for (row_index r = 0; r < gen.A.n_rows(); ++r) {
    vals[static_cast<std::size_t>(r) * kNnzPerRow + 0] *= 1e4;
    vals[static_cast<std::size_t>(r) * kNnzPerRow + 1] *= 1e-3;
  }
  LsqrOptions with = base_options(BackendKind::kSerial, 2000);
  with.precondition = true;
  LsqrOptions without = with;
  without.precondition = false;
  const auto res_with = lsqr_solve(gen.A, with);
  const auto res_without = lsqr_solve(gen.A, without);
  EXPECT_LT(res_with.iterations, res_without.iterations);
}

TEST(Lsqr, DampingShrinksSolutionNorm) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(65));
  LsqrOptions opts = base_options(BackendKind::kSerial);
  const auto plain = lsqr_solve(gen.A, opts);
  opts.damp = 5.0;
  const auto damped = lsqr_solve(gen.A, opts);
  EXPECT_LT(vnorm(damped.x), vnorm(plain.x));
}

TEST(Lsqr, DampedSolutionMatchesDenseDampedLeastSquares) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(66));
  const real damp = 0.7;
  const auto M = matrix::to_dense(gen.A);
  // Note: LSQR damps the *scaled* system when preconditioning is on, so
  // compare without preconditioning.
  LsqrOptions opts = base_options(BackendKind::kSerial, 3000);
  opts.precondition = false;
  opts.damp = damp;
  const auto result = lsqr_solve(gen.A, opts);
  const auto x_ref = matrix::dense_least_squares(
      M, gen.A.n_rows(), gen.A.n_cols(), gen.A.known_terms(), damp);
  EXPECT_LT(gaia::testing::rel_l2_error(result.x, x_ref), 1e-6);
}

TEST(Lsqr, StandardErrorsArePositiveAndScaleWithNoise) {
  auto cfg = gaia::testing::small_config(67);
  cfg.rhs_mode = matrix::RhsMode::kFromGroundTruth;
  cfg.noise_sigma = 0.01;
  const auto low_noise = matrix::generate_system(cfg);
  cfg.noise_sigma = 1.0;
  const auto high_noise = matrix::generate_system(cfg);

  LsqrOptions opts = base_options(BackendKind::kSerial);
  opts.compute_std_errors = true;
  const auto lo = lsqr_solve(low_noise.A, opts);
  const auto hi = lsqr_solve(high_noise.A, opts);
  ASSERT_EQ(lo.std_errors.size(), lo.x.size());
  for (real se : lo.std_errors) EXPECT_GT(se, 0.0);
  // More observation noise => larger residual => larger standard errors.
  // (The factor is well below the 100x noise ratio because the constraint
  // rows conflict with the random ground truth and dominate the low-noise
  // residual.)
  double lo_mean = 0, hi_mean = 0;
  for (real se : lo.std_errors) lo_mean += se;
  for (real se : hi.std_errors) hi_mean += se;
  EXPECT_GT(hi_mean, lo_mean * 2);
}

TEST(Lsqr, StdErrorsCanBeDisabled) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(68));
  LsqrOptions opts = base_options(BackendKind::kSerial, 10);
  opts.compute_std_errors = false;
  const auto result = lsqr_solve(gen.A, opts);
  EXPECT_TRUE(result.std_errors.empty());
}

TEST(Lsqr, NormEstimatesAreFiniteAndConsistent) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(69));
  const auto result = lsqr_solve(gen.A, base_options(BackendKind::kSerial));
  EXPECT_TRUE(std::isfinite(result.anorm));
  EXPECT_TRUE(std::isfinite(result.acond));
  EXPECT_GT(result.anorm, 0.0);
  EXPECT_GE(result.acond, 1.0);
  EXPECT_GE(result.rnorm, 0.0);
  EXPECT_GT(result.xnorm, 0.0);
}

TEST(Lsqr, ResidualNormMatchesDirectComputation) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(70));
  const auto result = lsqr_solve(gen.A, base_options(BackendKind::kSerial));
  const auto M = matrix::to_dense(gen.A);
  auto r = matrix::dense_matvec(M, gen.A.n_rows(), gen.A.n_cols(), result.x);
  const auto b = gen.A.known_terms();
  real sq = 0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    const real d = r[i] - b[i];
    sq += d * d;
  }
  EXPECT_NEAR(result.rnorm, std::sqrt(sq),
              1e-6 * std::max<real>(1, result.rnorm));
}

TEST(Lsqr, DeviceResidencyContractHolds) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(71));
  LsqrOptions opts = base_options(BackendKind::kGpuSim, 20);
  const auto result = lsqr_solve(gen.A, opts);
  // One-time H2D: system + initial rhs. Must be at least the system
  // payload and no more than ~2x (no per-iteration re-uploads).
  EXPECT_GE(result.h2d_bytes, gen.A.values().size_bytes());
  EXPECT_LT(result.h2d_bytes, 2 * gen.A.footprint_bytes());
}

TEST(Lsqr, TooSmallDeviceThrows) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(72));
  LsqrOptions opts = base_options(BackendKind::kSerial, 5);
  opts.device_capacity = 1024;
  EXPECT_THROW(lsqr_solve(gen.A, opts), gaia::Error);
}

TEST(Lsqr, RejectsBadInputs) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(73));
  LsqrOptions opts = base_options(BackendKind::kSerial);
  std::vector<real> short_b(3);
  EXPECT_THROW(lsqr_solve(gen.A, short_b, opts), gaia::Error);
  opts.max_iterations = 0;
  EXPECT_THROW(lsqr_solve(gen.A, opts), gaia::Error);
}

TEST(Lsqr, ConlimStopTriggersOnIllConditionedSystem) {
  auto gen = matrix::generate_system(gaia::testing::small_config(74));
  auto vals = gen.A.values();
  // Make the system ill-conditioned (huge spread across columns), then
  // ask for a tiny condition limit.
  for (row_index r = 0; r < gen.A.n_rows(); ++r)
    vals[static_cast<std::size_t>(r) * kNnzPerRow + 2] *= 1e8;
  LsqrOptions opts = base_options(BackendKind::kSerial, 5000);
  opts.precondition = false;
  opts.conlim = 10.0;
  const auto result = lsqr_solve(gen.A, opts);
  EXPECT_TRUE(result.istop == LsqrStop::kConlim ||
              result.istop == LsqrStop::kConlimEps)
      << to_string(result.istop);
}

TEST(Lsqr, HistoryRecordingIsOptIn) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(75));
  LsqrOptions opts = base_options(BackendKind::kSerial, 30);
  opts.atol = 0;
  opts.btol = 0;
  const auto without = lsqr_solve(gen.A, opts);
  EXPECT_TRUE(without.rnorm_history.empty());

  opts.record_history = true;
  const auto with = lsqr_solve(gen.A, opts);
  ASSERT_EQ(with.rnorm_history.size(), 30u);
  ASSERT_EQ(with.arnorm_history.size(), 30u);
  ASSERT_EQ(with.xnorm_history.size(), 30u);
  // rnorm history is non-increasing and ends at the reported rnorm.
  for (std::size_t i = 1; i < with.rnorm_history.size(); ++i)
    EXPECT_LE(with.rnorm_history[i], with.rnorm_history[i - 1] + 1e-12);
  EXPECT_EQ(with.rnorm_history.back(), with.rnorm);
  // xnorm grows from zero toward the solution norm.
  EXPECT_GT(with.xnorm_history.back(), with.xnorm_history.front() * 0.99);
}

TEST(Lsqr, HistorySurvivesCheckpointRestore) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(76));
  LsqrOptions opts = base_options(BackendKind::kSerial, 20);
  opts.atol = 0;
  opts.btol = 0;
  opts.record_history = true;

  LsqrEngine full(gen.A, opts);
  full.run_to_completion();
  const auto expected = full.result();

  LsqrEngine first(gen.A, opts);
  for (int i = 0; i < 7; ++i) first.step();
  std::stringstream ckpt;
  first.checkpoint(ckpt);
  LsqrEngine second(gen.A, opts);
  second.restore(ckpt);
  second.run_to_completion();
  const auto resumed = second.result();
  ASSERT_EQ(resumed.rnorm_history.size(), expected.rnorm_history.size());
  for (std::size_t i = 0; i < expected.rnorm_history.size(); ++i)
    EXPECT_EQ(resumed.rnorm_history[i], expected.rnorm_history[i]);
}

TEST(LsqrStopTest, LaterTestsOverrideEarlierOnes) {
  // The reference code runs the machine-precision tests first and lets
  // each later test override: when ||r|| meets btol and is also at
  // machine precision, the stop is 1, not 4; when ||A^T r|| meets atol
  // and is at machine precision too, 2, not 5.
  LsqrOptions opts;
  opts.atol = 1e-8;
  opts.btol = 1e-8;
  const real bnorm = 1, anorm = 1, acond = 10, xnorm = 1;
  EXPECT_EQ(stop_test(opts, bnorm, anorm, acond, 1e-20, 1.0e-20, xnorm),
            LsqrStop::kAtolBtol);
  EXPECT_EQ(stop_test(opts, bnorm, anorm, acond, 0.5, 1e-20, xnorm),
            LsqrStop::kLeastSquares);
  EXPECT_EQ(stop_test(opts, bnorm, anorm, acond, 0.5, 0.25, xnorm),
            LsqrStop::kIterationLimit);
}

TEST(LsqrStopTest, NoToleranceRunsNoTest) {
  // The fixed-iteration timing mode: with every tolerance 0 even a
  // machine-precision residual does not stop the solve.
  const LsqrOptions opts;
  EXPECT_EQ(stop_test(opts, 1, 1, 10, 1e-20, 1e-20, 1),
            LsqrStop::kIterationLimit);
}

}  // namespace
}  // namespace gaia::core
