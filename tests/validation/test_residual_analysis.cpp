#include "validation/residual_analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/lsqr.hpp"
#include "core/weights.hpp"
#include "util/rng.hpp"

namespace gaia::validation {
namespace {

std::vector<matrix::Transit> uniform_transits(std::size_t n) {
  std::vector<matrix::Transit> t(n);
  for (std::size_t i = 0; i < n; ++i)
    t[i] = {5.0 * static_cast<real>(i) / static_cast<real>(n - 1), 0.0};
  return t;
}

TEST(ResidualAnalysis, WhiteNoiseLooksWhite) {
  util::Xoshiro256 rng(1);
  const auto transits = uniform_transits(5000);
  std::vector<real> residuals(5000);
  for (auto& r : residuals) r = rng.normal(0.0, 0.1);
  const auto a = analyze_residuals(residuals, transits);
  EXPECT_NEAR(a.global_mean, 0.0, 0.01);
  EXPECT_NEAR(a.global_stddev, 0.1, 0.01);
  EXPECT_TRUE(a.looks_white(0.01, 0.5));
  EXPECT_GT(a.bins_consistent_with_zero, 0.8);
}

TEST(ResidualAnalysis, LinearDriftDetected) {
  util::Xoshiro256 rng(2);
  const auto transits = uniform_transits(5000);
  std::vector<real> residuals(5000);
  for (std::size_t i = 0; i < residuals.size(); ++i)
    residuals[i] = 0.05 * transits[i].time + rng.normal(0.0, 0.01);
  const auto a = analyze_residuals(residuals, transits);
  EXPECT_NEAR(a.trend_slope, 0.05, 0.005);
  EXPECT_FALSE(a.looks_white(0.01, 0.5));
}

TEST(ResidualAnalysis, PeriodicStructureRaisesAutocorrelation) {
  const auto transits = uniform_transits(5000);
  std::vector<real> residuals(5000);
  for (std::size_t i = 0; i < residuals.size(); ++i)
    residuals[i] = 0.2 * std::sin(2.0 * 3.14159 * transits[i].time / 5.0);
  const auto a = analyze_residuals(residuals, transits);
  // Smooth low-frequency structure: adjacent bins strongly correlated.
  EXPECT_GT(a.lag1_autocorrelation, 0.7);
  EXPECT_LT(a.bins_consistent_with_zero, 0.5);
}

TEST(ResidualAnalysis, BinsPartitionAllObservations) {
  util::Xoshiro256 rng(3);
  const auto transits = uniform_transits(1234);
  std::vector<real> residuals(1234, 0.0);
  const auto a = analyze_residuals(residuals, transits, 13);
  std::size_t total = 0;
  for (const auto& b : a.bins) total += b.count;
  EXPECT_EQ(total, 1234u);
  EXPECT_EQ(a.bins.size(), 13u);
}

TEST(ResidualAnalysis, RejectsBadInput) {
  const auto transits = uniform_transits(10);
  std::vector<real> wrong(5);
  EXPECT_THROW(analyze_residuals(wrong, transits), gaia::Error);
  std::vector<real> ok(10);
  EXPECT_THROW(analyze_residuals(ok, transits, 1), gaia::Error);
}

TEST(ResidualAnalysis, SolvedScanLawSystemLeavesWhiteResiduals) {
  // End-to-end: a well-solved scan-law system must leave residuals with
  // no significant time structure (the pipeline's acceptance check).
  matrix::ScanLawConfig cfg;
  cfg.seed = 77;
  cfg.n_stars = 200;
  cfg.transits_per_star_mean = 14.0;
  cfg.noise_sigma = 0.01;
  const auto sys = matrix::generate_from_scanlaw(cfg);

  core::LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kSerial;
  opts.max_iterations = 500;
  opts.atol = 1e-12;
  opts.btol = 1e-12;
  const auto result = core::lsqr_solve(sys.A, opts);
  auto residuals = core::compute_residuals(sys.A, result.x);
  residuals.resize(static_cast<std::size_t>(sys.A.n_obs()));

  const auto a = analyze_residuals(residuals, sys.row_transits);
  EXPECT_NEAR(a.global_mean, 0.0, 3 * 0.01);
  EXPECT_LT(std::abs(a.trend_slope), 0.01);
  EXPECT_GT(a.bins_consistent_with_zero, 0.6);
}

TEST(ResidualAnalysis, UnsolvedSystemShowsStructure) {
  // Residuals of the zero solution are just -b: dominated by the signal,
  // which is strongly time-structured through the scan law.
  matrix::ScanLawConfig cfg;
  cfg.seed = 78;
  cfg.n_stars = 150;
  cfg.noise_sigma = 0.0;
  const auto sys = matrix::generate_from_scanlaw(cfg);
  std::vector<real> zero(static_cast<std::size_t>(sys.A.n_cols()), 0.0);
  auto residuals = core::compute_residuals(sys.A, zero);
  residuals.resize(static_cast<std::size_t>(sys.A.n_obs()));
  const auto a = analyze_residuals(residuals, sys.row_transits);
  EXPECT_GT(a.global_stddev, 0.1);
}

}  // namespace
}  // namespace gaia::validation
