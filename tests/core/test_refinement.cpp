/// Numerics contract of the mixed-precision axis: every reduced storage
/// precision, on every layout, strategy, and backend, converges (with
/// FP64 iterative refinement) to the FP64 serial seed solution within
/// the refinement tolerance; a starved correction budget reports the
/// stall instead of pretending.
#include "core/refinement.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/lsqr.hpp"
#include "matrix/generator.hpp"
#include "test_helpers.hpp"

namespace gaia::core {
namespace {

using backends::BackendKind;
using backends::Precision;
using backends::ScatterStrategy;
using backends::StorageLayout;

LsqrOptions solve_options(BackendKind backend) {
  LsqrOptions opts;
  opts.aprod.backend = backend;
  opts.max_iterations = 400;
  opts.atol = 1e-12;
  opts.btol = 1e-12;
  opts.compute_std_errors = false;
  return opts;
}

void force_axes(backends::TuningTable& table, Precision p,
                StorageLayout layout, ScatterStrategy strategy) {
  for (backends::KernelId id : backends::all_kernels()) {
    backends::KernelConfig cfg = table.get(id);
    cfg.precision = p;
    cfg.layout = layout;
    if (backends::kernel_uses_atomics(id)) cfg.strategy = strategy;
    table.set(id, cfg);
  }
}

struct Combo {
  BackendKind backend;
  Precision precision;
  StorageLayout layout;
  ScatterStrategy strategy;
};

class RefinedSolve : public ::testing::TestWithParam<Combo> {};

TEST_P(RefinedSolve, MatchesTheFp64SerialSeedWithinTolerance) {
  const Combo c = GetParam();
  const auto gen = matrix::generate_system(gaia::testing::small_config(77));

  // FP64 serial seed: the production reference.
  const auto reference = lsqr_solve(gen.A, solve_options(BackendKind::kSerial));

  LsqrOptions reduced = solve_options(c.backend);
  force_axes(reduced.aprod.tuning, c.precision, c.layout, c.strategy);
  auto result = lsqr_solve(gen.A, reduced);
  const double unrefined =
      gaia::testing::rel_l2_error(result.x, reference.x);

  RefinementOptions ropts;
  const auto report = refine_corrections(gen.A, gen.A.known_terms(),
                                         result.x, reduced, ropts);
  const double refined = gaia::testing::rel_l2_error(result.x, reference.x);
  const std::string tag = backends::to_string(c.backend) + "/" +
                          backends::to_string(c.precision) + "/" +
                          backends::to_string(c.layout);

  if (c.precision == Precision::kFp32) {
    // fp32 storage keeps ~7 significant digits; FP64 refinement closes
    // the rest. The refined solution matches the FP64 seed tightly.
    EXPECT_TRUE(report.converged)
        << tag << " stalled after " << report.corrections;
    EXPECT_LT(refined, 1e-6) << tag;
  } else {
    // bf16s perturbs the matrix by ~2^-8, so plain least-squares
    // refinement has a bias floor of O(eps_bf16s * kappa * ||r||): it
    // must IMPROVE the solution, but may honestly report a stall — the
    // production path then falls back to fp64 (see the solver tests).
    EXPECT_LE(refined, unrefined) << tag;
    EXPECT_LT(refined, 1e-2) << tag;
    if (!report.converged)
      EXPECT_EQ(report.corrections, ropts.max_corrections) << tag;
  }
  // The FP64 true residual is always measured and reported.
  EXPECT_GT(report.true_rnorm, 0.0);
}

std::vector<Combo> all_combos() {
  std::vector<Combo> combos;
  for (BackendKind b :
       {BackendKind::kSerial, BackendKind::kOpenMP, BackendKind::kPstl,
        BackendKind::kGpuSim})
    for (Precision p : {Precision::kFp32, Precision::kBf16s})
      for (StorageLayout l :
           {StorageLayout::kSeedAos, StorageLayout::kSoaTiled,
            StorageLayout::kSlicedInstr})
        for (ScatterStrategy s :
             {ScatterStrategy::kAtomic, ScatterStrategy::kPrivatized})
          combos.push_back({b, p, l, s});
  return combos;
}

INSTANTIATE_TEST_SUITE_P(
    AllAxes, RefinedSolve, ::testing::ValuesIn(all_combos()),
    [](const ::testing::TestParamInfo<Combo>& info) {
      const Combo& c = info.param;
      return backends::to_string(c.backend) + "_" +
             backends::to_string(c.precision) + "_" +
             backends::to_string(c.layout) + "_" +
             backends::to_string(c.strategy);
    });

TEST(Refinement, TrueResidualMatchesHandComputedNorms) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(78));
  LsqrOptions opts = solve_options(BackendKind::kSerial);
  backends::DeviceContext device(opts.device_capacity, "test");
  Aprod aprod(gen.A, device, opts.aprod);
  const auto b = gen.A.known_terms();
  std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()), 0.0);
  std::vector<real> r(b.size());
  const TrueResidual res = true_residual(aprod, b, x, r);
  // x = 0 -> r = b, so ||r|| = ||b||.
  real bnorm = 0;
  for (real v : b) bnorm += v * v;
  EXPECT_NEAR(res.rnorm, std::sqrt(bnorm), 1e-9 * std::sqrt(bnorm));
  EXPECT_GT(res.arnorm, 0.0);
}

TEST(Refinement, StarvedBudgetReportsTheStall) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(79));
  LsqrOptions reduced = solve_options(BackendKind::kSerial);
  force_axes(reduced.aprod.tuning, Precision::kBf16s,
             StorageLayout::kSeedAos, ScatterStrategy::kAtomic);
  auto result = lsqr_solve(gen.A, reduced);

  RefinementOptions starved;
  starved.max_corrections = 1;
  starved.tolerance = 1e-300;  // unreachable: any correction is "large"
  const auto report = refine_corrections(gen.A, gen.A.known_terms(),
                                         result.x, reduced, starved);
  EXPECT_FALSE(report.converged);
  EXPECT_EQ(report.corrections, 1);
  ASSERT_EQ(report.update_norms.size(), 1u);
  EXPECT_GT(report.update_norms[0], 0.0);
}

TEST(Refinement, ConvergesOnANoiseFreeSystemWithinBudget) {
  // Property shape (satellite 3): with noise off the system is
  // consistent, so refinement contracts geometrically until the bf16s
  // perturbation floor (empirically ~1e-9 rad inf-norm here). Require
  // convergence to a bf16s-reachable tolerance in <= 6 corrections for
  // several seeds, with a net shrink across the correction sequence.
  for (std::uint64_t seed : {101ull, 202ull, 303ull}) {
    auto cfg = gaia::testing::small_config(seed);
    cfg.noise_sigma = 0.0;
    const auto gen = matrix::generate_system(cfg);

    LsqrOptions reduced = solve_options(BackendKind::kSerial);
    force_axes(reduced.aprod.tuning, Precision::kBf16s,
               StorageLayout::kSoaTiled, ScatterStrategy::kAtomic);
    auto result = lsqr_solve(gen.A, reduced);

    RefinementOptions ropts;  // max_corrections = 6
    ropts.tolerance = 1e-8;   // above the bf16s bias floor
    const auto report = refine_corrections(gen.A, gen.A.known_terms(),
                                           result.x, reduced, ropts);
    EXPECT_TRUE(report.converged) << "seed " << seed;
    EXPECT_LE(report.corrections, 6) << "seed " << seed;
    ASSERT_FALSE(report.update_norms.empty()) << "seed " << seed;
    EXPECT_LE(report.update_norms.back(), ropts.tolerance)
        << "seed " << seed;
    if (report.update_norms.size() > 1)
      EXPECT_LT(report.update_norms.back(), report.update_norms.front())
          << "seed " << seed;
  }
}

}  // namespace
}  // namespace gaia::core
