/// Numerics contract of the one storage precision: every backend, at
/// twelve distinct launch tables (so the thread count that runs the row
/// blocks varies), solves to the fp64 serial seed solution bit for bit,
/// whatever retired layout, precision or scatter-strategy value its case
/// name carries; the exit estimates match norms computed by hand; an
/// exhausted iteration budget reports the stall; and a consistent system
/// converges to its ground truth within the budget.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "core/lsqr.hpp"
#include "core/vector_ops.hpp"
#include "matrix/dense.hpp"
#include "matrix/generator.hpp"
#include "test_helpers.hpp"

namespace gaia::core {
namespace {

using backends::BackendKind;
using backends::KernelConfig;
using backends::StorageLayout;
using backends::TuningTable;

LsqrOptions solve_options(BackendKind backend) {
  LsqrOptions opts;
  opts.aprod.backend = backend;
  opts.max_iterations = 400;
  opts.atol = 1e-12;
  opts.btol = 1e-12;
  opts.compute_std_errors = false;
  return opts;
}

/// The twelve launch tables a backend's cases run, one per case: the
/// production heuristic, the naive default, and shapes from one thread
/// to several hundred (odd ones included).
TuningTable launch_table(int index) {
  static const std::array<KernelConfig, 11> kShapes = {{{1, 1},
                                                        {2, 2},
                                                        {3, 7},
                                                        {5, 3},
                                                        {1, 64},
                                                        {8, 32},
                                                        {16, 32},
                                                        {32, 128},
                                                        {64, 64},
                                                        {256, 256},
                                                        {512, 64}}};
  if (index == 0) return TuningTable::tuned_default();
  return TuningTable::untuned(kShapes[static_cast<std::size_t>(index - 1)]);
}

/// One case: a backend and a launch table. The case names keep the
/// retired precision, layout and scatter-strategy tokens they were
/// registered under; together they index the table.
struct Combo {
  BackendKind backend;
  const char* precision;
  StorageLayout layout;
  const char* strategy;
  int table;
};

class RefinedSolve : public ::testing::TestWithParam<Combo> {};

TEST_P(RefinedSolve, MatchesTheFp64SerialSeedWithinTolerance) {
  const Combo c = GetParam();
  const auto gen = matrix::generate_system(gaia::testing::medium_config(77));
  // Several row blocks, so a fold that followed the launch would show.
  ASSERT_GE(block_partition(static_cast<std::size_t>(gen.A.n_obs())).count,
            3u);

  // The fp64 serial seed: the production reference.
  const auto reference =
      lsqr_solve(gen.A, solve_options(BackendKind::kSerial));

  LsqrOptions opts = solve_options(c.backend);
  opts.aprod.tuning = launch_table(c.table);
  const auto result = lsqr_solve(gen.A, opts);

  // Every launch shape sums the same products in the order the system
  // fixes, so the tolerance is zero.
  const std::string label =
      backends::to_string(c.backend) + " table " + std::to_string(c.table);
  EXPECT_NE(result.istop, LsqrStop::kIterationLimit) << label;
  ASSERT_EQ(result.iterations, reference.iterations) << label;
  ASSERT_EQ(result.x, reference.x) << label;
  EXPECT_EQ(result.rnorm, reference.rnorm) << label;
}

std::vector<Combo> all_combos() {
  std::vector<Combo> combos;
  for (BackendKind b :
       {BackendKind::kSerial, BackendKind::kOpenMP, BackendKind::kPstl,
        BackendKind::kGpuSim}) {
    int table = 0;
    for (const char* p : {"fp32", "bf16s"})
      for (int l = 0; l < backends::kNumStorageLayouts; ++l)
        for (const char* s : {"atomic", "privatized"})
          combos.push_back({b, p, static_cast<StorageLayout>(l), s, table++});
  }
  return combos;
}

INSTANTIATE_TEST_SUITE_P(
    AllAxes, RefinedSolve, ::testing::ValuesIn(all_combos()),
    [](const ::testing::TestParamInfo<Combo>& info) {
      const Combo& c = info.param;
      return backends::to_string(c.backend) + "_" + c.precision + "_" +
             backends::to_string(c.layout) + "_" + c.strategy;
    });

/// ||v||_2 in long double, as a hand reference.
double norm2(const std::vector<real>& v) {
  long double sum = 0;
  for (real e : v) sum += static_cast<long double>(e) * e;
  return static_cast<double>(std::sqrt(sum));
}

TEST(Refinement, TrueResidualMatchesHandComputedNorms) {
  // The exit estimates against the dense oracle: |r| = ||b - A x|| (the
  // undamped problem) and |A'r| = ||A^T (b - A x)||, computed by hand
  // from the returned x. They agree closely after a few iterations, and
  // after a converged solve |r| still matches while |A'r| and the true
  // gradient are both negligible.
  const auto gen = matrix::generate_system(gaia::testing::small_config(78));
  const auto M = matrix::to_dense(gen.A);
  const auto rows = static_cast<std::size_t>(gen.A.n_rows());
  const row_index m = gen.A.n_rows();
  const col_index n = gen.A.n_cols();
  const auto b = gen.A.known_terms();
  const auto hand = [&](const std::vector<real>& x) {
    std::vector<real> r(b.begin(), b.end());
    const auto ax = matrix::dense_matvec(M, m, n, x);
    for (std::size_t i = 0; i < rows; ++i) r[i] -= ax[i];
    return std::array<double, 2>{norm2(r),
                                 norm2(matrix::dense_rmatvec(M, m, n, r))};
  };
  const double atb = norm2(matrix::dense_rmatvec(M, m, n, b));

  LsqrOptions opts = solve_options(BackendKind::kSerial);
  opts.precondition = false;  // the estimates then describe A itself
  opts.atol = 0;
  opts.btol = 0;
  for (const std::int64_t iterations : {1, 5}) {
    opts.max_iterations = iterations;
    const auto early = lsqr_solve(gen.A, opts);
    const auto want = hand(early.x);
    EXPECT_NEAR(early.rnorm, want[0], 1e-12 * want[0]) << iterations;
    EXPECT_NEAR(early.arnorm, want[1], 1e-10 * want[1]) << iterations;
  }

  opts = solve_options(BackendKind::kSerial);
  opts.precondition = false;
  const auto solved = lsqr_solve(gen.A, opts);
  EXPECT_NE(solved.istop, LsqrStop::kIterationLimit);
  const auto at_end = hand(solved.x);
  EXPECT_NEAR(solved.rnorm, at_end[0], 1e-9 * at_end[0]);
  EXPECT_LT(at_end[1], 1e-9 * atb);
  EXPECT_LT(solved.arnorm, 1e-9 * atb);
}

TEST(Refinement, StarvedBudgetReportsTheStall) {
  // An iteration budget far below convergence ends at the limit and
  // says so, with a residual still above the converged one.
  const auto gen = matrix::generate_system(gaia::testing::small_config(79));
  const auto converged =
      lsqr_solve(gen.A, solve_options(BackendKind::kSerial));
  LsqrOptions starved = solve_options(BackendKind::kSerial);
  starved.max_iterations = 3;
  const auto result = lsqr_solve(gen.A, starved);
  EXPECT_EQ(result.istop, LsqrStop::kIterationLimit);
  EXPECT_EQ(result.iterations, 3);
  EXPECT_EQ(to_string(result.istop), "iteration limit reached");
  EXPECT_GT(result.rnorm, converged.rnorm);
  EXPECT_NE(converged.istop, LsqrStop::kIterationLimit);
}

TEST(Refinement, ConvergesOnANoiseFreeSystemWithinBudget) {
  // With noise off and b = A x_true the system is consistent: for
  // several seeds the fp64 solve stops on its own tolerance test within
  // the budget, at the ground truth, with a residual near zero.
  for (std::uint64_t seed : {101ull, 202ull, 303ull}) {
    auto cfg = gaia::testing::small_config(seed);
    cfg.rhs_mode = matrix::RhsMode::kFromGroundTruth;
    cfg.noise_sigma = 0.0;
    const auto gen = matrix::generate_system(cfg);
    ASSERT_TRUE(gen.ground_truth.has_value());

    const auto result =
        lsqr_solve(gen.A, solve_options(BackendKind::kSerial));
    EXPECT_NE(result.istop, LsqrStop::kIterationLimit) << "seed " << seed;
    EXPECT_LT(result.iterations, 400) << "seed " << seed;
    EXPECT_LT(gaia::testing::rel_l2_error(result.x, *gen.ground_truth),
              1e-8)
        << "seed " << seed;
    EXPECT_LT(result.rnorm, 1e-8 * norm2(*gen.ground_truth))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace gaia::core
