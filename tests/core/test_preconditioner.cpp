#include "core/preconditioner.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "core/aprod.hpp"
#include "matrix/dense.hpp"
#include "matrix/generator.hpp"
#include "test_helpers.hpp"

namespace gaia::core {
namespace {

TEST(Preconditioner, ColumnNormsMatchDenseOracle) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(40));
  const auto norms = column_norms(gen.A);
  const auto M = matrix::to_dense(gen.A);
  const auto cols = static_cast<std::size_t>(gen.A.n_cols());
  for (std::size_t c = 0; c < cols; ++c) {
    real sq = 0;
    for (row_index r = 0; r < gen.A.n_rows(); ++r) {
      const real v = M[static_cast<std::size_t>(r) * cols + c];
      sq += v * v;
    }
    const real expected = sq > 0 ? std::sqrt(sq) : real{1};
    EXPECT_NEAR(norms[c], expected, 1e-10 * std::max<real>(1, expected))
        << "column " << c;
  }
}

TEST(Preconditioner, ScaledSystemHasUnitColumnNorms) {
  auto gen = matrix::generate_system(gaia::testing::small_config(41));
  const auto norms = column_norms(gen.A);
  apply_column_scaling(gen.A, norms);
  const auto rescaled = column_norms(gen.A);
  for (real n : rescaled) EXPECT_NEAR(n, 1.0, 1e-10);
}

TEST(Preconditioner, UnscaleInvertsScaling) {
  std::vector<real> x{2.0, 6.0, 12.0};
  const std::vector<real> norms{2.0, 3.0, 4.0};
  unscale_solution(x, norms);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(x[2], 3.0);
}

TEST(Preconditioner, ScalingPreservesLeastSquaresSolution) {
  // Solving the scaled system and mapping back must give the original
  // least-squares solution (the algebraic identity preconditioning
  // relies on).
  auto gen = matrix::generate_system(gaia::testing::small_config(42));
  const auto M = matrix::to_dense(gen.A);
  const auto x_ref = matrix::dense_least_squares(
      M, gen.A.n_rows(), gen.A.n_cols(), gen.A.known_terms());

  const auto norms = column_norms(gen.A);
  apply_column_scaling(gen.A, norms);
  const auto Ms = matrix::to_dense(gen.A);
  auto z = matrix::dense_least_squares(Ms, gen.A.n_rows(), gen.A.n_cols(),
                                       gen.A.known_terms());
  unscale_solution(z, norms);
  EXPECT_LT(gaia::testing::rel_l2_error(z, x_ref), 1e-8);
}

TEST(Preconditioner, ScalingImprovesConditioning) {
  // Make one column pathologically large; scaling must equalize it.
  auto gen = matrix::generate_system(gaia::testing::small_config(43));
  auto vals = gen.A.values();
  for (row_index r = 0; r < gen.A.n_rows(); ++r)
    vals[static_cast<std::size_t>(r) * kNnzPerRow] *= 1e6;
  const auto norms_before = column_norms(gen.A);
  const real spread_before =
      *std::max_element(norms_before.begin(), norms_before.end()) /
      *std::min_element(norms_before.begin(), norms_before.end());
  apply_column_scaling(gen.A, norms_before);
  const auto norms_after = column_norms(gen.A);
  const real spread_after =
      *std::max_element(norms_after.begin(), norms_after.end()) /
      *std::min_element(norms_after.begin(), norms_after.end());
  EXPECT_GT(spread_before, 1e4);
  EXPECT_NEAR(spread_after, 1.0, 1e-8);
}

TEST(Preconditioner, SizeMismatchRejected) {
  auto gen = matrix::generate_system(gaia::testing::small_config(44));
  std::vector<real> wrong(3, 1.0);
  EXPECT_THROW(apply_column_scaling(gen.A, wrong), gaia::Error);
  std::vector<real> x(5, 1.0);
  EXPECT_THROW(unscale_solution(x, wrong), gaia::Error);
}

TEST(Preconditioner, ScaledDeviceCopyIsBitIdenticalToScaledMatrixCopy) {
  // A preconditioned solve scales the Aprod's device-resident copy
  // instead of a second host copy of the system. The device values must
  // be bit-identical to a scaled copy of the matrix, and the source
  // matrix must stay untouched.
  const auto gen = matrix::generate_system(gaia::testing::small_config(45));
  const auto norms = column_norms(gen.A);
  matrix::SystemMatrix scaled = gen.A;
  apply_column_scaling(scaled, norms);

  backends::DeviceContext device;
  AprodOptions opts;
  opts.backend = backends::BackendKind::kSerial;
  Aprod aprod(gen.A, device, opts, norms);
  const SystemView& view = aprod.view();

  auto same = [](const real* got, std::span<const real> want) {
    for (std::size_t i = 0; i < want.size(); ++i)
      if (std::bit_cast<std::uint64_t>(got[i]) !=
          std::bit_cast<std::uint64_t>(want[i]))
        return false;
    return true;
  };
  EXPECT_TRUE(same(view.values, scaled.values()));
  const auto fresh = matrix::generate_system(gaia::testing::small_config(45));
  EXPECT_TRUE(same(gen.A.values().data(), fresh.A.values()));
}

}  // namespace
}  // namespace gaia::core
