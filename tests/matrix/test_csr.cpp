#include "matrix/csr.hpp"

#include <gtest/gtest.h>

#include "core/aprod.hpp"
#include "matrix/dense.hpp"
#include "matrix/generator.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace gaia::matrix {
namespace {

TEST(Csr, StructureIsWellFormed) {
  const auto gen = generate_system(gaia::testing::small_config(170));
  const auto M = to_csr(gen.A);
  EXPECT_EQ(M.n_rows, gen.A.n_rows());
  EXPECT_EQ(M.n_cols, gen.A.n_cols());
  ASSERT_EQ(M.row_ptr.size(), static_cast<std::size_t>(M.n_rows) + 1);
  EXPECT_EQ(M.row_ptr.front(), 0);
  EXPECT_EQ(M.row_ptr.back(), M.nnz());
  for (std::size_t r = 0; r + 1 < M.row_ptr.size(); ++r) {
    EXPECT_LE(M.row_ptr[r], M.row_ptr[r + 1]);
    // Columns sorted and in range within each row.
    for (std::int64_t k = M.row_ptr[r]; k < M.row_ptr[r + 1]; ++k) {
      EXPECT_GE(M.col_idx[static_cast<std::size_t>(k)], 0);
      EXPECT_LT(M.col_idx[static_cast<std::size_t>(k)], M.n_cols);
      if (k > M.row_ptr[r])
        EXPECT_LT(M.col_idx[static_cast<std::size_t>(k - 1)],
                  M.col_idx[static_cast<std::size_t>(k)]);
    }
  }
}

TEST(Csr, ObservationRowsCarryTwentyFourEntries) {
  const auto gen = generate_system(gaia::testing::small_config(171));
  const auto M = to_csr(gen.A);
  for (row_index r = 0; r < gen.A.n_obs(); ++r) {
    EXPECT_EQ(M.row_ptr[static_cast<std::size_t>(r) + 1] -
                  M.row_ptr[static_cast<std::size_t>(r)],
              kNnzPerRow)
        << "row " << r;
  }
  // Constraint rows drop their structurally-zero blocks.
  for (row_index r = gen.A.n_obs(); r < gen.A.n_rows(); ++r) {
    EXPECT_EQ(M.row_ptr[static_cast<std::size_t>(r) + 1] -
                  M.row_ptr[static_cast<std::size_t>(r)],
              kAttBlockSize)
        << "constraint row " << r;
  }
}

TEST(Csr, MatchesDenseExpansion) {
  const auto gen = generate_system(gaia::testing::small_config(172));
  const auto M = to_csr(gen.A);
  const auto D = to_dense(gen.A);
  const auto cols = static_cast<std::size_t>(gen.A.n_cols());
  for (row_index r = 0; r < M.n_rows; ++r) {
    std::vector<real> dense_row(
        D.begin() + static_cast<std::ptrdiff_t>(r * cols),
        D.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols));
    std::vector<real> csr_row(cols, 0.0);
    for (std::int64_t k = M.row_ptr[static_cast<std::size_t>(r)];
         k < M.row_ptr[static_cast<std::size_t>(r) + 1]; ++k)
      csr_row[static_cast<std::size_t>(
          M.col_idx[static_cast<std::size_t>(k)])] +=
          M.values[static_cast<std::size_t>(k)];
    ASSERT_LT(gaia::testing::max_abs_diff(csr_row, dense_row), 1e-14)
        << "row " << r;
  }
}

TEST(Csr, SpmvAgreesWithAprodKernels) {
  const auto gen = generate_system(gaia::testing::medium_config(173));
  const auto M = to_csr(gen.A);
  util::Xoshiro256 rng(9);
  std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()));
  std::vector<real> y(static_cast<std::size_t>(gen.A.n_rows()));
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();

  backends::DeviceContext device;
  core::AprodOptions opts;
  opts.backend = backends::BackendKind::kSerial;
  core::Aprod aprod(gen.A, device, opts);

  std::vector<real> y_aprod(y.size(), 0.0), y_csr(y.size(), 0.0);
  aprod.apply1(x, y_aprod);
  csr_matvec(M, x, y_csr);
  EXPECT_LT(gaia::testing::rel_l2_error(y_csr, y_aprod), 1e-13);

  std::vector<real> x_aprod(x.size(), 0.0), x_csr(x.size(), 0.0);
  aprod.apply2(y, x_aprod);
  csr_rmatvec(M, y, x_csr);
  EXPECT_LT(gaia::testing::rel_l2_error(x_csr, x_aprod), 1e-12);
}

TEST(Csr, CustomStorageIsSmallerThanCsr) {
  // The paper's storage argument: exploiting the block structure avoids
  // one explicit column index per non-zero.
  const auto gen = generate_system(gaia::testing::medium_config(174));
  const auto M = to_csr(gen.A);
  EXPECT_LT(gen.A.footprint_bytes(), M.bytes());
  // The saving is the column-index payload: ~8 B x 24 per row vs the
  // custom ~40 B of indexes per row.
  const double ratio = static_cast<double>(M.bytes()) /
                       static_cast<double>(gen.A.footprint_bytes());
  EXPECT_GT(ratio, 1.2);
  EXPECT_LT(ratio, 2.0);
}

TEST(Csr, SizeMismatchRejected) {
  const auto gen = generate_system(gaia::testing::small_config(175));
  const auto M = to_csr(gen.A);
  std::vector<real> bad(3), y(static_cast<std::size_t>(M.n_rows));
  EXPECT_THROW(csr_matvec(M, bad, y), gaia::Error);
  EXPECT_THROW(csr_rmatvec(M, bad, y), gaia::Error);
}

}  // namespace
}  // namespace gaia::matrix
