#include "matrix/system_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "matrix/generator.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace gaia::matrix {
namespace {

TEST(SystemMatrix, AllocatesExpectedShapes) {
  const ParameterLayout lay(4, 3, 8, 6, true);
  SystemMatrix A(lay, 20, 3);
  EXPECT_EQ(A.n_obs(), 20);
  EXPECT_EQ(A.n_constraints(), 3);
  EXPECT_EQ(A.n_rows(), 23);
  EXPECT_EQ(A.n_cols(), lay.n_unknowns());
  EXPECT_EQ(A.values().size(), 23u * kNnzPerRow);
  EXPECT_EQ(A.matrix_index_astro().size(), 23u);
  EXPECT_EQ(A.matrix_index_att().size(), 23u);
  EXPECT_EQ(A.instr_col().size(), 23u * kInstrNnzPerRow);
  EXPECT_EQ(A.known_terms().size(), 23u);
  EXPECT_EQ(A.star_row_start().size(), 5u);
}

TEST(SystemMatrix, ArraysLargerThanOneZeroingChunkStartZeroed) {
  // Every array spans several of the pool's 256 KiB zeroing chunks. The
  // first round dirties memory that the second may be handed again.
  const ParameterLayout lay(70000, 3, 8, 6, true);
  const auto all_zero = [](auto array) {
    return std::all_of(array.begin(), array.end(),
                       [](auto v) { return v == 0; });
  };
  const auto dirty = [](auto array) {
    std::fill(array.begin(), array.end(), 7);
  };
  for (int round = 0; round < 2; ++round) {
    SystemMatrix A(lay, 100000, 3);
    EXPECT_TRUE(all_zero(A.values())) << round;
    EXPECT_TRUE(all_zero(A.matrix_index_astro())) << round;
    EXPECT_TRUE(all_zero(A.matrix_index_att())) << round;
    EXPECT_TRUE(all_zero(A.instr_col())) << round;
    EXPECT_TRUE(all_zero(A.known_terms())) << round;
    EXPECT_TRUE(all_zero(A.star_row_start())) << round;
    dirty(A.values());
    dirty(A.matrix_index_astro());
    dirty(A.matrix_index_att());
    dirty(A.instr_col());
    dirty(A.known_terms());
    dirty(A.star_row_start());
  }
}

TEST(SystemMatrix, CoefficientRecordLayoutConstants) {
  // The 24-coefficient row record must tile exactly.
  EXPECT_EQ(kAstroCoeffOffset, 0);
  EXPECT_EQ(kAttCoeffOffset, 5);
  EXPECT_EQ(kInstrCoeffOffset, 17);
  EXPECT_EQ(kGlobCoeffOffset, 23);
  EXPECT_EQ(kNnzPerRow, 24);
}

TEST(SystemMatrix, RowValuesViewsCorrectSlice) {
  const ParameterLayout lay(2, 3, 8, 6, true);
  SystemMatrix A(lay, 10, 0);
  A.values()[3 * kNnzPerRow + 7] = 42.0;
  EXPECT_DOUBLE_EQ(A.row_values(3)[7], 42.0);
}

TEST(SystemMatrix, FootprintMatchesStaticFormula) {
  const ParameterLayout lay(8, 3, 8, 6, true);
  SystemMatrix A(lay, 100, 3);
  EXPECT_EQ(A.footprint_bytes(),
            SystemMatrix::footprint_bytes_for(103, 8));
  // 24 coeffs * 8 + 2 idx * 8 + 6 instr * 4 + b * 8 = 240 B/row.
  EXPECT_EQ(SystemMatrix::footprint_bytes_for(1, 0), 240u + 8u);
}

TEST(SystemMatrix, FootprintIsDominatedByCoefficients) {
  // "The astrometric submatrix represents ~90% of the memory footprint":
  // the coefficient payload dominates index arrays.
  const auto total = SystemMatrix::footprint_bytes_for(1000, 10);
  const auto coeffs = 1000u * kNnzPerRow * sizeof(real);
  EXPECT_GT(static_cast<double>(coeffs) / static_cast<double>(total), 0.75);
}

TEST(SystemMatrix, RejectsDegenerateShapes) {
  const ParameterLayout lay(2, 3, 8, 6, true);
  EXPECT_THROW(SystemMatrix(lay, 0, 0), gaia::Error);
  EXPECT_THROW(SystemMatrix(lay, 10, -1), gaia::Error);
}

TEST(SystemMatrixValidate, GeneratedSystemPasses) {
  const auto gen = generate_system(gaia::testing::small_config());
  EXPECT_NO_THROW(gen.A.validate_structure());
}

TEST(SystemMatrixValidate, CatchesAstroIndexOutOfRange) {
  auto gen = generate_system(gaia::testing::small_config());
  gen.A.matrix_index_astro()[0] = gen.A.layout().n_astro_params();
  EXPECT_THROW(gen.A.validate_structure(), gaia::Error);
}

TEST(SystemMatrixValidate, CatchesUnalignedAstroIndex) {
  auto gen = generate_system(gaia::testing::small_config());
  gen.A.matrix_index_astro()[0] = 1;  // not a multiple of 5
  EXPECT_THROW(gen.A.validate_structure(), gaia::Error);
}

TEST(SystemMatrixValidate, CatchesAttBlockWrap) {
  auto gen = generate_system(gaia::testing::small_config());
  // Push the attitude start so the block crosses the axis boundary.
  gen.A.matrix_index_att()[0] = gen.A.layout().att_stride() - 1;
  EXPECT_THROW(gen.A.validate_structure(), gaia::Error);
}

TEST(SystemMatrixValidate, CatchesDuplicateInstrColumns) {
  auto gen = generate_system(gaia::testing::small_config());
  auto ic = gen.A.instr_col();
  ic[1] = ic[0];
  EXPECT_THROW(gen.A.validate_structure(), gaia::Error);
}

TEST(SystemMatrixValidate, CatchesInstrColumnOutOfRange) {
  auto gen = generate_system(gaia::testing::small_config());
  gen.A.instr_col()[0] =
      static_cast<std::int32_t>(gen.A.layout().n_instr_params());
  EXPECT_THROW(gen.A.validate_structure(), gaia::Error);
}

TEST(SystemMatrixValidate, CatchesNonZeroAstroInConstraintRow) {
  auto gen = generate_system(gaia::testing::small_config());
  ASSERT_GT(gen.A.n_constraints(), 0);
  const auto r = static_cast<std::size_t>(gen.A.n_obs());
  gen.A.values()[r * kNnzPerRow + kAstroCoeffOffset] = 1.0;
  EXPECT_THROW(gen.A.validate_structure(), gaia::Error);
}

TEST(SystemMatrixValidate, CatchesBrokenStarPartition) {
  auto gen = generate_system(gaia::testing::small_config());
  gen.A.star_row_start()[1] += 1;  // row 'moves' between stars
  EXPECT_THROW(gen.A.validate_structure(), gaia::Error);
}

}  // namespace
}  // namespace gaia::matrix
