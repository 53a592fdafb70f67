#include "matrix/system_matrix.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "backends/thread_pool.hpp"

namespace gaia::matrix {

SystemMatrix::SystemMatrix(ParameterLayout layout, row_index n_obs,
                           row_index n_constraints)
    : layout_(layout), n_obs_(n_obs), n_constraints_(n_constraints) {
  GAIA_CHECK(n_obs_ > 0, "system needs at least one observation row");
  GAIA_CHECK(n_constraints_ >= 0, "negative constraint count");
  const auto rows = static_cast<std::size_t>(n_rows());
  const auto zeroed = [](auto& array, std::size_t count) {
    array.resize(count);
    backends::first_touch_zero(array.data(),
                               count * sizeof(array.front()));
  };
  zeroed(values_, rows * kNnzPerRow);
  zeroed(matrix_index_astro_, rows);
  zeroed(matrix_index_att_, rows);
  zeroed(instr_col_, rows * kInstrNnzPerRow);
  zeroed(known_terms_, rows);
  zeroed(star_row_start_, static_cast<std::size_t>(layout_.n_stars()) + 1);
}

byte_size SystemMatrix::footprint_bytes() const {
  return footprint_bytes_for(n_rows(), layout_.n_stars());
}

byte_size SystemMatrix::footprint_bytes_for(row_index n_rows,
                                            row_index n_stars) {
  const auto rows = static_cast<byte_size>(n_rows);
  byte_size bytes = 0;
  bytes += rows * kNnzPerRow * sizeof(real);          // coefficients
  bytes += rows * sizeof(col_index);                  // matrixIndexAstro
  bytes += rows * sizeof(col_index);                  // matrixIndexAtt
  bytes += rows * kInstrNnzPerRow * sizeof(std::int32_t);  // instrCol
  bytes += rows * sizeof(real);                       // known terms
  bytes += (static_cast<byte_size>(n_stars) + 1) * sizeof(row_index);
  return bytes;
}

void SystemMatrix::validate_structure() const {
  const col_index n_astro = layout_.n_astro_params();
  const col_index n_att = layout_.n_att_params();
  const col_index n_instr = layout_.n_instr_params();
  const col_index stride = layout_.att_stride();

  for (row_index r = 0; r < n_rows(); ++r) {
    const col_index a0 = matrix_index_astro_[static_cast<std::size_t>(r)];
    GAIA_CHECK(a0 >= 0 && a0 + kAstroNnzPerRow <= n_astro,
               "astrometric index out of range at row " + std::to_string(r));
    GAIA_CHECK(a0 % kAstroParamsPerStar == 0,
               "astrometric index not star-aligned at row " +
                   std::to_string(r));

    const col_index t0 = matrix_index_att_[static_cast<std::size_t>(r)];
    GAIA_CHECK(t0 >= 0, "negative attitude index");
    // The three axis blocks must each stay inside their own axis range.
    for (int blk = 0; blk < kAttBlocks; ++blk) {
      const col_index start = t0 + blk * stride;
      GAIA_CHECK(start + kAttBlockSize <= n_att,
                 "attitude block out of range at row " + std::to_string(r));
      GAIA_CHECK(start / stride == blk,
                 "attitude block crosses axis boundary at row " +
                     std::to_string(r));
      GAIA_CHECK(start % stride + kAttBlockSize <= stride,
                 "attitude block wraps axis at row " + std::to_string(r));
    }

    std::array<std::int32_t, kInstrNnzPerRow> cols{};
    for (int k = 0; k < kInstrNnzPerRow; ++k) {
      const std::int32_t c =
          instr_col_[static_cast<std::size_t>(r) * kInstrNnzPerRow + k];
      GAIA_CHECK(c >= 0 && c < n_instr,
                 "instrumental column out of range at row " +
                     std::to_string(r));
      cols[static_cast<std::size_t>(k)] = c;
    }
    std::sort(cols.begin(), cols.end());
    GAIA_CHECK(std::adjacent_find(cols.begin(), cols.end()) == cols.end(),
               "duplicate instrumental column at row " + std::to_string(r));
  }

  // Constraint rows are outside the star partition, so the atomic-free
  // star-parallel aprod2 astrometric kernel never visits them; they must
  // therefore carry no astrometric contribution.
  for (row_index r = n_obs_; r < n_rows(); ++r) {
    const real* rv = values_.data() +
                     static_cast<std::size_t>(r) * kNnzPerRow +
                     kAstroCoeffOffset;
    for (int i = 0; i < kAstroNnzPerRow; ++i) {
      GAIA_CHECK(rv[i] == real{0},
                 "constraint row " + std::to_string(r) +
                     " has a non-zero astrometric coefficient");
    }
  }

  // Star partition must cover exactly the observation rows, monotonically.
  GAIA_CHECK(star_row_start_.front() == 0, "star partition must start at 0");
  GAIA_CHECK(star_row_start_.back() == n_obs_,
             "star partition must end at n_obs");
  for (std::size_t s = 0; s + 1 < star_row_start_.size(); ++s) {
    GAIA_CHECK(star_row_start_[s] <= star_row_start_[s + 1],
               "star partition not monotone at star " + std::to_string(s));
  }
  // Every observation row's astro index must match its owning star.
  for (row_index s = 0; s < layout_.n_stars(); ++s) {
    for (row_index r = star_row_start_[static_cast<std::size_t>(s)];
         r < star_row_start_[static_cast<std::size_t>(s) + 1]; ++r) {
      GAIA_CHECK(matrix_index_astro_[static_cast<std::size_t>(r)] ==
                     s * kAstroParamsPerStar,
                 "row " + std::to_string(r) + " astro index disagrees with "
                 "owning star " + std::to_string(s));
    }
  }
}

}  // namespace gaia::matrix
