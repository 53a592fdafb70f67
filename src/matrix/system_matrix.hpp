/// \file system_matrix.hpp
/// \brief Compressed storage of the reduced coefficient matrix A'.
///
/// Saving only the non-zeros reduces the problem by seven orders of
/// magnitude (paper SIII-B). Each observation row carries exactly 24
/// coefficients, stored row-major as
///
///   [ 5 astrometric | 12 attitude | 6 instrumental | 1 global ]
///
/// plus the index arrays of the production code:
///   * matrixIndexAstro[row]: first astrometric column (== star_id * 5,
///     global column space — the astrometric section starts at offset 0);
///   * matrixIndexAtt[row]: first attitude coefficient within the
///     attitude section (axis blocks at +0, +stride, +2*stride);
///   * instrCol[row*6 + k]: instrumental columns within the instrumental
///     section (irregular, stored explicitly);
///   * the global parameter, when present, is always column 0 of the
///     global section, so it needs no index array.
///
/// Constraint rows (needed to make the overdetermined system univocal,
/// paper SIII-B) are appended after the observation rows; they use the
/// same 24-non-zero structure with zeroed coefficients for the blocks
/// they do not constrain, so every kernel treats all rows uniformly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "matrix/layout.hpp"
#include "util/default_init_allocator.hpp"
#include "util/types.hpp"

namespace gaia::matrix {

/// Offsets of the four blocks inside a row's 24-coefficient record.
inline constexpr int kAstroCoeffOffset = 0;
inline constexpr int kAttCoeffOffset = kAstroNnzPerRow;             // 5
inline constexpr int kInstrCoeffOffset =
    kAttCoeffOffset + kAttNnzPerRow;                                // 17
inline constexpr int kGlobCoeffOffset =
    kInstrCoeffOffset + kInstrNnzPerRow;                            // 23

/// The reduced system A' x = b (one MPI-rank's share in production; the
/// whole system here).
class SystemMatrix {
 public:
  /// Storage of every array: `resize` leaves elements uninitialized, so
  /// the first write is each page's first touch.
  template <typename T>
  using Array = std::vector<T, util::DefaultInitAllocator<T>>;

  /// The five row-record arrays the kernels read.
  struct Records {
    Array<real> values;
    Array<col_index> matrix_index_astro;
    Array<col_index> matrix_index_att;
    Array<std::int32_t> instr_col;
    Array<row_index> star_row_start;
  };

  SystemMatrix() = default;

  /// Allocates storage for `n_obs` observation rows plus `n_constraints`
  /// constraint rows over the given unknown layout. Coefficients start
  /// zeroed; index arrays start at 0 and must be filled by the caller
  /// (normally the generator). The zeroing runs on the shared pool, so
  /// it is also each page's first touch.
  SystemMatrix(ParameterLayout layout, row_index n_obs,
               row_index n_constraints);

  [[nodiscard]] const ParameterLayout& layout() const { return layout_; }

  /// Observation rows (excludes constraints).
  [[nodiscard]] row_index n_obs() const { return n_obs_; }
  /// Appended constraint rows.
  [[nodiscard]] row_index n_constraints() const { return n_constraints_; }
  /// Total rows processed by the kernels.
  [[nodiscard]] row_index n_rows() const { return n_obs_ + n_constraints_; }
  [[nodiscard]] col_index n_cols() const { return layout_.n_unknowns(); }

  /// Row-major coefficient records, `n_rows() * kNnzPerRow` doubles.
  [[nodiscard]] std::span<real> values() { return values_; }
  [[nodiscard]] std::span<const real> values() const { return values_; }

  /// First astrometric column per row (global column space).
  [[nodiscard]] std::span<col_index> matrix_index_astro() {
    return matrix_index_astro_;
  }
  [[nodiscard]] std::span<const col_index> matrix_index_astro() const {
    return matrix_index_astro_;
  }

  /// First attitude coefficient per row (attitude-section-local).
  [[nodiscard]] std::span<col_index> matrix_index_att() {
    return matrix_index_att_;
  }
  [[nodiscard]] std::span<const col_index> matrix_index_att() const {
    return matrix_index_att_;
  }

  /// Instrumental columns, `n_rows() * kInstrNnzPerRow` int32s
  /// (instrumental-section-local; the section is < 2^31 wide even at
  /// production scale, and the narrower type matters for the memory
  /// footprint the study sizes against).
  [[nodiscard]] std::span<std::int32_t> instr_col() { return instr_col_; }
  [[nodiscard]] std::span<const std::int32_t> instr_col() const {
    return instr_col_;
  }

  /// Known terms b, one per row (constraint rows typically carry 0).
  [[nodiscard]] std::span<real> known_terms() { return known_terms_; }
  [[nodiscard]] std::span<const real> known_terms() const {
    return known_terms_;
  }

  /// Row ranges per star: observation rows of star s are
  /// [star_row_start()[s], star_row_start()[s+1]). Enables the
  /// atomic-free aprod2 astrometric kernel (block-diagonal structure).
  [[nodiscard]] std::span<row_index> star_row_start() {
    return star_row_start_;
  }
  [[nodiscard]] std::span<const row_index> star_row_start() const {
    return star_row_start_;
  }

  /// Coefficient record of one row.
  [[nodiscard]] std::span<real, kNnzPerRow> row_values(row_index r) {
    return std::span<real, kNnzPerRow>(values_.data() + r * kNnzPerRow,
                                       kNnzPerRow);
  }
  [[nodiscard]] std::span<const real, kNnzPerRow> row_values(
      row_index r) const {
    return std::span<const real, kNnzPerRow>(values_.data() + r * kNnzPerRow,
                                             kNnzPerRow);
  }

  /// Memory footprint of the system data (matrix + indexes + known
  /// terms), the quantity the paper sizes problems by ("10 GB problem").
  [[nodiscard]] byte_size footprint_bytes() const;

  /// Footprint a system with these dimensions would occupy, without
  /// allocating it. Shared with the generator's inverse sizing and the
  /// performance model's capacity checks.
  static byte_size footprint_bytes_for(row_index n_rows, row_index n_stars);

  /// Structural sanity check: every index in range, attitude blocks
  /// within their axis, instrumental columns distinct per row. Throws
  /// gaia::Error describing the first violation.
  void validate_structure() const;

  /// Hands the five row-record arrays over without copying them and
  /// leaves them empty here. The known terms and the dimensions stay, but
  /// what is left is no longer a system: no kernel may read it.
  [[nodiscard]] Records release_records() &&;

 private:
  ParameterLayout layout_{};
  row_index n_obs_ = 0;
  row_index n_constraints_ = 0;
  Array<real> values_;
  Array<col_index> matrix_index_astro_;
  Array<col_index> matrix_index_att_;
  Array<std::int32_t> instr_col_;
  Array<real> known_terms_;
  Array<row_index> star_row_start_;
};

}  // namespace gaia::matrix
