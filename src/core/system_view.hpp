/// \file system_view.hpp
/// \brief Non-owning, kernel-side view of the system data.
///
/// Kernels receive raw pointers plus layout scalars — the same contract a
/// CUDA kernel has after the one-time host-to-device copy. Building a
/// view from `DeviceBuffer`s (device residency) or straight from a
/// `SystemMatrix` (tests) is equally valid: both feed the same
/// construction path, `from(A, arrays)`, so the scalar fields can never
/// drift between the two sources.
#pragma once

#include <cstdint>

#include "matrix/layouted_system.hpp"
#include "matrix/system_matrix.hpp"
#include "util/types.hpp"

namespace gaia::core {

struct SystemView {
  /// The five data arrays of the row records. Split out so the host
  /// path (spans straight from the SystemMatrix) and the device path
  /// (DeviceBuffer::data() after the H2D copy) share one `from`.
  struct Arrays {
    const real* values = nullptr;             ///< n_rows * kNnzPerRow
    const col_index* idx_astro = nullptr;     ///< n_rows
    const col_index* idx_att = nullptr;       ///< n_rows
    const std::int32_t* instr_col = nullptr;  ///< n_rows * kInstrNnzPerRow
    const row_index* star_row_start = nullptr;  ///< n_stars + 1

    static Arrays of(const matrix::SystemMatrix& A) {
      return {A.values().data(), A.matrix_index_astro().data(),
              A.matrix_index_att().data(), A.instr_col().data(),
              A.star_row_start().data()};
    }
  };

  row_index n_rows = 0;   ///< observation + constraint rows
  row_index n_obs = 0;    ///< observation rows only
  row_index n_stars = 0;
  col_index n_cols = 0;

  const real* values = nullptr;            ///< n_rows * kNnzPerRow
  const col_index* idx_astro = nullptr;    ///< n_rows
  const col_index* idx_att = nullptr;      ///< n_rows
  const std::int32_t* instr_col = nullptr; ///< n_rows * kInstrNnzPerRow
  const row_index* star_row_start = nullptr;  ///< n_stars + 1

  col_index att_offset = 0;
  col_index att_stride = 0;
  col_index instr_offset = 0;
  col_index glob_offset = 0;
  bool has_global = false;

  /// Shared construction path: scalar fields from the matrix
  /// metadata, data pointers from wherever the arrays live (host spans
  /// or device buffers).
  static SystemView from(const matrix::SystemMatrix& A,
                         const Arrays& arrays) {
    const matrix::ParameterLayout& lay = A.layout();
    SystemView v;
    v.n_rows = A.n_rows();
    v.n_obs = A.n_obs();
    v.n_stars = lay.n_stars();
    v.n_cols = A.n_cols();
    v.values = arrays.values;
    v.idx_astro = arrays.idx_astro;
    v.idx_att = arrays.idx_att;
    v.instr_col = arrays.instr_col;
    v.star_row_start = arrays.star_row_start;
    v.att_offset = lay.att_offset();
    v.att_stride = lay.att_stride();
    v.instr_offset = lay.instr_offset();
    v.glob_offset = lay.glob_offset();
    v.has_global = lay.has_global();
    return v;
  }

  /// View over host-resident system data (test/reference path).
  static SystemView from(const matrix::SystemMatrix& A) {
    return from(A, Arrays::of(A));
  }

  /// No-op: there are no derived layouts to attach. Stays until ROADMAP
  /// item 8, for the end-to-end benchmark's layout sweep.
  void attach_layout(const matrix::LayoutedSystem&) {}
};

}  // namespace gaia::core
