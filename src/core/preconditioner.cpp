#include "core/preconditioner.hpp"

#include <cmath>

#include "backends/thread_pool.hpp"

namespace gaia::core {

using matrix::kAstroCoeffOffset;
using matrix::kAttCoeffOffset;
using matrix::kGlobCoeffOffset;
using matrix::kInstrCoeffOffset;

namespace {

/// Rows per pool task of the column scaling.
constexpr std::int64_t kScalingRows = 4096;

/// Visits every (column, coefficient reference) pair of rows
/// [begin, end) of A, reading the coefficients from `vals` (A's own
/// array or a copy shaped like it).
template <typename V, typename F>
void for_each_entry(const matrix::SystemMatrix& A, std::span<V> vals,
                    row_index begin, row_index end, F&& f) {
  const matrix::ParameterLayout& lay = A.layout();
  const auto ia = A.matrix_index_astro();
  const auto it = A.matrix_index_att();
  const auto ic = A.instr_col();
  for (row_index r = begin; r < end; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    V* rv = vals.data() + ri * kNnzPerRow;
    for (int i = 0; i < kAstroNnzPerRow; ++i)
      f(ia[ri] + i, rv[kAstroCoeffOffset + i]);
    for (int blk = 0; blk < kAttBlocks; ++blk)
      for (int i = 0; i < kAttBlockSize; ++i)
        f(lay.att_offset() + it[ri] + blk * lay.att_stride() + i,
          rv[kAttCoeffOffset + blk * kAttBlockSize + i]);
    for (int i = 0; i < kInstrNnzPerRow; ++i)
      f(lay.instr_offset() + ic[ri * kInstrNnzPerRow + i],
        rv[kInstrCoeffOffset + i]);
    if (lay.has_global()) f(lay.glob_offset(), rv[kGlobCoeffOffset]);
  }
}

}  // namespace

std::vector<real> column_norms(const matrix::SystemMatrix& A) {
  std::vector<real> norms(static_cast<std::size_t>(A.n_cols()), real{0});
  // Serial: the shared columns' sums depend on the row order.
  for_each_entry(A, A.values(), 0, A.n_rows(), [&](col_index c, real v) {
    norms[static_cast<std::size_t>(c)] += v * v;
  });
  for (auto& n : norms) n = n > real{0} ? std::sqrt(n) : real{1};
  return norms;
}

void apply_column_scaling(matrix::SystemMatrix& A,
                          std::span<const real> norms) {
  apply_column_scaling(A, A.values(), norms);
}

void apply_column_scaling(const matrix::SystemMatrix& A,
                          std::span<real> values,
                          std::span<const real> norms) {
  GAIA_CHECK(static_cast<col_index>(norms.size()) == A.n_cols(),
             "column-norm vector size mismatch");
  GAIA_CHECK(values.size() == A.values().size(),
             "coefficient array size mismatch");
  // Each entry is one independent division, so row blocks on the pool
  // give the serial bits.
  backends::ThreadPool::global().parallel_for(
      A.n_rows(), kScalingRows, [&](std::int64_t lo, std::int64_t hi) {
        for_each_entry(A, values, lo, hi, [&](col_index c, real& v) {
          v /= norms[static_cast<std::size_t>(c)];
        });
      });
}

void unscale_solution(std::span<real> x, std::span<const real> norms) {
  GAIA_CHECK(x.size() == norms.size(), "unscale size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) x[i] /= norms[i];
}

}  // namespace gaia::core
