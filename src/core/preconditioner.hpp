/// \file preconditioner.hpp
/// \brief Column-scaling preconditioner of the AVU-GSR LSQR.
///
/// The production solver runs a *preconditioned* LSQR (paper SIII-B): the
/// system is normalized column-wise, A -> A D with D = diag(1/||a_j||),
/// solved for z, and the solution is mapped back as x = D z. Column
/// scaling equilibrates the wildly different magnitudes of astrometric,
/// attitude, instrumental and global partials and tightens the condition
/// number LSQR's convergence depends on.
#pragma once

#include <span>
#include <vector>

#include "matrix/system_matrix.hpp"

namespace gaia::core {

/// Euclidean norm of every column of A (size n_cols). Columns that never
/// receive a coefficient (possible in tiny synthetic systems) get norm 1
/// so the scaling stays invertible.
std::vector<real> column_norms(const matrix::SystemMatrix& A);

/// In-place A -> A D: divides each stored coefficient by its column norm.
void apply_column_scaling(matrix::SystemMatrix& A,
                          std::span<const real> norms);

/// The same scaling applied to `values`, a copy of A's coefficient array
/// (e.g. the device-resident one): identical per-entry divisions, so the
/// result is bit-identical to scaling a copy of the whole matrix.
void apply_column_scaling(const matrix::SystemMatrix& A,
                          std::span<real> values,
                          std::span<const real> norms);

/// Maps the scaled-space solution back: x = D z (divides elementwise by
/// the norms). Also correct for the per-unknown standard errors.
void unscale_solution(std::span<real> x, std::span<const real> norms);

}  // namespace gaia::core
