/// \file generator.hpp
/// \brief Seeded synthetic Gaia-like dataset generator.
///
/// Mirrors the paper's artifact: "the solver ... randomly generates, given
/// a certain seed, a dataset with the specified size" that is distributed
/// in the system like the real (NDA'd) data:
///
/// * observation rows grouped contiguously by star (block diagonal
///   astrometric part), observation counts per star drawn around a mean;
/// * attitude access follows the measurement-campaign stride: the block
///   start drifts slowly along the attitude spline as observation time
///   advances, identical across the 3 axes of one row;
/// * instrumental columns are irregular (pseudo-random per row);
/// * at most one global (PPN gamma) coefficient per row.
///
/// Two generation modes:
/// * kRandomRhs — b drawn randomly (the paper's P-measurement runs: only
///   iteration time matters, not convergence);
/// * kFromGroundTruth — a ground-truth x* is drawn and b = A x* (+ optional
///   gaussian noise), enabling end-to-end correctness validation.
#pragma once

#include <cstdint>
#include <optional>

#include "matrix/system_matrix.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace gaia::matrix {

enum class RhsMode : std::uint8_t {
  kRandomRhs,
  kFromGroundTruth,
};

struct GeneratorConfig {
  std::uint64_t seed = 0x6761696173696dull;  // "gaiasim"
  row_index n_stars = 64;
  /// Mean observations per star (production is O(1e3); tests use small).
  double obs_per_star_mean = 12.0;
  /// Min observations per star; production guarantees >= 5 so the
  /// astrometric sub-block is overdetermined.
  row_index obs_per_star_min = 5;
  col_index att_dof_per_axis = 32;   ///< attitude DoF per axis (3 axes)
  col_index n_instr_params = 24;     ///< instrumental unknowns
  bool has_global = true;            ///< solve PPN gamma
  /// Attitude nullspace constraint rows appended per axis (production
  /// sets constraint equations to make the solution univocal).
  row_index constraints_per_axis = 1;
  RhsMode rhs_mode = RhsMode::kRandomRhs;
  /// Gaussian observation noise added to b in kFromGroundTruth mode.
  real noise_sigma = 0.0;
};

/// A generated problem: the system plus (in kFromGroundTruth mode) the
/// ground truth it was built from.
struct GeneratedSystem {
  SystemMatrix A;
  std::optional<std::vector<real>> ground_truth;  ///< size n_unknowns
};

/// Deterministically generates a system from the configuration: equal
/// seeds produce bit-identical systems. The rows fill in fixed blocks on
/// the shared pool, each from the state one serial stream has at the
/// block's start, so the bits do not depend on the pool size.
GeneratedSystem generate_system(const GeneratorConfig& config);

/// Computes a configuration whose generated system occupies approximately
/// `bytes` of memory (the paper's "10 GB / 30 GB / 60 GB problem"),
/// keeping the production proportions: the astrometric unknowns dominate
/// the column space (>99 %) while the attitude/instrumental sections stay
/// small (the per-row coefficient split is fixed by the 5/12/6/1
/// structure). Dimension knobs other than n_stars scale with the cube
/// root of the size so secondary sections grow, but slowly.
GeneratorConfig config_for_footprint(byte_size bytes,
                                     std::uint64_t seed = 0x6761696173696dull);

}  // namespace gaia::matrix
