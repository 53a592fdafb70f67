/// \file cross_backend.hpp
/// \brief End-to-end cross-port validation campaign (paper SV-C).
///
/// Solves one reference dataset with the serial "production" backend and
/// with every other backend, then runs the Fig. 6 acceptance analysis on
/// each pair.
#pragma once

#include <vector>

#include "core/lsqr.hpp"
#include "matrix/generator.hpp"
#include "validation/compare.hpp"

namespace gaia::validation {

struct BackendValidation {
  backends::BackendKind backend;
  SolutionComparison solution;
  SolutionComparison std_errors;
  OneToOneFit one_to_one;
  core::LsqrResult result;
};

struct ValidationCampaign {
  matrix::ParameterLayout layout;
  core::LsqrResult reference;               ///< serial backend, FP64
  std::vector<BackendValidation> ports;     ///< every other backend
  bool all_passed = false;
};

struct ValidationOptions {
  matrix::GeneratorConfig dataset{};        ///< validation dataset recipe
  core::LsqrOptions lsqr{};                 ///< per-port solver options
  real accuracy_goal = kAccuracyGoalRad;
  /// Rescale the synthetic unknowns to radian-scale astrometry so the
  /// micro-arcsecond threshold is meaningful (the paper's datasets are
  /// real astrometric quantities of order 1e-6 rad).
  real solution_scale = 1e-6;
};

ValidationCampaign run_validation(const ValidationOptions& options);

}  // namespace gaia::validation
