/// \file quickstart.cpp
/// \brief Smallest end-to-end use of the library: generate a synthetic
/// Gaia-like system, solve it with the preconditioned LSQR on the
/// GPU-shaped backend, and inspect the result.
///
///   $ ./quickstart
#include <iostream>

#include "core/lsqr.hpp"
#include "matrix/generator.hpp"

int main() {
  using namespace gaia;

  // 1. Describe the dataset: 2000 stars with ~40 observations each,
  //    attitude/instrumental/global sections like production, and a
  //    ground truth so we can check the recovery.
  matrix::GeneratorConfig dataset;
  dataset.seed = 2024;
  dataset.n_stars = 2000;
  dataset.obs_per_star_mean = 40.0;
  dataset.att_dof_per_axis = 64;
  dataset.n_instr_params = 48;
  dataset.rhs_mode = matrix::RhsMode::kFromGroundTruth;
  dataset.noise_sigma = 1e-3;

  std::cout << "generating synthetic AVU-GSR system...\n";
  matrix::GeneratedSystem gen = matrix::generate_system(dataset);
  const auto& A = gen.A;
  std::cout << "  " << A.n_obs() << " observations + " << A.n_constraints()
            << " constraints, " << A.n_cols() << " unknowns\n";

  // 2. Configure the solver: CUDA-shaped backend, tuned kernels,
  //    standard errors on.
  core::LsqrOptions options;
  options.aprod.backend = backends::BackendKind::kGpuSim;
  options.aprod.tuning = backends::TuningTable::tuned_default();
  options.max_iterations = 300;
  options.atol = 1e-12;
  options.btol = 1e-12;

  std::cout << "running preconditioned LSQR...\n";
  core::LsqrResult result = core::lsqr_solve(A, options);

  std::cout << "  stopped after " << result.iterations
            << " iterations: " << core::to_string(result.istop) << '\n'
            << "  |r| = " << result.rnorm << ", cond(A) ~ " << result.acond
            << '\n'
            << "  mean iteration time: " << result.mean_iteration_s * 1e3
            << " ms\n";

  // 3. Compare against the ground truth the dataset was built from.
  double max_err = 0, mean_se = 0;
  const auto& truth = *gen.ground_truth;
  for (std::size_t i = 0; i < result.x.size(); ++i) {
    max_err = std::max(max_err, std::abs(result.x[i] - truth[i]));
    mean_se += result.std_errors[i];
  }
  mean_se /= static_cast<double>(result.std_errors.size());
  std::cout << "  max |x - x_true| = " << max_err
            << " (noise level 1e-3), mean standard error = " << mean_se
            << '\n';
  return 0;
}
