#include "validation/cross_backend.hpp"

#include "core/vector_ops.hpp"

namespace gaia::validation {

ValidationCampaign run_validation(const ValidationOptions& options) {
  matrix::GeneratorConfig cfg = options.dataset;
  cfg.rhs_mode = matrix::RhsMode::kFromGroundTruth;
  matrix::GeneratedSystem gen = matrix::generate_system(cfg);

  // Bring the synthetic solution to astrometric scale (radians): the
  // system is linear, so scaling b scales x and its standard errors.
  if (options.solution_scale != real{1}) {
    auto b = gen.A.known_terms();
    for (auto& v : b) v *= options.solution_scale;
  }

  ValidationCampaign campaign;
  campaign.layout = gen.A.layout();

  // Reference: the deterministic serial build plays the production code.
  core::LsqrOptions ref_opts = options.lsqr;
  ref_opts.aprod.backend = backends::BackendKind::kSerial;
  ref_opts.compute_std_errors = true;
  campaign.reference = core::lsqr_solve(gen.A, ref_opts);

  campaign.all_passed = true;
  for (backends::BackendKind backend : backends::all_backends()) {
    if (backend == backends::BackendKind::kSerial) continue;
    core::LsqrOptions port_opts = options.lsqr;
    port_opts.aprod.backend = backend;
    port_opts.compute_std_errors = true;

    BackendValidation v;
    v.backend = backend;
    v.result = core::lsqr_solve(gen.A, port_opts);
    v.solution = compare_solutions(v.result.x, campaign.reference.x,
                                   v.result.std_errors,
                                   campaign.reference.std_errors,
                                   options.accuracy_goal);
    v.std_errors = compare_solutions(v.result.std_errors,
                                     campaign.reference.std_errors, {}, {},
                                     options.accuracy_goal);
    v.one_to_one = fit_one_to_one(astrometric_scatter(
        campaign.layout, v.result.x, campaign.reference.x));
    campaign.all_passed = campaign.all_passed &&
                          v.solution.below_accuracy_goal &&
                          v.std_errors.below_accuracy_goal &&
                          v.solution.sigma_agreement > 0.99;
    campaign.ports.push_back(std::move(v));
  }
  return campaign;
}

}  // namespace gaia::validation
