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

  // Mixed-precision gate: each requested reduced precision solves on the
  // reference backend with its coefficient planes stored reduced, runs
  // the FP64 iterative-refinement loop, and must land within the same
  // accuracy goal of the FP64 reference. A stalled refinement falls back
  // to a full FP64 re-solve — degraded speed, never degraded numbers —
  // and the report says so.
  for (backends::Precision p : options.precisions) {
    if (p == backends::Precision::kFp64) continue;
    core::LsqrOptions reduced_opts = options.lsqr;
    reduced_opts.aprod.backend = backends::BackendKind::kSerial;
    reduced_opts.compute_std_errors = false;
    for (backends::KernelId id : backends::all_kernels()) {
      backends::KernelConfig kcfg = reduced_opts.aprod.tuning.get(id);
      kcfg.precision = p;
      reduced_opts.aprod.tuning.set(id, kcfg);
    }

    PrecisionValidation v;
    v.precision = p;
    v.result = core::lsqr_solve(gen.A, reduced_opts);
    v.refinement = core::refine_corrections(gen.A, gen.A.known_terms(),
                                            v.result.x, reduced_opts,
                                            options.refine);
    if (!v.refinement.converged) {
      v.fell_back = true;
      core::LsqrOptions fp64_opts = reduced_opts;
      for (backends::KernelId id : backends::all_kernels()) {
        backends::KernelConfig kcfg = fp64_opts.aprod.tuning.get(id);
        kcfg.precision = backends::Precision::kFp64;
        fp64_opts.aprod.tuning.set(id, kcfg);
      }
      v.result = core::lsqr_solve(gen.A, fp64_opts);
    }
    v.solution = compare_solutions(v.result.x, campaign.reference.x, {}, {},
                                   options.accuracy_goal);
    v.one_to_one = fit_one_to_one(astrometric_scatter(
        campaign.layout, v.result.x, campaign.reference.x));
    campaign.all_passed =
        campaign.all_passed && v.solution.below_accuracy_goal;
    campaign.precisions.push_back(std::move(v));
  }
  return campaign;
}

}  // namespace gaia::validation
