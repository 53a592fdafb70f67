/// \file model_drift_helper.hpp
/// \brief Shared bench plumbing for the model-drift report: time every
/// aprod kernel on the host, and confront the measured times with the
/// cost model's predictions for the same problem shape.
#pragma once

#include <string>
#include <vector>

#include "backends/scratch_arena.hpp"
#include "core/kernel_catalog.hpp"
#include "core/system_view.hpp"
#include "matrix/generator.hpp"
#include "metrics/model_drift.hpp"
#include "perfmodel/cost_model.hpp"
#include "perfmodel/problem_shape.hpp"
#include "tuning/kernel_registry.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace gaia::bench {

/// Launches each of the eight aprod kernels `iterations` times through
/// KernelRegistry::launch on the given backend, at the cost model's
/// tuned shapes, then builds one drift row per kernel: predicted =
/// cost-model kernel seconds on `spec` x iteration count, measured = the
/// summed host launch times. The solve itself runs fused passes, so the
/// per-kernel times come from the registry, not from a solve's profile.
inline metrics::ModelDriftReport host_drift_report(
    const matrix::GeneratorConfig& gen_cfg,
    const perfmodel::GpuSpec& spec,
    backends::BackendKind backend = backends::BackendKind::kGpuSim,
    int iterations = 20) {
  const auto gen = matrix::generate_system(gen_cfg);
  const perfmodel::ProblemShape shape =
      perfmodel::ProblemShape::from_config(gen_cfg);
  const perfmodel::KernelCostModel model(spec);
  const backends::TuningTable tuning = model.tuned_table();

  core::ensure_kernel_catalog();
  const core::SystemView view = core::SystemView::from(gen.A);
  const tuning::KernelRegistry& registry = tuning::KernelRegistry::global();
  backends::ScratchArena arena;
  util::Xoshiro256 rng(gen_cfg.seed);
  std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()));
  std::vector<real> y(static_cast<std::size_t>(gen.A.n_rows()));
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();

  std::vector<metrics::KernelDrift> rows;
  for (backends::KernelId id : backends::all_kernels()) {
    const bool gather = id < backends::KernelId::kAprod2Astro;
    tuning::LaunchArgs args;
    args.view = &view;
    args.in = gather ? x.data() : y.data();
    args.out = gather ? y.data() : x.data();
    args.config = tuning.get(id);
    args.arena = &arena;
    registry.launch(id, backend, args);  // warm-up, untimed
    metrics::KernelDrift row;
    row.kernel = backends::to_string(id);
    row.predicted_s =
        model.kernel_seconds(id, shape, tuning.get(id),
                             backends::AtomicMode::kNativeRmw) *
        iterations;
    for (int it = 0; it < iterations; ++it) {
      util::Stopwatch watch;
      registry.launch(id, backend, args);
      row.measured_s += watch.elapsed_s();
    }
    rows.push_back(std::move(row));
  }
  return metrics::ModelDriftReport(std::move(rows));
}

/// The small-but-real system both drift benches measure.
inline matrix::GeneratorConfig drift_bench_config() {
  matrix::GeneratorConfig cfg;
  cfg.seed = 4242;
  cfg.n_stars = 2000;
  cfg.obs_per_star_mean = 30.0;
  cfg.att_dof_per_axis = 64;
  cfg.n_instr_params = 64;
  return cfg;
}

}  // namespace gaia::bench
