/// \file table_speedup.cpp
/// \brief The paper's optimized-vs-production comparison (SV-B, first
/// paragraph): the tuned CUDA port achieved 2.0x over the production
/// code on a 42 GB problem. Decomposes the gain into its ingredients
/// (kernel shapes, stream overlap) on every platform via the cost model,
/// and reports how far the model's per-kernel split drifts from host
/// measurements of the same kernels.
#include <iostream>

#include "matrix/generator.hpp"
#include "model_drift_helper.hpp"
#include "perfmodel/simulator.hpp"
#include "util/table.hpp"

int main() {
  using namespace gaia;
  using namespace gaia::perfmodel;

  // --- model decomposition --------------------------------------------
  // The paper compared on a 42 GB problem on Leonardo's 64 GB A100s; our
  // A100 spec is the 40 GB part, so the decomposition runs at 30 GB to
  // cover V100/A100/H100/MI250X.
  const auto footprint = static_cast<byte_size>(30.0 * kGiB);
  const ProblemShape shape = ProblemShape::from_footprint(footprint);

  std::cout << "=== optimized vs production solver (30 GB model) ===\n\n";
  util::Table t({"platform", "production (ms)", "+tuned shapes (ms)",
                 "+streams (ms)", "speedup"});
  for (Platform p : all_platforms()) {
    const GpuSpec& spec = gpu_spec(p);
    if (static_cast<double>(footprint) / static_cast<double>(kGiB) >
        spec.mem_capacity_gb)
      continue;
    const KernelCostModel model(spec);

    ExecutionPlan production;  // naive 256x256 shapes, no overlap
    production.tuning = backends::TuningTable::untuned({256, 256});
    production.use_streams = false;

    ExecutionPlan shaped = production;
    shaped.tuning = model.tuned_table();

    ExecutionPlan optimized = shaped;
    optimized.use_streams = true;

    const double t0 = model.iteration_seconds(shape, production);
    const double t1 = model.iteration_seconds(shape, shaped);
    const double t2 = model.iteration_seconds(shape, optimized);
    t.add_row({to_string(p), util::Table::num(t0 * 1e3, 1),
               util::Table::num(t1 * 1e3, 1), util::Table::num(t2 * 1e3, 1),
               util::Table::num(t0 / t2, 2) + "x"});
  }
  std::cout << t.str();
  std::cout << "paper reference: 2.0x on Leonardo vs the production CUDA "
               "version. The model reproduces the shape+stream share of "
               "that gain (largest where bandwidth is shape-sensitive, "
               "V100-class); the rest of the production gap came from "
               "optimizations outside the iteration model (pinned-memory "
               "async staging, collision-reducing kernel restructuring) — "
               "see EXPERIMENTS.md.\n\n";

  // --- model drift: is the predicted kernel mix still honest? -----------
  // The decomposition above trusts the cost model's per-kernel split;
  // this measures the same kernels on the host and reports the drift
  // between predicted and measured time shares.
  matrix::GeneratorConfig cfg;
  cfg.seed = 777;
  cfg.n_stars = 2500;
  cfg.obs_per_star_mean = 30.0;
  cfg.att_dof_per_axis = 64;
  cfg.n_instr_params = 64;
  const auto drift =
      bench::host_drift_report(cfg, gpu_spec(Platform::kA100));
  std::cout << drift.markdown(
      "model drift: A100 prediction vs host gpusim measurement");
  drift.write_csv("table_speedup_model_drift.csv");
  std::cout << "drift CSV written to table_speedup_model_drift.csv\n";
  return 0;
}
