/// \file bench_lsqr.cpp
/// \brief google-benchmark measurement of the full LSQR iteration per
/// backend (host execution) — the measured analog of the paper's
/// "average iteration time" metric, at laptop scale.
#include <benchmark/benchmark.h>

#include "core/lsqr.hpp"
#include "matrix/generator.hpp"

namespace {

using namespace gaia;

const matrix::SystemMatrix& system_under_test() {
  static const matrix::GeneratedSystem gen = [] {
    matrix::GeneratorConfig cfg;
    cfg.seed = 9002;
    cfg.n_stars = 1500;
    cfg.obs_per_star_mean = 25.0;
    cfg.att_dof_per_axis = 64;
    cfg.n_instr_params = 48;
    return matrix::generate_system(cfg);
  }();
  return gen.A;
}

void BM_LsqrIteration(benchmark::State& state) {
  const auto backend = static_cast<backends::BackendKind>(state.range(0));
  const bool tuned = state.range(1) != 0;
  core::LsqrOptions opts;
  opts.aprod.backend = backend;
  opts.aprod.tuning = tuned ? backends::TuningTable::tuned_default()
                            : backends::TuningTable::untuned();
  opts.compute_std_errors = false;

  for (auto _ : state) {
    // Measure a fixed 5-iteration solve; report per-iteration time.
    opts.max_iterations = 5;
    const auto result = core::lsqr_solve(system_under_test(), opts);
    benchmark::DoNotOptimize(result.x.data());
  }
  state.SetItemsProcessed(state.iterations() * 5);
  state.SetLabel(backends::to_string(backend) +
                 (tuned ? "/tuned" : "/untuned"));
}

void RegisterAll() {
  for (backends::BackendKind backend : backends::all_backends()) {
    for (int tuned : {1, 0}) {
      benchmark::RegisterBenchmark("lsqr_5_iterations", BM_LsqrIteration)
          ->Args({static_cast<int>(backend), tuned})
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
