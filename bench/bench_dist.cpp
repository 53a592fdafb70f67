/// \file bench_dist.cpp
/// \brief google-benchmark of the distributed LSQR across simulated MPI
/// rank counts — the host-measured cost of the World/Comm collectives
/// relative to the single-rank solve.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "dist/dist_lsqr.hpp"
#include "matrix/generator.hpp"

namespace {

using namespace gaia;

const matrix::SystemMatrix& system_under_test() {
  static const matrix::GeneratedSystem gen = [] {
    matrix::GeneratorConfig cfg;
    cfg.seed = 9003;
    cfg.n_stars = 1000;
    cfg.obs_per_star_mean = 25.0;
    cfg.att_dof_per_axis = 64;
    cfg.n_instr_params = 48;
    return matrix::generate_system(cfg);
  }();
  return gen.A;
}

void BM_DistLsqr(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  dist::DistLsqrOptions opts;
  opts.n_ranks = ranks;
  opts.lsqr.aprod.backend = backends::BackendKind::kSerial;
  opts.lsqr.max_iterations = 5;
  opts.lsqr.compute_std_errors = false;
  for (auto _ : state) {
    const auto result = dist::dist_lsqr_solve(system_under_test(), opts);
    benchmark::DoNotOptimize(result.x.data());
  }
  state.SetItemsProcessed(state.iterations() * 5);
  state.SetLabel("ranks=" + std::to_string(ranks));
}

/// Same solve with per-rank tracing + merge + per-rank trace files on —
/// the delta against BM_DistLsqr is the full observability overhead
/// (span recording, wait/exchange splitting, JSON render, clock-aligned
/// merge, file writes).
void BM_DistLsqrTraced(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("gaia_bench_trace_" + std::to_string(ranks));
  dist::DistLsqrOptions opts;
  opts.n_ranks = ranks;
  opts.lsqr.aprod.backend = backends::BackendKind::kSerial;
  opts.lsqr.max_iterations = 5;
  opts.lsqr.compute_std_errors = false;
  opts.trace_dir = dir.string();
  double comm_exposure = 0;
  for (auto _ : state) {
    const auto result = dist::dist_lsqr_solve(system_under_test(), opts);
    benchmark::DoNotOptimize(result.x.data());
    comm_exposure = result.comm_exposure_fraction_max;
  }
  fs::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * 5);
  state.counters["comm_exposure"] = comm_exposure;
  state.SetLabel("ranks=" + std::to_string(ranks) + " traced");
}

}  // namespace

int main(int argc, char** argv) {
  for (int ranks : {1, 2, 4, 8}) {
    benchmark::RegisterBenchmark("dist_lsqr_5_iterations", BM_DistLsqr)
        ->Arg(ranks)
        ->Unit(benchmark::kMillisecond);
  }
  for (int ranks : {2, 4, 8}) {
    benchmark::RegisterBenchmark("dist_lsqr_5_iterations_traced",
                                 BM_DistLsqrTraced)
        ->Arg(ranks)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
