/// \file bench_aprod.cpp
/// \brief google-benchmark microbenchmarks of the real (host-executed)
/// aprod kernels across backends — the measured counterpart of the
/// platform model's analytical kernel costs.
#include <benchmark/benchmark.h>

#include "core/aprod.hpp"
#include "matrix/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace gaia;

const matrix::GeneratedSystem& system_under_test() {
  static const matrix::GeneratedSystem gen = [] {
    matrix::GeneratorConfig cfg;
    cfg.seed = 9001;
    cfg.n_stars = 2000;
    cfg.obs_per_star_mean = 30.0;
    cfg.att_dof_per_axis = 64;
    cfg.n_instr_params = 64;
    return matrix::generate_system(cfg);
  }();
  return gen;
}

core::AprodOptions options_for(backends::BackendKind backend, bool streams) {
  core::AprodOptions opts;
  opts.backend = backend;
  opts.use_streams = streams;
  return opts;
}

/// Installs `strategy` on the three atomic aprod2 kernels.
backends::TuningTable table_with_strategy(backends::ScatterStrategy strategy) {
  backends::TuningTable table = backends::TuningTable::tuned_default();
  for (backends::KernelId id : backends::all_kernels()) {
    if (!backends::kernel_uses_atomics(id)) continue;
    backends::KernelConfig cfg = table.get(id);
    cfg.strategy = strategy;
    table.set(id, cfg);
  }
  return table;
}

void BM_Aprod1(benchmark::State& state) {
  const auto backend = static_cast<backends::BackendKind>(state.range(0));
  const auto& gen = system_under_test();
  backends::DeviceContext device;
  core::Aprod aprod(gen.A, device, options_for(backend, false));
  util::Xoshiro256 rng(1);
  std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()));
  std::vector<real> y(static_cast<std::size_t>(gen.A.n_rows()), 0.0);
  for (auto& v : x) v = rng.normal();
  for (auto _ : state) {
    aprod.apply1(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(gen.A.values().size_bytes()));
  state.SetLabel(backends::to_string(backend));
}

void BM_Aprod2(benchmark::State& state) {
  const auto backend = static_cast<backends::BackendKind>(state.range(0));
  const bool streams = state.range(1) != 0;
  const auto& gen = system_under_test();
  backends::DeviceContext device;
  core::Aprod aprod(gen.A, device, options_for(backend, streams));
  util::Xoshiro256 rng(2);
  std::vector<real> y(static_cast<std::size_t>(gen.A.n_rows()));
  std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()), 0.0);
  for (auto& v : y) v = rng.normal();
  for (auto _ : state) {
    aprod.apply2(y, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(gen.A.values().size_bytes()));
  state.SetLabel(backends::to_string(backend) +
                 (streams ? "/streams" : "/sequential"));
}

/// The atomic-vs-privatized comparison at the benchmark level: same
/// apply2 pass, strategy selected via the tuning table (the three
/// shared-section scatters read it for their commit step).
void BM_Aprod2Strategy(benchmark::State& state) {
  const auto backend = static_cast<backends::BackendKind>(state.range(0));
  const auto strategy =
      static_cast<backends::ScatterStrategy>(state.range(1));
  const auto& gen = system_under_test();
  backends::DeviceContext device;
  core::AprodOptions opts = options_for(backend, false);
  opts.tuning = table_with_strategy(strategy);
  core::Aprod aprod(gen.A, device, opts);
  util::Xoshiro256 rng(2);
  std::vector<real> y(static_cast<std::size_t>(gen.A.n_rows()));
  std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()), 0.0);
  for (auto& v : y) v = rng.normal();
  for (auto _ : state) {
    aprod.apply2(y, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(gen.A.values().size_bytes()));
  state.SetLabel(backends::to_string(backend) + "/" +
                 backends::to_string(strategy));
}

/// The fused single-row-pass aprod2 (the PSTL-port shape): att, instr
/// and glob scatters folded into one kernel, on either commit step.
void BM_Aprod2Fused(benchmark::State& state) {
  const auto backend = static_cast<backends::BackendKind>(state.range(0));
  const auto strategy =
      static_cast<backends::ScatterStrategy>(state.range(1));
  const auto& gen = system_under_test();
  backends::DeviceContext device;
  core::AprodOptions opts = options_for(backend, false);
  opts.fuse_aprod2 = true;
  opts.tuning = table_with_strategy(strategy);
  core::Aprod aprod(gen.A, device, opts);
  util::Xoshiro256 rng(2);
  std::vector<real> y(static_cast<std::size_t>(gen.A.n_rows()));
  std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()), 0.0);
  for (auto& v : y) v = rng.normal();
  for (auto _ : state) {
    aprod.apply2(y, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(gen.A.values().size_bytes()));
  state.SetLabel(backends::to_string(backend) + "/fused/" +
                 backends::to_string(strategy));
}

void RegisterAll() {
  for (backends::BackendKind backend : backends::all_backends()) {
    benchmark::RegisterBenchmark("aprod1", BM_Aprod1)
        ->Arg(static_cast<int>(backend))
        ->Unit(benchmark::kMillisecond);
    for (int streams : {0, 1}) {
      benchmark::RegisterBenchmark("aprod2", BM_Aprod2)
          ->Args({static_cast<int>(backend), streams})
          ->Unit(benchmark::kMillisecond);
    }
    for (backends::ScatterStrategy strategy :
         {backends::ScatterStrategy::kAtomic,
          backends::ScatterStrategy::kPrivatized}) {
      benchmark::RegisterBenchmark("aprod2_scatter", BM_Aprod2Strategy)
          ->Args({static_cast<int>(backend), static_cast<int>(strategy)})
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark("aprod2_fused", BM_Aprod2Fused)
          ->Args({static_cast<int>(backend), static_cast<int>(strategy)})
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
