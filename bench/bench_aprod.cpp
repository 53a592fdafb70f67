/// \file bench_aprod.cpp
/// \brief google-benchmark microbenchmarks of the real (host-executed)
/// aprod kernels across backends — the measured counterpart of the
/// platform model's analytical kernel costs.
///
/// Each aprod product is timed both ways: as the paper's per-section
/// kernels (`aprod1`: four gathers, `aprod2_scatter`: three shared-section
/// scatters) and as the fused row pass the apply path runs
/// (`aprod1_fused`, `aprod2_fused`), launched through the KernelRegistry
/// at the tuned shapes. `aprod2` is apply2 through the Aprod driver, and
/// `aprod_step` the LSQR step the solver runs: both products of one
/// iteration in one row pass, against `aprod1_fused` + `aprod2`.
#include <benchmark/benchmark.h>

#include <array>
#include <string>

#include "backends/scratch_arena.hpp"
#include "core/aprod.hpp"
#include "core/kernel_catalog.hpp"
#include "matrix/generator.hpp"
#include "tuning/kernel_registry.hpp"
#include "util/rng.hpp"

namespace {

using namespace gaia;
using backends::KernelId;
using tuning::AprodPass;
using tuning::FusedPass;

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

/// Installs `strategy` on the three atomic aprod2 kernels.
backends::TuningTable table_with_strategy(backends::ScatterStrategy strategy) {
  backends::TuningTable table = backends::TuningTable::tuned_default();
  for (KernelId id : backends::all_kernels()) {
    if (!backends::kernel_uses_atomics(id)) continue;
    backends::KernelConfig cfg = table.get(id);
    cfg.strategy = strategy;
    table.set(id, cfg);
  }
  return table;
}

/// What one registry benchmark launches per iteration.
enum class Product : int { kAprod1, kAprod1Fused, kAprod2Scatter, kAprod2Fused };

std::vector<AprodPass> passes_of(Product product) {
  switch (product) {
    case Product::kAprod1:
      return {{KernelId::kAprod1Astro, std::nullopt},
              {KernelId::kAprod1Att, std::nullopt},
              {KernelId::kAprod1Instr, std::nullopt},
              {KernelId::kAprod1Glob, std::nullopt}};
    case Product::kAprod1Fused:
      return {{KernelId::kAprod1Astro, FusedPass::kGather}};
    case Product::kAprod2Scatter:
      return {{KernelId::kAprod2Att, std::nullopt},
              {KernelId::kAprod2Instr, std::nullopt},
              {KernelId::kAprod2Glob, std::nullopt}};
    case Product::kAprod2Fused:
      return {{KernelId::kAprod2Att, FusedPass::kScatter}};
  }
  return {};
}

/// One product through the KernelRegistry: range(0) backend, range(1)
/// Product, range(2) scatter strategy.
void BM_Registry(benchmark::State& state) {
  const auto backend = static_cast<backends::BackendKind>(state.range(0));
  const auto product = static_cast<Product>(state.range(1));
  const auto strategy =
      static_cast<backends::ScatterStrategy>(state.range(2));
  const auto& gen = system_under_test();
  core::ensure_kernel_catalog();
  const core::SystemView view = core::SystemView::from(gen.A);
  const tuning::KernelRegistry& registry = tuning::KernelRegistry::global();
  const backends::TuningTable table = table_with_strategy(strategy);
  backends::ScratchArena arena;
  util::Xoshiro256 rng(1);
  std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()));
  std::vector<real> y(static_cast<std::size_t>(gen.A.n_rows()));
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();
  const bool gather =
      product == Product::kAprod1 || product == Product::kAprod1Fused;
  const std::vector<AprodPass> passes = passes_of(product);
  tuning::LaunchArgs args;
  args.view = &view;
  args.in = gather ? x.data() : y.data();
  args.out = gather ? y.data() : x.data();
  args.arena = &arena;
  for (auto _ : state) {
    for (const AprodPass& pass : passes) {
      args.config = table.get(pass.id);
      registry.launch(pass, backend, args);
    }
    benchmark::DoNotOptimize(args.out);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(gen.A.values().size_bytes()));
  std::string label = backends::to_string(backend);
  if (!gather) label.append("/").append(backends::to_string(strategy));
  state.SetLabel(label);
}

/// The solver's apply2 through the Aprod driver: aprod2_astro then the
/// fused scatter, on the calling thread.
void BM_Aprod2(benchmark::State& state) {
  const auto backend = static_cast<backends::BackendKind>(state.range(0));
  const auto& gen = system_under_test();
  backends::DeviceContext device;
  core::AprodOptions opts;
  opts.backend = backend;
  core::Aprod aprod(gen.A, device, opts);
  util::Xoshiro256 rng(2);
  std::vector<real> y(static_cast<std::size_t>(gen.A.n_rows()));
  std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()), 0.0);
  for (auto& v : y) v = rng.normal();
  for (auto _ : state) {
    aprod.apply2(y, x);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(gen.A.values().size_bytes()));
  state.SetLabel(backends::to_string(backend));
}

/// The LSQR step through the Aprod driver: range(0) backend, range(1)
/// scatter strategy. sigma * alpha = 0.5 keeps the repeated u <- p
/// bounded.
void BM_Step(benchmark::State& state) {
  const auto backend = static_cast<backends::BackendKind>(state.range(0));
  const auto strategy =
      static_cast<backends::ScatterStrategy>(state.range(1));
  const auto& gen = system_under_test();
  backends::DeviceContext device;
  core::AprodOptions opts;
  opts.backend = backend;
  opts.tuning = table_with_strategy(strategy);
  core::Aprod aprod(gen.A, device, opts);
  util::Xoshiro256 rng(3);
  std::vector<real> v(static_cast<std::size_t>(gen.A.n_cols()));
  std::vector<real> u(static_cast<std::size_t>(gen.A.n_rows()));
  std::vector<real> q(v.size());
  for (auto& e : v) e = rng.normal();
  for (auto& e : u) e = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(aprod.step(v, u, q, 1.0, 0.5));
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(gen.A.values().size_bytes()));
  state.SetLabel(backends::to_string(backend) + "/" +
                 backends::to_string(strategy));
}

void RegisterAll() {
  const std::array<std::pair<const char*, Product>, 2> gathers = {
      {{"aprod1", Product::kAprod1}, {"aprod1_fused", Product::kAprod1Fused}}};
  const std::array<std::pair<const char*, Product>, 2> scatters = {
      {{"aprod2_scatter", Product::kAprod2Scatter},
       {"aprod2_fused", Product::kAprod2Fused}}};
  for (backends::BackendKind backend : backends::all_backends()) {
    const int b = static_cast<int>(backend);
    for (const auto& [name, product] : gathers)
      benchmark::RegisterBenchmark(name, BM_Registry)
          ->Args({b, static_cast<int>(product), 0})
          ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("aprod2", BM_Aprod2)
        ->Arg(b)
        ->Unit(benchmark::kMillisecond);
    for (backends::ScatterStrategy strategy :
         {backends::ScatterStrategy::kAtomic,
          backends::ScatterStrategy::kPrivatized}) {
      for (const auto& [name, product] : scatters)
        benchmark::RegisterBenchmark(name, BM_Registry)
            ->Args({b, static_cast<int>(product), static_cast<int>(strategy)})
            ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark("aprod_step", BM_Step)
          ->Args({b, static_cast<int>(strategy)})
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
