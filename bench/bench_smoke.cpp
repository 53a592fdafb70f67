/// \file bench_smoke.cpp
/// \brief Fast per-kernel timing sweep that emits a BENCH_smoke.json
/// perf baseline — the producer side of the `gaia-perfgate` CI gate.
///
/// Launches each of the eight aprod kernels, the fused gather, the fused
/// scatter and the LSQR step (the one pass the solver launches) directly
/// through the KernelRegistry on a small host-resident system.
/// Every series gets one untimed launch, then the timed repetitions run
/// round-robin — repetition r of every series before repetition r + 1 of
/// any — so neither the process's start-up transient nor its position
/// in the sweep favours a series. Records the median launch time per
/// series and writes a metrics::PerfBaseline. Runs in about a second,
/// so CI can afford two runs (baseline + verify) plus an
/// injected-slowdown run to prove the gate trips:
///
///   bench_smoke --out BENCH_smoke.json
///   bench_smoke --out slow.json --slowdown aprod_step=2.0
///   gaia-perfgate BENCH_smoke.json slow.json   # exits 1
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backends/scratch_arena.hpp"
#include "obs/sampler.hpp"
#include "core/kernel_catalog.hpp"
#include "core/system_view.hpp"
#include "matrix/generator.hpp"
#include "metrics/perf_baseline.hpp"
#include "tuning/kernel_registry.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace gaia;

/// `--slowdown KERNEL=FACTOR`: busy-spin after the named series inside
/// the timed region until its launch appears FACTOR times slower. CI
/// uses this to prove the gate actually trips on a regression; a name
/// that matches no series is an error, so a typo cannot pass the gate.
struct Slowdown {
  std::string kernel;
  double factor = 1.0;
};

Slowdown parse_slowdown(const std::string& spec) {
  Slowdown s;
  if (spec.empty()) return s;
  const auto eq = spec.find('=');
  GAIA_CHECK(eq != std::string::npos && eq > 0 && eq + 1 < spec.size(),
             "bad --slowdown spec '" + spec + "' (want KERNEL=FACTOR)");
  s.kernel = spec.substr(0, eq);
  s.factor = std::stod(spec.substr(eq + 1));
  GAIA_CHECK(s.factor >= 1.0, "--slowdown factor must be >= 1");
  return s;
}

void busy_spin_for(double seconds) {
  util::Stopwatch watch;
  volatile double sink = 0;
  while (watch.elapsed_s() < seconds) sink = sink + 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_smoke",
                "Per-kernel smoke timings -> perf-gate baseline JSON");
  cli.add_option("out", "BENCH_smoke.json", "baseline output path");
  cli.add_option("reps", "9", "timed repetitions per kernel");
  cli.add_option("backend", "openmp", "serial | openmp | pstl | gpusim");
  cli.add_option("stars", "1500",
                 "synthetic system size in stars (large enough that the "
                 "system leaves L2, still well under a second)");
  cli.add_option("slowdown", "",
                 "KERNEL=FACTOR: artificially slow one kernel "
                 "(regression-injection for gate tests)");
  cli.add_option("telemetry-file", "",
                 "run the telemetry sampler during the sweep, streaming "
                 "JSONL here — compare kernel medians with/without to "
                 "measure sampler overhead");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const auto backend_opt = backends::parse_backend(cli.get("backend"));
    GAIA_CHECK(backend_opt.has_value(),
               "unknown backend '" + cli.get("backend") + "'");
    const backends::BackendKind backend = *backend_opt;
    const auto reps = static_cast<int>(cli.get_int("reps"));
    GAIA_CHECK(reps > 0, "--reps must be positive");
    const Slowdown slowdown = parse_slowdown(cli.get("slowdown"));

    std::unique_ptr<obs::TelemetrySampler> sampler;
    if (!cli.get("telemetry-file").empty()) {
      obs::SamplerConfig scfg;
      scfg.path = cli.get("telemetry-file");
      sampler = std::make_unique<obs::TelemetrySampler>(scfg);
    }

    matrix::GeneratorConfig cfg;
    cfg.seed = 4242;
    cfg.n_stars = cli.get_int("stars");
    const matrix::GeneratedSystem gen = matrix::generate_system(cfg);
    core::ensure_kernel_catalog();
    const core::SystemView view = core::SystemView::from(gen.A);
    const tuning::KernelRegistry& registry = tuning::KernelRegistry::global();
    const backends::TuningTable table = backends::TuningTable::tuned_default();
    backends::ScratchArena arena;

    util::Xoshiro256 rng(7);
    std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()));
    std::vector<real> y(static_cast<std::size_t>(gen.A.n_rows()));
    for (auto& v : x) v = rng.normal();
    for (auto& v : y) v = rng.normal();
    // The step overwrites its u with p = A v - alpha u and q with A^T p;
    // sigma * alpha = 0.5 keeps the repeated u <- p bounded, as in
    // bench_aprod.
    std::vector<real> u = y;
    std::vector<real> q(x.size());
    real pnorm_sq = 0;

    // The timed series: the eight per-section kernels at the tuned
    // table, then the fused gather, the fused scatter and the step.
    std::vector<tuning::AprodPass> passes;
    for (backends::KernelId id : backends::all_kernels())
      passes.push_back({id, std::nullopt});
    passes.push_back(tuning::kAprodPasses[0]);
    passes.push_back(tuning::kAprodPasses[2]);
    passes.push_back(tuning::kStepPass);

    struct Series {
      tuning::AprodPass pass;
      tuning::LaunchArgs args;
      metrics::KernelTiming timing;
      double spin_factor = 0;
      std::vector<double> samples;
    };
    std::vector<Series> series;
    for (const tuning::AprodPass& pass : passes) {
      const backends::KernelId id = pass.id;
      const bool is_aprod1 = id < backends::KernelId::kAprod2Astro;
      Series s;
      s.pass = pass;
      s.args.view = &view;
      if (pass.fused == tuning::FusedPass::kStep) {
        s.args.in = x.data();
        s.args.out = u.data();
        s.args.q = q.data();
        s.args.alpha = 0.5;
        s.args.pnorm_sq = &pnorm_sq;
      } else {
        s.args.in = is_aprod1 ? x.data() : y.data();
        s.args.out = is_aprod1 ? y.data() : x.data();
      }
      s.args.config = table.get(id);
      s.args.arena = &arena;
      s.timing.kernel = core::pass_region_name(pass);
      s.timing.backend = backends::to_string(backend);
      // The perf counters' label: the scatters commit private slices.
      s.timing.strategy =
          backends::kernel_uses_atomics(id) ? "privatized" : "none";
      s.spin_factor =
          s.timing.kernel == slowdown.kernel ? slowdown.factor - 1.0 : 0.0;
      s.samples.reserve(static_cast<std::size_t>(reps));
      series.push_back(std::move(s));
    }
    GAIA_CHECK(slowdown.kernel.empty() ||
                   std::any_of(series.begin(), series.end(),
                               [&](const Series& s) {
                                 return s.timing.kernel == slowdown.kernel;
                               }),
               "--slowdown names no series: '" + slowdown.kernel + "'");

    for (Series& s : series)
      registry.launch(s.pass, backend, s.args);  // warm-up, untimed
    for (int r = 0; r < reps; ++r) {
      for (Series& s : series) {
        util::Stopwatch watch;
        registry.launch(s.pass, backend, s.args);
        if (s.spin_factor > 0)
          busy_spin_for(s.spin_factor * watch.elapsed_s());
        s.samples.push_back(watch.elapsed_s());
      }
    }

    metrics::PerfBaseline baseline;
    baseline.name = "smoke";
    for (Series& s : series) {
      s.timing.median_seconds = util::median(s.samples);
      s.timing.samples = s.samples.size();
      baseline.kernels.push_back(s.timing);
      std::cout << s.timing.kernel << " [" << s.timing.strategy
                << "]: median "
                << s.timing.median_seconds * 1e3 << " ms over " << reps
                << " rep(s)\n";
    }
    metrics::save_baseline(cli.get("out"), baseline);
    std::cout << "wrote " << baseline.kernels.size() << " series to "
              << cli.get("out") << '\n';
    return 0;
  } catch (const std::exception& e) {  // also std::stod's bad factor
    std::cerr << "bench_smoke: " << e.what() << '\n';
    return 1;
  }
}
