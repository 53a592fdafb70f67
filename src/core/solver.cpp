#include "core/solver.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <sstream>
#include <vector>

#include "core/autotune_driver.hpp"
#include "core/kernel_catalog.hpp"
#include "core/lsqr_engine.hpp"
#include "metrics/pennycook.hpp"
#include "metrics/roofline.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "perfmodel/cost_model.hpp"
#include "perfmodel/problem_shape.hpp"
#include "tuning/tuning_cache.hpp"
#include "util/stopwatch.hpp"
#include "util/string_utils.hpp"

namespace gaia::core {

namespace {

/// Resolves the launch shapes the solve will run with: a complete cache
/// entry for this (backend, shape bucket) skips the search outright;
/// otherwise a warm-up search runs on a scoped device (its residency is
/// released before the real solve allocates), and fresh winners are
/// sealed back to the cache file.
void run_autotune(const SolverRunConfig& config,
                  const matrix::SystemMatrix& A, LsqrOptions& lsqr,
                  SolverRunReport& report) {
  report.autotune_enabled = true;
  const backends::BackendKind backend = lsqr.aprod.backend;
  const tuning::ShapeBucket bucket =
      tuning::bucket_for(A.n_rows(), A.n_cols());

  tuning::TuningCache cache;
  auto& metrics = obs::MetricsRegistry::global();
  if (!config.autotune.cache_path.empty() &&
      cache.load(config.autotune.cache_path) &&
      cache.complete_for(backend, bucket)) {
    report.kernels_tuned = cache.apply(backend, bucket, lsqr.aprod.tuning);
    report.autotune_cache_hit = true;
    if (metrics.enabled()) metrics.counter("tuning.cache_hits").add(1);
    return;
  }
  if (metrics.enabled()) metrics.counter("tuning.cache_misses").add(1);
  if (!backends::honors_kernel_config(backend)) return;

  tuning::Autotuner tuner(backend, config.autotune.search);
  {
    backends::DeviceContext device(lsqr.device_capacity, "autotune");
    AprodOptions opts = lsqr.aprod;
    opts.autotuner = &tuner;
    Aprod aprod(A, device, opts);
    const AutotuneWarmupReport warm =
        autotune_warmup(aprod, tuner, config.autotune.max_warmup_rounds);
    lsqr.aprod.tuning = aprod.tuning();
    report.kernels_tuned = warm.kernels_tuned;
    report.tuning_trials = warm.trials;
  }
  if (!config.autotune.cache_path.empty()) {
    // Seal the *full* table for this key — including kernels the search
    // left at their prior shape — so the next run's complete_for() check
    // can skip the search without re-deriving anything.
    for (backends::KernelId id : backends::all_kernels())
      cache.put(backend, bucket, id, lsqr.aprod.tuning.get(id));
    cache.save(config.autotune.cache_path);
  }
}

/// Post-solve observability digest: Pennycook P across the passes that
/// recorded production timing samples, plus the armed snapshot path.
/// Per-pass efficiency e_i = (cost-model predicted launch time) /
/// (measured p50), the per-kernel analog of the paper's application
/// efficiency; a fused pass is priced as the sum of its parts' kernel
/// times at the pass's launch config. Normalized by the best pass so
/// e_i in (0, 1] and P is the harmonic mean of Eq. 1. Rows are read from
/// a snapshot — never via registry lookups, which would create empty
/// series as a side effect.
void finish_observability(const matrix::GeneratorConfig& gen_cfg,
                          const LsqrOptions& lsqr, SolverRunReport& report) {
  report.metrics_snapshot_path = obs::global_snapshot_path();
  report.trace_dropped_events =
      obs::TraceRecorder::global().dropped_events();
  auto& reg = obs::MetricsRegistry::global();
  if (!reg.enabled()) return;
  const std::vector<obs::MetricRow> rows = reg.snapshot();
  const perfmodel::ProblemShape shape =
      perfmodel::ProblemShape::from_config(gen_cfg);
  const perfmodel::GpuSpec spec =
      perfmodel::gpu_spec(perfmodel::Platform::kA100);
  const perfmodel::KernelCostModel model(spec);
  // Roofline placement against the same representative spec the cost
  // model prices crossovers with (GFLOP/s = TFLOP/s * 1000); gauges are
  // published back so exports/bundles carry the placement.
  report.roofline_machine = metrics::RooflineMachine{
      spec.name, spec.peak_bw_gbs, spec.fp64_tflops * 1000.0,
      spec.spmv_bw_efficiency};
  report.roofline = metrics::roofline_points(rows, report.roofline_machine);
  metrics::publish_roofline_gauges(report.roofline);
  // The step is the solve's pass; the apply passes run where health
  // checks ask for a plain product.
  const std::array<tuning::AprodPass, 4> passes = {
      tuning::kStepPass, tuning::kAprodPasses[0], tuning::kAprodPasses[1],
      tuning::kAprodPasses[2]};
  std::vector<double> eff;
  for (const tuning::AprodPass& pass : passes) {
    const std::string kname = pass_region_name(pass);
    // Several series can exist per pass (trial shapes, failover
    // backends); the one with the most samples is the production config.
    double measured = 0;
    std::uint64_t best_count = 0;
    for (const obs::MetricRow& row : rows) {
      obs::KernelSeriesName series;
      if (!obs::parse_kernel_series(row.name, series)) continue;
      if (series.kernel != kname || series.field != "time_seconds") continue;
      if (row.count > best_count) {
        best_count = row.count;
        measured = row.p50;
      }
    }
    if (best_count == 0 || measured <= 0) continue;
    double predicted = 0;
    for (backends::KernelId part : pass_parts(pass))
      predicted += model.kernel_seconds(
          part, shape, report.tuning_used.get(pass.id),
          backends::AtomicMode::kNativeRmw, lsqr.aprod.coherence);
    if (predicted <= 0) continue;
    eff.push_back(predicted / measured);
  }
  if (eff.empty()) return;
  const double best = *std::max_element(eff.begin(), eff.end());
  for (double& e : eff) e /= best;
  report.pennycook_p = metrics::pennycook_p(eff);
  report.pennycook_kernels = static_cast<int>(eff.size());
  reg.gauge("metrics.pennycook").set(report.pennycook_p);
}

SolverRunReport run_solver_impl(const SolverRunConfig& config) {
  util::Stopwatch watch;

  // Live progress: one rank-attributed row for the whole run (rank -1
  // single-process; the dist rank bodies install a ThreadRankScope).
  // Phase transitions below feed the sampler's progress/ETA line; the
  // row is dropped however the run ends.
  const int prank = obs::ProgressBoard::thread_rank();
  auto& board = obs::ProgressBoard::global();
  struct BoardEnd {
    int rank;
    ~BoardEnd() { obs::ProgressBoard::global().end(rank); }
  } board_end{prank};
  board.begin(prank, config.lsqr.max_iterations, "generate");

  matrix::GeneratorConfig gen_cfg =
      config.generator.has_value()
          ? *config.generator
          : matrix::config_for_footprint(config.footprint_bytes, config.seed);

  matrix::GeneratedSystem generated = matrix::generate_system(gen_cfg);
  SolverRunReport report;
  report.generation_seconds = watch.elapsed_s();
  report.layout = generated.A.layout();
  report.n_obs = generated.A.n_obs();
  report.n_constraints = generated.A.n_constraints();
  report.system_bytes = generated.A.footprint_bytes();

  LsqrOptions lsqr = config.lsqr;

  // Config fingerprint for any postmortem bundle this run flushes.
  obs::set_postmortem_context("backend",
                              backends::to_string(lsqr.aprod.backend));
  obs::set_postmortem_context("seed", std::to_string(config.seed));
  obs::set_postmortem_context("n_obs", std::to_string(report.n_obs));
  obs::set_postmortem_context("n_unknowns",
                              std::to_string(report.layout.n_unknowns()));
  obs::set_postmortem_context(
      "max_iterations", std::to_string(config.lsqr.max_iterations));
  obs::flight_event("state", "solver.generated",
                    std::to_string(report.n_obs) + " obs, " +
                        std::to_string(report.layout.n_unknowns()) +
                        " unknowns");
  if (config.autotune.enabled) {
    board.set_phase(prank, "autotune");
    run_autotune(config, generated.A, lsqr, report);
    obs::flight_event("state", "solver.autotuned",
                      report.autotune_cache_hit
                          ? "cache hit"
                          : std::to_string(report.tuning_trials) + " trials");
  }
  report.tuning_used = lsqr.aprod.tuning;
  {
    // Tuning fingerprint: the resolved shape per kernel — the first
    // question a postmortem asks.
    std::ostringstream fp;
    bool first = true;
    for (backends::KernelId id : backends::all_kernels()) {
      const backends::KernelConfig cfg = lsqr.aprod.tuning.get(id);
      if (!first) fp << ' ';
      first = false;
      fp << backends::to_string(id) << '=' << cfg.blocks << 'x' << cfg.threads;
    }
    obs::set_postmortem_context("tuning", fp.str());
  }

  board.set_phase(prank, "solve");
  watch.reset();
  // The one solve path: auto-resume from the newest checkpoint that
  // verifies and matches this problem (a no-op when checkpointing is
  // off), then step to completion, sealing on the cadence.
  resilience::CheckpointManager manager(config.checkpoint);
  core::LsqrEngine engine(generated.A, lsqr);
  // The engine solves on its own device copy and keeps no pointer into
  // the host system, and the report already holds its sizes: free it.
  generated = {};
  report.resumed_from_iteration = engine.use_checkpoints(manager);
  engine.run_to_completion();
  report.result = engine.result();
  report.result.resumed_from_iteration = report.resumed_from_iteration;
  report.checkpoints_written = manager.written();
  report.solve_seconds = watch.elapsed_s();
  finish_observability(gen_cfg, lsqr, report);
  return report;
}

}  // namespace

SolverRunReport run_solver(const SolverRunConfig& config) {
  // Satellite fix (ISSUE 10): the exit-time snapshot used to be sealed
  // only on the normal path — this guard seals it while *unwinding*, so
  // an SdcError/failover-exhaustion abort still leaves the armed
  // snapshot on disk (the postmortem bundle links against it).
  struct UnwindSeal {
    ~UnwindSeal() {
      if (std::uncaught_exceptions() > 0) obs::flush_global_snapshot();
    }
  } unwind_seal;
  try {
    SolverRunReport report = run_solver_impl(config);
    obs::flight_event("state", "solver.done",
                      std::to_string(report.result.iterations) +
                          " iterations, stop: " +
                          to_string(report.result.istop));
    return report;
  } catch (const resilience::SdcError& e) {
    obs::flight_event("fault", "solver.sdc_unrepaired", e.what());
    obs::flush_postmortem({"sdc-unrepaired", e.what(),
                           obs::ProgressBoard::thread_rank(), 1});
    throw;
  } catch (const std::exception& e) {
    obs::flight_event("fault", "solver.exception", e.what());
    obs::flush_postmortem({"exception", e.what(),
                           obs::ProgressBoard::thread_rank(), 1});
    throw;
  }
}

std::string SolverRunReport::summary() const {
  std::ostringstream os;
  os << "system: " << n_obs << " observations + " << n_constraints
     << " constraints x " << layout.n_unknowns() << " unknowns ("
     << layout.n_stars() << " stars), footprint "
     << util::format_bytes(system_bytes) << ", generated in "
     << util::format_seconds(generation_seconds) << '\n';
  os << "solve:  " << result.iterations << " iterations, stop: \""
     << to_string(result.istop) << "\"\n";
  if (autotune_enabled) {
    os << "tuning: ";
    if (autotune_cache_hit)
      os << "loaded " << kernels_tuned
         << " kernel shape(s) from cache (search skipped)";
    else if (tuning_trials > 0)
      os << "autotuned " << kernels_tuned << " kernel(s) in "
         << tuning_trials << " trial launch(es)";
    else
      os << "backend ignores launch shapes; nothing to tune";
    os << '\n';
  }
  os << "        mean iteration time "
     << util::format_seconds(result.mean_iteration_s) << ", total solve "
     << util::format_seconds(solve_seconds) << '\n';
  os << "        "
     << format_estimates(result.anorm, result.acond, result.rnorm,
                         result.arnorm, result.xnorm)
     << '\n';
  if (pennycook_kernels > 0)
    os << "perf:   Pennycook P=" << pennycook_p << " over "
       << pennycook_kernels
       << " kernel(s) (model-predicted / measured p50, best-normalized)\n";
  if (!roofline.empty())
    os << metrics::roofline_table(roofline, roofline_machine);
  if (!metrics_snapshot_path.empty())
    os << "        metrics snapshot: " << metrics_snapshot_path << '\n';
  if (trace_dropped_events > 0)
    os << "        trace: " << trace_dropped_events
       << " event(s) dropped by the capacity cap (sliding window)\n";
  if (resumed_from_iteration >= 0 || checkpoints_written > 0 ||
      result.failovers > 0) {
    os << "resilience:";
    if (resumed_from_iteration >= 0)
      os << " resumed from iteration " << resumed_from_iteration << ",";
    if (checkpoints_written > 0)
      os << " wrote " << checkpoints_written << " checkpoint(s),";
    os << " finished on backend "
       << backends::to_string(result.final_backend);
    if (result.failovers > 0)
      os << " after " << result.failovers << " failover(s)";
    os << '\n';
  }
  if (result.health.mode != resilience::HealthMode::kOff) {
    os << "health: mode " << resilience::to_string(result.health.mode)
       << ", " << result.health.checks << " deep check(s), "
       << result.health.detections << " detection(s), "
       << result.health.repairs << " repair(s)";
    if (result.health.first_detection_iteration >= 0)
      os << "; first detection at iteration "
         << result.health.first_detection_iteration;
    os << '\n';
    if (!result.health.last_diagnosis.empty())
      os << "        last diagnosis: " << result.health.last_diagnosis
         << '\n';
  }
  return os.str();
}

}  // namespace gaia::core
