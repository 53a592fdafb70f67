/// \file gaia_solver.cpp
/// \brief The `solvergaiaSim` analog: generates a dataset of a requested
/// size in GB from a seed, runs the LSQR for a fixed number of
/// iterations on the selected backend, and reports the average iteration
/// time — the paper's measurement binary.
///
///   $ ./gaia_solver --size 64MB --iterations 100 --backend gpusim
///   $ ./gaia_solver --size 128MB --backend openmp --scatter privatized
///   $ ./gaia_solver --size 32MB --backend serial --ranks 4
///   $ ./gaia_solver --trace trace.json --metrics metrics.csv
///   $ ./gaia_solver --ranks 3 --trace-dir traces && gaia-critpath \
///         traces/trace.merged.json
///   $ GAIA_TRACE=trace.json GAIA_METRICS=metrics.csv ./gaia_solver
///   $ ./gaia_solver --checkpoint-dir ckpt --checkpoint-every 20
///   $ GAIA_FAULTS='kernel:p=0.01' ./gaia_solver --backend gpusim
#include <iostream>

#include "core/solver.hpp"
#include "dist/dist_lsqr.hpp"
#include "metrics/roofline.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "perfmodel/gpu_spec.hpp"
#include "resilience/fault_injector.hpp"
#include "util/cli.hpp"
#include "util/profiler.hpp"
#include "util/stats.hpp"
#include "util/string_utils.hpp"

int main(int argc, char** argv) {
  using namespace gaia;
  util::Cli cli("gaia_solver",
                "AVU-GSR LSQR solver on a seeded synthetic dataset");
  cli.add_option("size", "64MB",
                 "target system footprint (host-resident; use the "
                 "perf-model benches for the paper's 10-60GB sizes)");
  cli.add_option("iterations", "100", "LSQR iterations (no early stop)");
  cli.add_option("backend", "gpusim",
                 "serial | openmp | pstl | gpusim (aliases: cuda, hip, "
                 "sycl, stdpar, omp)");
  cli.add_option("seed", "1746", "dataset seed");
  cli.add_option("ranks", "1", "simulated MPI ranks (>1 uses dist solver)");
  cli.add_flag("untuned", "use naive 256x256 kernel shapes");
  cli.add_flag("autotune",
               "search (blocks, threads) per kernel during warm-up "
               "launches and run the solve with the winners");
  cli.add_option("tuning-cache", "",
                 "CRC-sealed tuning cache file: loaded on startup (a "
                 "complete entry skips the search), winners sealed back "
                 "after a fresh search");
  cli.add_option("scatter", "atomic",
                 "aprod2 scatter strategy: atomic (hardware atomics, "
                 "default) | privatized (contention-free per-worker "
                 "slices + tree reduction) | auto (measured with "
                 "--autotune, cost-model predicted otherwise)");
  cli.add_option("layout", "seed",
                 "kernel storage layout: seed (row-record AoS, default) "
                 "| soa (cache-blocked SoA streams) | sliced (SoA + "
                 "slice-sorted instrumental block) | auto (measured with "
                 "--autotune, cost-model predicted otherwise); also "
                 "honored via GAIA_LAYOUT");
  cli.add_option("precision", "fp64",
                 "coefficient storage precision: fp64 (seed planes, "
                 "default) | fp32 | bf16s (truncated fp32) | auto "
                 "(measured with --autotune, cost-model predicted "
                 "otherwise); reduced precisions arm FP64 iterative "
                 "refinement after the solve; also honored via "
                 "GAIA_PRECISION");
  cli.add_option("refine-max", "6",
                 "outer refinement corrections before falling back to a "
                 "full fp64 re-solve");
  cli.add_option("shape", "",
                 "force one BLOCKSxTHREADS launch shape for all kernels "
                 "(e.g. 64x128); validated at parse time");
  cli.add_flag("validate", "solve from a ground truth and report recovery");
  cli.add_flag("profile",
               "collect and print the per-kernel time breakdown (the "
               "nsys/rocprof-style view of paper SV-A)");
  cli.add_option("trace", "",
                 "write a Chrome/Perfetto kernel timeline here (also "
                 "honored via GAIA_TRACE)");
  cli.add_option("trace-dir", "",
                 "distributed tracing (with --ranks > 1): write one "
                 "trace.rank<N>.json per rank plus a clock-aligned "
                 "trace.merged.json into this directory; feed the merged "
                 "file to gaia-critpath for critical-path / comm-exposure "
                 "analysis");
  cli.add_option("trace-capacity", "0",
                 "event cap per trace buffer; past it the oldest events "
                 "are dropped (sliding window; 0 = default 1M; also "
                 "honored via GAIA_TRACE_CAPACITY for --trace)");
  cli.add_option("metrics", "",
                 "write transfer/atomic/convergence counters as CSV here "
                 "(also honored via GAIA_METRICS; format switchable with "
                 "GAIA_METRICS_FMT=csv|openmetrics|json)");
  cli.add_option("metrics-openmetrics", "",
                 "write the per-kernel counters as an OpenMetrics text "
                 "exposition here (also honored via "
                 "GAIA_METRICS_OPENMETRICS)");
  cli.add_option("metrics-snapshot", "",
                 "write a CRC-sealed JSON metrics snapshot here, "
                 "refreshed on every checkpoint (also honored via "
                 "GAIA_METRICS_SNAPSHOT)");
  cli.add_option("telemetry-file", "",
                 "stream live JSONL telemetry samples (solver progress, "
                 "ETA, headline metrics) here; also honored via "
                 "GAIA_TELEMETRY");
  cli.add_option("telemetry-every-ms", "0",
                 "sampling period in milliseconds (0 = default 250; "
                 "also honored via GAIA_TELEMETRY_EVERY_MS)");
  cli.add_flag("progress",
               "live single-line progress/ETA display on stderr "
               "(also honored via GAIA_PROGRESS=1)");
  cli.add_option("metrics-every-s", "0",
                 "re-seal the --metrics-snapshot file every N seconds "
                 "while solving (0 = off; also honored via "
                 "GAIA_METRICS_EVERY_S)");
  cli.add_option("postmortem-dir", "",
                 "arm the flight recorder: any failure escaping the "
                 "solver seals a postmortem bundle into this directory "
                 "(read it with gaia-postmortem; also honored via "
                 "GAIA_POSTMORTEM)");
  cli.add_option("faults", "",
                 "deterministic fault-injection spec, e.g. "
                 "'kernel:p=0.01;h2d:p=0.005;rank:iter=200,rank=1;"
                 "ckpt:truncate' (also honored via GAIA_FAULTS)");
  cli.add_option("fault-seed", "1746",
                 "seed of the fault-injection decision stream (also "
                 "honored via GAIA_FAULT_SEED)");
  cli.add_option("checkpoint-every", "0",
                 "seal a checkpoint every N iterations (0 = off)");
  cli.add_option("checkpoint-dir", "",
                 "directory for the checkpoint rotation; resumes from "
                 "the newest valid checkpoint found there");
  cli.add_option("checkpoint-keep", "3", "checkpoints kept on disk");
  cli.add_option("max-restarts", "3",
                 "rank-death recoveries allowed (dist solver)");
  cli.add_option("health", "",
                 "silent-data-corruption defense: off (default) | detect "
                 "(stop with a diagnosis on an invariant trip) | repair "
                 "(roll back to a validated snapshot and replay, bounded "
                 "by the repair budget); also honored via GAIA_HEALTH");
  cli.add_option("health-every", "0",
                 "deep-check cadence in iterations (segment checksums, "
                 "true-residual recompute, cross-rank state hash); 0 = "
                 "default 25; also honored via GAIA_HEALTH_EVERY");
  try {
    if (!cli.parse(argc, argv)) return 0;

    // Arms tracing/metrics when requested; flushed at scope exit.
    obs::SessionExtras extras;
    extras.telemetry_path = cli.get("telemetry-file");
    extras.telemetry_every_ms =
        static_cast<int>(cli.get_int("telemetry-every-ms"));
    extras.progress_stderr = cli.get_flag("progress");
    extras.metrics_every_s = cli.get_double("metrics-every-s");
    extras.postmortem_dir = cli.get("postmortem-dir");
    obs::Session obs_session = obs::Session::from_env(
        cli.get("trace"), cli.get("metrics"), cli.get("metrics-openmetrics"),
        cli.get("metrics-snapshot"), extras);
    const auto trace_capacity =
        static_cast<std::size_t>(cli.get_int("trace-capacity"));
    if (trace_capacity > 0)
      obs::TraceRecorder::global().set_capacity(trace_capacity);

    // Arm deterministic fault injection (flag wins over GAIA_FAULTS).
    resilience::FaultInjector::global().configure_from_env(
        cli.get("faults"),
        static_cast<std::uint64_t>(cli.get_int("fault-seed")));

    const auto backend = backends::parse_backend(cli.get("backend"));
    GAIA_CHECK(backend.has_value(), "unknown backend: " + cli.get("backend"));

    core::SolverRunConfig config;
    config.footprint_bytes = cli.get_size("size");
    config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    config.lsqr.aprod.backend = *backend;
    config.lsqr.aprod.tuning =
        cli.get_flag("untuned") ? backends::TuningTable::untuned()
                                : backends::TuningTable::tuned_default();
    if (!cli.get("shape").empty())
      config.lsqr.aprod.tuning = backends::TuningTable::untuned(
          backends::parse_kernel_config(cli.get("shape")));
    config.autotune.enabled = cli.get_flag("autotune");
    config.autotune.cache_path = cli.get("tuning-cache");
    const auto scatter = core::parse_scatter_mode(cli.get("scatter"));
    GAIA_CHECK(scatter.has_value(),
               "unknown scatter mode: " + cli.get("scatter"));
    config.scatter = *scatter;
    std::string layout_source;
    const std::string layout_name =
        cli.get_or_env("layout", "GAIA_LAYOUT", &layout_source);
    const auto layout_mode = core::parse_layout_mode(layout_name);
    GAIA_CHECK(layout_mode.has_value(), "unknown layout mode (from " +
                                            layout_source +
                                            "): " + layout_name);
    config.storage_layout = *layout_mode;
    // Precision shares the layout grammar shape: flag wins over
    // GAIA_PRECISION wins over the default, and a bad token's error
    // names where the token actually came from.
    std::string precision_source;
    const std::string precision_name =
        cli.get_or_env("precision", "GAIA_PRECISION", &precision_source);
    const auto precision_mode = core::parse_precision_mode(precision_name);
    GAIA_CHECK(precision_mode.has_value(), "unknown precision mode (from " +
                                               precision_source +
                                               "): " + precision_name);
    config.precision = *precision_mode;
    config.refine.max_corrections =
        static_cast<int>(cli.get_int("refine-max"));
    config.lsqr.max_iterations = cli.get_int("iterations");
    config.checkpoint.directory = cli.get("checkpoint-dir");
    config.checkpoint.every = cli.get_int("checkpoint-every");
    config.checkpoint.keep_last =
        static_cast<int>(cli.get_int("checkpoint-keep"));
    if (config.checkpoint.every > 0 && config.checkpoint.directory.empty())
      config.checkpoint.directory = "gaia-checkpoints";
    config.lsqr.health = resilience::health_config_from_env(
        cli.get("health"), cli.get_int("health-every"));

    if (cli.get_flag("validate")) {
      auto gen_cfg =
          matrix::config_for_footprint(config.footprint_bytes, config.seed);
      gen_cfg.rhs_mode = matrix::RhsMode::kFromGroundTruth;
      gen_cfg.noise_sigma = 1e-6;
      config.generator = gen_cfg;
    }

    if (cli.get_flag("profile")) {
      util::Profiler::global().reset();
      util::Profiler::global().set_enabled(true);
    }

    const int ranks = static_cast<int>(cli.get_int("ranks"));
    std::cout << "backend: " << backends::to_string(*backend)
              << ", ranks: " << ranks << "\n";

    if (ranks <= 1) {
      const core::SolverRunReport report = core::run_solver(config);
      std::cout << report.summary();
      std::cout << "        median iteration time "
                << util::format_seconds(
                       util::median(report.result.iteration_seconds))
                << '\n';
      std::cout << "device:  "
                << util::format_bytes(report.result.device_allocated_bytes)
                << " resident, "
                << util::format_bytes(report.result.h2d_bytes)
                << " H2D (one-time, before the iteration loop)\n";
    } else {
      auto gen_cfg = config.generator.value_or(
          matrix::config_for_footprint(config.footprint_bytes, config.seed));
      matrix::GeneratedSystem gen = matrix::generate_system(gen_cfg);
      dist::DistLsqrOptions dopts;
      dopts.n_ranks = ranks;
      dopts.lsqr = config.lsqr;
      dopts.checkpoint = config.checkpoint;
      dopts.max_restarts = static_cast<int>(cli.get_int("max-restarts"));
      dopts.autotune = config.autotune.enabled;
      dopts.autotune_search = config.autotune.search;
      dopts.trace_dir = cli.get("trace-dir");
      dopts.trace_capacity = trace_capacity;
      // Mirror the single-rank scatter policy: rank 0's winners (incl.
      // the strategy) are broadcast via the encoded tuning table.
      if (config.scatter == core::ScatterMode::kPrivatized) {
        for (backends::KernelId id : backends::all_kernels()) {
          if (!backends::kernel_uses_atomics(id)) continue;
          backends::KernelConfig kcfg = dopts.lsqr.aprod.tuning.get(id);
          kcfg.strategy = backends::ScatterStrategy::kPrivatized;
          dopts.lsqr.aprod.tuning.set(id, kcfg);
        }
        dopts.autotune_search.scatter =
            backends::ScatterStrategy::kPrivatized;
      } else if (config.scatter == core::ScatterMode::kAuto) {
        dopts.autotune_search.scatter = std::nullopt;
      }
      // Same mirroring for the layout policy: force a pinned derived
      // layout into every rank's table, open the search axis for auto.
      if (config.storage_layout == core::LayoutMode::kAuto) {
        dopts.autotune_search.layout = std::nullopt;
      } else if (config.storage_layout != core::LayoutMode::kSeed) {
        const backends::StorageLayout forced =
            config.storage_layout == core::LayoutMode::kSoa
                ? backends::StorageLayout::kSoaTiled
                : backends::StorageLayout::kSlicedInstr;
        for (backends::KernelId id : backends::all_kernels()) {
          backends::KernelConfig kcfg = dopts.lsqr.aprod.tuning.get(id);
          kcfg.layout = forced;
          dopts.lsqr.aprod.tuning.set(id, kcfg);
        }
        dopts.autotune_search.layout = forced;
      }
      // And for the precision policy: rank 0's winners carry the
      // precision field through the 5-real encoded broadcast.
      if (config.precision == core::PrecisionMode::kAuto) {
        dopts.autotune_search.precision = std::nullopt;
      } else if (config.precision != core::PrecisionMode::kFp64) {
        const backends::Precision forced =
            config.precision == core::PrecisionMode::kFp32
                ? backends::Precision::kFp32
                : backends::Precision::kBf16s;
        for (backends::KernelId id : backends::all_kernels()) {
          backends::KernelConfig kcfg = dopts.lsqr.aprod.tuning.get(id);
          kcfg.precision = forced;
          dopts.lsqr.aprod.tuning.set(id, kcfg);
        }
        dopts.autotune_search.precision = forced;
      }
      const dist::DistLsqrResult result = dist::dist_lsqr_solve(gen.A, dopts);
      std::cout << "dist solve: " << result.iterations
                << " iterations on " << result.final_ranks << " ranks\n"
                << "  mean iteration time (max over ranks): "
                << util::format_seconds(result.mean_iteration_s) << '\n'
                << "  |r| = " << result.rnorm << '\n';
      if (result.restarts > 0)
        std::cout << "  resilience: " << result.restarts
                  << " restart(s) after rank death, resumed from iteration "
                  << result.resumed_from_iteration << ", "
                  << result.checkpoints_written << " checkpoint(s) sealed\n";
      if (result.health.mode != resilience::HealthMode::kOff) {
        std::cout << "  health: mode "
                  << resilience::to_string(result.health.mode) << ", "
                  << result.health.checks << " deep check(s), "
                  << result.health.detections << " detection(s), "
                  << result.health.repairs << " repair(s)\n";
        if (!result.health.last_diagnosis.empty())
          std::cout << "          last diagnosis: "
                    << result.health.last_diagnosis << '\n';
      }
      for (int r = 0; r < result.final_ranks; ++r)
        std::cout << "  rank " << r << ": " << result.partition.rows_of(r)
                  << " rows, " << result.partition.stars_of(r) << " stars\n";
      std::cout << "  cluster metrics: " << result.cluster_metrics.size()
                << " row(s), "
                << (result.cluster_metrics_complete ? "complete"
                                                    : "partial")
                << " aggregation over " << result.rank_metrics.size()
                << " rank(s)\n";
      std::cout << "  comm (worst rank): "
                << util::format_seconds(result.comm_seconds_max)
                << " in collectives ("
                << util::format_seconds(result.comm_wait_seconds_max)
                << " barrier wait), exposure "
                << result.comm_exposure_fraction_max << '\n';
      // Roofline placement over the cluster-aggregated kernel rows (the
      // dist driver already published the matching gauges).
      {
        const perfmodel::GpuSpec spec =
            perfmodel::gpu_spec(perfmodel::Platform::kA100);
        const metrics::RooflineMachine machine{
            spec.name, spec.peak_bw_gbs, spec.fp64_tflops * 1000.0,
            spec.spmv_bw_efficiency};
        const std::string table = metrics::roofline_table(
            metrics::roofline_points(obs::MetricsRegistry::global().snapshot(),
                                     machine),
            machine);
        if (!table.empty()) std::cout << table;
      }
      if (!result.merged_trace_file.empty()) {
        std::cout << "  trace: " << result.trace_files.size()
                  << " per-rank file(s) in " << dopts.trace_dir
                  << ", merged timeline " << result.merged_trace_file
                  << "\n         analyze with: gaia-critpath "
                  << result.merged_trace_file << '\n';
        if (result.trace_dropped_events > 0)
          std::cout << "         " << result.trace_dropped_events
                    << " event(s) dropped by the capacity cap\n";
      }
    }
    if (cli.get_flag("profile")) {
      std::cout << "\nper-region time breakdown (all ranks):\n"
                << util::Profiler::global().report();
      std::cout << "aprod share: "
                << util::Profiler::global().fraction_of("aprod") * 100
                << " % (paper SV-A: the products dominate)\n";
      util::Profiler::global().set_enabled(false);
    }
    if (obs_session.tracing())
      std::cout << "trace timeline: " << obs_session.trace_path()
                << " (open in chrome://tracing or ui.perfetto.dev)\n";
    if (!obs_session.metrics_path().empty())
      std::cout << "metrics:        " << obs_session.metrics_path() << '\n';
    if (!obs_session.openmetrics_path().empty())
      std::cout << "openmetrics:    " << obs_session.openmetrics_path()
                << '\n';
    if (!obs_session.snapshot_path().empty())
      std::cout << "snapshot:       " << obs_session.snapshot_path() << '\n';
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
