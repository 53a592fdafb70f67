/// \file gaia_solver.cpp
/// \brief The `solvergaiaSim` analog: generates a dataset of a requested
/// size in GB from a seed, runs the LSQR for a fixed number of
/// iterations on the selected backend, and reports the average iteration
/// time — the paper's measurement binary.
///
///   $ ./gaia_solver --size 64MB --iterations 100 --backend gpusim
///   $ ./gaia_solver --size 128MB --backend openmp --shape 8x1
///   $ ./gaia_solver --size 32MB --backend serial --ranks 4
///   $ ./gaia_solver --trace trace.json --metrics metrics.csv
///   $ ./gaia_solver --ranks 3 --trace-dir traces
///   $ gaia-critpath traces/trace.merged.json
///   $ ./gaia_solver --checkpoint-dir ckpt --checkpoint-every 20
///   $ ./gaia_solver --faults 'kernel:p=0.01' --backend gpusim
///
/// Every setting comes from the command line and resolves once, before
/// the solve: the run prints it as one `config:` line and seals the same
/// key/value pairs as the fingerprint of any postmortem bundle it
/// flushes. The environment sizes the shared pool (`GAIA_POOL_THREADS`)
/// and nothing else.
#include <algorithm>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "backends/thread_pool.hpp"
#include "core/lsqr_engine.hpp"
#include "core/solver.hpp"
#include "dist/dist_lsqr.hpp"
#include "metrics/roofline.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "perfmodel/gpu_spec.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/health_monitor.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"

namespace gaia {
namespace {

/// The --profile record, read back from the registry over all ranks: the
/// LSQR steps' layer rows, then the kernel launches' time rows, each as
/// a share of the summed step time.
void print_profile(std::ostream& os) {
  using util::Table;
  const std::vector<obs::MetricRow> rows =
      obs::MetricsRegistry::global().snapshot();
  const auto row = [&rows](const std::string& name) {
    const auto it = std::find_if(
        rows.begin(), rows.end(),
        [&name](const obs::MetricRow& r) { return r.name == name; });
    return it == rows.end() ? obs::MetricRow{} : *it;
  };
  std::vector<obs::MetricRow> layers;
  double whole = 0;
  for (const std::string_view layer : core::kLayerRows) {
    layers.push_back(row(core::layer_metric_name(layer)));
    whole += layers.back().sum;
  }
  const auto share = [whole](double seconds) {
    return Table::num(whole > 0 ? 100 * seconds / whole : 0, 1) + " %";
  };
  Table table({"row", "calls", "total (ms)", "share"});
  const auto add = [&](std::string name, const obs::MetricRow& r) {
    table.add_row({std::move(name), std::to_string(r.count),
                   Table::num(r.sum * 1e3), share(r.sum)});
  };
  for (std::size_t i = 0; i < layers.size(); ++i)
    add(std::string(core::kLayerRows[i]), layers[i]);
  for (const obs::MetricRow& r : rows)
    if (r.name.starts_with("kernel.") && r.name.ends_with(".time_seconds"))
      add(r.name, r);
  os << "\nlayer record of the LSQR steps (all ranks):\n"
     << table.str() << "aprod share: " << share(layers.front().sum)
     << " of the summed step time (the step row; paper SV-A finds the "
        "products dominate)\n";
}

/// An integer option of at least `min` (0 or 1), rejected in the form
/// of util::Cli's own parse errors: `option --seed must be a
/// non-negative integer: -1`.
long long int_at_least(const util::Cli& cli, const std::string& name,
                       long long min) {
  const long long value = cli.get_int(name);
  if (value < min)
    throw Error("option --" + name + " must be a " +
                (min > 0 ? "positive" : "non-negative") +
                " integer: " + cli.get(name));
  return value;
}

/// The resolved configuration: ordered key/value pairs, printed once
/// and sealed as the postmortem fingerprint.
using ConfigRecord = std::vector<std::pair<std::string, std::string>>;

/// The launch shape per kernel, e.g. "aprod1_astro=32x256 ...".
std::string tuning_string(const backends::TuningTable& tuning) {
  std::string out;
  for (backends::KernelId id : backends::all_kernels()) {
    const backends::KernelConfig cfg = tuning.get(id);
    if (!out.empty()) out += ' ';
    out += backends::to_string(id) + '=' + std::to_string(cfg.blocks) + 'x' +
           std::to_string(cfg.threads);
  }
  return out;
}

/// One `config:` line: `key=value` pairs, a value quoted as a JSON
/// string when it holds a space, a quote or a backslash.
std::string config_line(const ConfigRecord& record) {
  std::string line = "config:";
  for (const auto& [key, value] : record) {
    const bool plain = value.find_first_of(" \"\\") == std::string::npos;
    line += ' ' + key + '=' + (plain ? value : util::json_quote(value));
  }
  return line;
}

}  // namespace
}  // namespace gaia

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
  cli.add_option("shape", "",
                 "force one BLOCKSxTHREADS launch shape for all kernels "
                 "(e.g. 64x128); validated at parse time");
  cli.add_flag("validate", "solve from a ground truth and report recovery");
  cli.add_flag("profile",
               "print the LSQR steps' layer record and the kernel launch "
               "times (the nsys/rocprof-style view of paper SV-A)");
  cli.add_option("trace", "",
                 "write a Chrome/Perfetto kernel timeline here");
  cli.add_option("trace-dir", "",
                 "distributed tracing (with --ranks > 1): write one "
                 "trace.rank<N>.json per rank plus a clock-aligned "
                 "trace.merged.json into this directory; feed the merged "
                 "file to gaia-critpath for critical-path / comm-exposure "
                 "analysis");
  cli.add_option("trace-capacity",
                 std::to_string(obs::TraceRecorder::kDefaultCapacity),
                 "event cap per trace buffer; past it the oldest events "
                 "are dropped (sliding window)");
  cli.add_option("metrics", "",
                 "write transfer/atomic/convergence counters as CSV here");
  cli.add_option("metrics-openmetrics", "",
                 "write the per-kernel counters as an OpenMetrics text "
                 "exposition here");
  cli.add_option("metrics-snapshot", "",
                 "write a CRC-sealed JSON metrics snapshot here, "
                 "refreshed on every checkpoint");
  cli.add_option("telemetry-file", "",
                 "stream live JSONL telemetry samples (solver progress, "
                 "ETA, headline metrics) here");
  cli.add_flag("progress", "live single-line progress/ETA display on stderr");
  cli.add_option("metrics-every-s", "0",
                 "re-seal the --metrics-snapshot file every N seconds "
                 "while solving (0 = off)");
  cli.add_option("postmortem-dir", "",
                 "arm the flight recorder: any failure escaping the "
                 "solver seals a postmortem bundle into this directory "
                 "(read it with gaia-postmortem)");
  cli.add_option("faults", "",
                 "deterministic fault-injection spec, e.g. "
                 "'kernel:p=0.01;h2d:p=0.005;rank:iter=200,rank=1;"
                 "ckpt:truncate'; a 'seed=N' clause picks the decision "
                 "stream");
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
                 "by the repair budget)");
  cli.add_option("health-every",
                 std::to_string(resilience::HealthConfig{}.check_every),
                 "deep-check cadence in iterations (segment checksums, "
                 "true-residual recompute, cross-rank state hash)");
  try {
    if (!cli.parse(argc, argv)) return 0;

    // Every setting resolves here, once, into the configs the library
    // takes, and a value out of its domain is a user error where it
    // enters. Nothing below reads an option again.
    const auto backend = backends::parse_backend(cli.get("backend"));
    if (!backend)
      throw Error("option --backend must be serial, openmp, pstl or "
                  "gpusim: " + cli.get("backend"));
    const std::string health_name =
        cli.get("health").empty() ? "off" : cli.get("health");
    const auto health = resilience::parse_health_mode(health_name);
    if (!health)
      throw Error("option --health must be off, detect or repair: " +
                  health_name);
    const long long health_every = int_at_least(cli, "health-every", 1);
    const long long trace_capacity = int_at_least(cli, "trace-capacity", 1);
    const std::string fault_spec = cli.get("faults");
    const resilience::FaultSpec faults =
        resilience::parse_fault_spec(fault_spec);
    const int ranks = static_cast<int>(int_at_least(cli, "ranks", 1));
    const bool profile = cli.get_flag("profile");
    const unsigned pool_workers = backends::ThreadPool::global().workers();

    core::SolverRunConfig config;
    config.footprint_bytes = cli.get_size("size");
    config.seed = static_cast<std::uint64_t>(int_at_least(cli, "seed", 0));
    config.lsqr.aprod.backend = *backend;
    config.lsqr.aprod.tuning = backends::TuningTable::tuned_default();
    if (!cli.get("shape").empty())
      config.lsqr.aprod.tuning = backends::TuningTable::untuned(
          backends::parse_kernel_config(cli.get("shape")));
    config.lsqr.max_iterations = int_at_least(cli, "iterations", 1);
    config.lsqr.health.mode = *health;
    config.lsqr.health.check_every = health_every;
    config.checkpoint.directory = cli.get("checkpoint-dir");
    config.checkpoint.every = int_at_least(cli, "checkpoint-every", 0);
    config.checkpoint.keep_last =
        static_cast<int>(int_at_least(cli, "checkpoint-keep", 1));
    if (config.checkpoint.every > 0 && config.checkpoint.directory.empty())
      config.checkpoint.directory = "gaia-checkpoints";
    const bool validate = cli.get_flag("validate");
    if (validate) {
      auto gen_cfg =
          matrix::config_for_footprint(config.footprint_bytes, config.seed);
      gen_cfg.rhs_mode = matrix::RhsMode::kFromGroundTruth;
      gen_cfg.noise_sigma = 1e-6;
      config.generator = gen_cfg;
    }

    dist::DistLsqrOptions dopts;
    dopts.n_ranks = ranks;
    dopts.lsqr = config.lsqr;
    dopts.checkpoint = config.checkpoint;
    dopts.max_restarts =
        static_cast<int>(int_at_least(cli, "max-restarts", 0));
    dopts.trace_dir = cli.get("trace-dir");
    dopts.trace_capacity = static_cast<std::size_t>(trace_capacity);

    obs::SessionExtras extras;
    extras.telemetry_path = cli.get("telemetry-file");
    extras.progress_stderr = cli.get_flag("progress");
    extras.metrics_every_s = cli.get_double("metrics-every-s");
    if (!(extras.metrics_every_s >= 0))
      throw Error("option --metrics-every-s must be a non-negative "
                  "number: " + cli.get("metrics-every-s"));
    extras.postmortem_dir = cli.get("postmortem-dir");
    const std::string trace_path = cli.get("trace");
    const std::string metrics_path = cli.get("metrics");
    const std::string openmetrics_path = cli.get("metrics-openmetrics");
    const std::string snapshot_path = cli.get("metrics-snapshot");

    const auto or_off = [](const std::string& v) {
      return v.empty() ? std::string("off") : v;
    };
    ConfigRecord record = {
        {"backend", backends::to_string(*backend)},
        {"ranks", std::to_string(ranks)},
        {"size", std::to_string(config.footprint_bytes)},
        {"seed", std::to_string(config.seed)},
        {"iterations", std::to_string(config.lsqr.max_iterations)},
        {"validate", validate ? "on" : "off"},
        {"tuning", tuning_string(config.lsqr.aprod.tuning)},
        {"health", resilience::to_string(*health)},
        {"health_every", std::to_string(health_every)},
        {"checkpoint_every", std::to_string(config.checkpoint.every)},
        {"checkpoint_dir", or_off(config.checkpoint.directory)},
        {"checkpoint_keep", std::to_string(config.checkpoint.keep_last)},
        {"max_restarts", std::to_string(dopts.max_restarts)},
        {"faults", or_off(fault_spec)},
        {"pool_workers", std::to_string(pool_workers)},
        {"trace_capacity", std::to_string(trace_capacity)},
    };
    // The armed outputs only (per-rank traces exist only with ranks).
    const std::pair<const char*, std::string> outputs[] = {
        {"trace", trace_path},
        {"trace_dir", ranks > 1 ? dopts.trace_dir : ""},
        {"metrics", metrics_path},
        {"metrics_openmetrics", openmetrics_path},
        {"metrics_snapshot", snapshot_path},
        {"telemetry_file", extras.telemetry_path},
        {"progress", extras.progress_stderr ? "on" : ""},
        {"metrics_every_s", extras.metrics_every_s > 0
                                ? util::json_number(extras.metrics_every_s)
                                : ""},
        {"postmortem_dir", extras.postmortem_dir},
        {"profile", profile ? "on" : ""},
    };
    for (const auto& [key, value] : outputs)
      if (!value.empty()) record.emplace_back(key, value);

    // Arms tracing/metrics when requested; flushed at scope exit.
    obs::Session obs_session(trace_path, metrics_path, openmetrics_path,
                             snapshot_path, extras);
    obs::TraceRecorder::global().set_capacity(dopts.trace_capacity);
    resilience::FaultInjector::global().configure(faults);
    // After the session, whose constructor clears the fingerprint; the
    // solver adds the system's dimensions.
    for (const auto& [key, value] : record)
      obs::set_postmortem_context(key, value);
    // The profile is the registry's layer record: arm it, file or not.
    if (profile) obs::MetricsRegistry::global().set_enabled(true);
    std::cout << config_line(record) << '\n';

    if (ranks == 1) {
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
      const dist::DistLsqrResult result = dist::dist_lsqr_solve(gen.A, dopts);
      std::cout << "dist solve: " << result.iterations
                << " iterations on " << result.final_ranks << " ranks\n"
                << "  mean iteration time (max over ranks): "
                << util::format_seconds(result.mean_iteration_s) << '\n'
                << "  "
                << core::format_estimates(result.anorm, result.acond,
                                          result.rnorm, result.arnorm,
                                          result.xnorm)
                << '\n';
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
    if (profile) print_profile(std::cout);
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
