/// \file bench_e2e.cpp
/// \brief End-to-end solve benchmark: four workloads, five end-to-end
/// metrics plus the error rate, and an outside-in per-layer trace.
///
/// One process runs one workload (`--workload NAME`), so the peak RSS it
/// reports belongs to that workload alone. Two modes:
///
///  * `--trace 0` (end to end): solves back to back through the public
///    entry points — `core::run_solver`, or `matrix::generate_system`
///    followed by `dist::dist_lsqr_solve` — with library defaults except
///    where the workload says otherwise, until `--seconds` have passed.
///    No tracing is on. After the window every solve is checked against
///    oracles that do not trust the solver's own estimates.
///  * `--trace 1` (per layer): drives each layer through its public
///    functions on the same inputs, timing the calls from outside. Spans
///    come from this file only (the library's global trace recorder stays
///    off) and are written as a Chrome trace, validated with
///    `obs::validate_trace`, and folded into a self-time table.
///
/// The last line of standard output is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// `--selftest` checks the harness arithmetic and runs 2 MiB instances of
/// every workload in both modes. Exit codes: 0 all checks passed, 1 a
/// check failed, 2 bad usage or an unexpected error.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "backends/backend.hpp"
#include "backends/device_buffer.hpp"
#include "backends/scratch_arena.hpp"
#include "core/aprod.hpp"
#include "core/kernel_catalog.hpp"
#include "core/lsqr_engine.hpp"
#include "core/solver.hpp"
#include "core/system_view.hpp"
#include "core/vector_ops.hpp"
#include "dist/comm.hpp"
#include "dist/dist_lsqr.hpp"
#include "matrix/generator.hpp"
#include "matrix/layouted_system.hpp"
#include "obs/trace.hpp"
#include "obs/trace_merge.hpp"
#include "resilience/checkpoint.hpp"
#include "tuning/kernel_registry.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/string_utils.hpp"

namespace {

using namespace gaia;
namespace fs = std::filesystem;
using backends::BackendKind;
using backends::KernelId;

constexpr double kBytesPerMiB = 1024.0 * 1024.0;
/// Simulated device capacity for every Aprod/engine this harness builds:
/// large enough never to refuse a workload, like the solver's default.
constexpr byte_size kDeviceCapacity = 64 * kGiB;
/// Step cap for the per-layer engine and dist runs of the fixed-iteration
/// workloads: enough steps for a deep health check (default cadence 25)
/// and stable step medians, few enough to keep the traced run short.
constexpr std::int64_t kLayerSteps = 30;
constexpr std::int64_t kCheckpointEvery = 10;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Api { kRunSolver, kDist };

struct Workload {
  std::string name;
  Api api = Api::kRunSolver;
  byte_size bytes = 0;
  BackendKind backend = BackendKind::kOpenMP;
  core::ScatterMode scatter = core::ScatterMode::kAtomic;
  std::int64_t iterations = 0;
  /// Ground-truth system solved to atol=btol=1e-15 with health repair and
  /// checkpoints; every solve of a run draws its own system from the seed
  /// (time-to-solution varies with the system, so a run reports the
  /// median over several).
  bool converge = false;
  int min_solves = 3;
};

/// The four workloads; README.md gives the reason for each and its size
/// against the reference host's caches (8 MiB L2 per core, 300 MiB L3).
std::vector<Workload> all_workloads() {
  std::vector<Workload> w(4);
  w[0].name = "solve-large";  // DRAM-resident, atomic scatter contention
  w[0].bytes = 384 * kMiB;
  w[0].iterations = 20;
  w[1].name = "solve-small";  // cache-resident, no contention
  w[1].bytes = 24 * kMiB;
  w[1].backend = BackendKind::kPstl;
  w[1].scatter = core::ScatterMode::kPrivatized;
  w[1].iterations = 300;
  w[2].name = "dist-3rank";  // the only Comm and dist_lsqr workload
  w[2].api = Api::kDist;
  w[2].bytes = 96 * kMiB;
  w[2].backend = BackendKind::kSerial;
  w[2].iterations = 100;
  w[3].name = "converge-ckpt";  // time to solution with writes
  w[3].bytes = 24 * kMiB;
  w[3].iterations = 400;
  w[3].converge = true;
  w[3].min_solves = 5;
  return w;
}

std::uint64_t solve_seed(const Workload& w, std::uint64_t seed, std::size_t k) {
  if (!w.converge || k == 0) return seed;
  return util::SplitMix64(seed + k).next();
}

matrix::GeneratorConfig generator_config(const Workload& w,
                                         std::uint64_t seed) {
  matrix::GeneratorConfig cfg = matrix::config_for_footprint(w.bytes, seed);
  if (w.converge) {
    cfg.rhs_mode = matrix::RhsMode::kFromGroundTruth;
    cfg.noise_sigma = 0;
  }
  return cfg;
}

/// Per-solve LSQR options with the library's default tuning table; the
/// scatter mode is resolved by run_solver itself.
core::LsqrOptions lsqr_options(const Workload& w) {
  core::LsqrOptions o;
  o.max_iterations = w.iterations;
  o.aprod.backend = w.backend;
  // dist-3rank runs one thread per rank (dist_options); its directly
  // driven layers match that. The aprod2 streams would add four threads.
  if (w.api == Api::kDist) o.aprod.use_streams = false;
  if (w.converge) {
    o.atol = 1e-15;
    o.btol = 1e-15;
    o.health.mode = resilience::HealthMode::kRepair;
  }
  return o;
}

/// The options run_solver resolves for this workload, for the layers
/// driven directly: a pinned privatized scatter is forced onto the three
/// atomic kernels the way the solver does it.
core::LsqrOptions resolved_options(const Workload& w) {
  core::LsqrOptions o = lsqr_options(w);
  if (w.scatter == core::ScatterMode::kPrivatized) {
    for (KernelId id : backends::all_kernels()) {
      if (!backends::kernel_uses_atomics(id)) continue;
      backends::KernelConfig cfg = o.aprod.tuning.get(id);
      cfg.strategy = backends::ScatterStrategy::kPrivatized;
      o.aprod.tuning.set(id, cfg);
    }
  }
  return o;
}

/// Three ranks, each one thread running serial kernels.
dist::DistLsqrOptions dist_options(const Workload& w,
                                   std::int64_t max_iterations) {
  dist::DistLsqrOptions o;
  o.n_ranks = 3;
  o.lsqr = lsqr_options(w);
  o.lsqr.aprod.backend = BackendKind::kSerial;
  o.lsqr.aprod.use_streams = false;
  o.lsqr.max_iterations = max_iterations;
  return o;
}

core::LsqrStop expected_stop(const Workload& w) {
  return w.converge ? core::LsqrStop::kAtolBtol
                    : core::LsqrStop::kIterationLimit;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kBytesPerMiB;
}

/// ||b - A x|| through a serial Aprod::apply1, with a compensated sum:
/// the oracle for LSQR's rnorm estimate.
double true_residual_norm(const matrix::SystemMatrix& A,
                          std::span<const real> x) {
  backends::DeviceContext device(kDeviceCapacity, "oracle");
  core::AprodOptions opts;
  opts.backend = BackendKind::kSerial;
  opts.use_streams = false;
  core::Aprod aprod(A, device, opts);
  std::vector<real> r(static_cast<std::size_t>(A.n_rows()), real{0});
  aprod.apply1(x, r);
  const auto b = A.known_terms();
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  return core::vnorm(r);
}

/// |<A x, y> - <x, A^T y>| / (||A x|| ||y||) for random x, y through the
/// given (resolved) Aprod configuration: the matrix-free adjoint oracle.
double adjoint_error(const matrix::SystemMatrix& A,
                     const core::AprodOptions& opts, std::uint64_t seed) {
  backends::DeviceContext device(kDeviceCapacity, "adjoint");
  core::Aprod aprod(A, device, opts);
  const auto m = static_cast<std::size_t>(A.n_rows());
  const auto n = static_cast<std::size_t>(A.n_cols());
  util::Xoshiro256 rng(seed ^ 0xad701u);
  std::vector<real> x(n), y(m), ax(m, real{0}), aty(n, real{0});
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();
  aprod.apply1(x, ax);
  aprod.apply2(y, aty);
  const double lhs = core::vdot(ax, y);
  const double rhs = core::vdot(x, aty);
  return ratio(std::abs(lhs - rhs), core::vnorm(ax) * core::vnorm(y));
}

bool all_finite(std::span<const real> v) {
  return std::all_of(v.begin(), v.end(),
                     [](real e) { return std::isfinite(e); });
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Checks {
  int passed = 0;
  std::vector<std::string> failures;

  bool require(bool ok, const std::string& what) {
    if (ok)
      ++passed;
    else
      failures.push_back(what);
    return ok;
  }
};

struct RunResult {
  std::vector<Metric> metrics;
  Checks checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_result(const std::string& workload, const RunResult& r) {
  std::cout << "checks: " << r.checks.passed << " passed, "
            << r.checks.failures.size() << " failed\n";
  for (const std::string& f : r.checks.failures)
    std::cout << "  FAILED: " << f << '\n';
  std::cout << "error_rate: "
            << ratio(static_cast<double>(r.failed),
                     static_cast<double>(r.attempted))
            << " ratio (" << r.failed << " of " << r.attempted
            << " LSQR iterations)\n";
  for (const Metric& m : r.metrics)
    std::cout << "  " << workload << ' ' << std::left << std::setw(30)
              << m.name << ' ' << std::setprecision(6) << m.value << ' '
              << m.unit << '\n';
  std::ostringstream js;
  js << std::setprecision(12);
  js << "{\"correct\": " << (r.checks.failures.empty() ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    js << (i ? ", " : "") << '"' << json_escape(m.name)
       << "\": {\"value\": " << (std::isfinite(m.value) ? m.value : 0.0)
       << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

// ---------------------------------------------------------------------------
// End-to-end run
// ---------------------------------------------------------------------------

struct SolveOutcome {
  std::uint64_t seed = 0;
  double wall_s = 0;
  std::vector<double> iteration_seconds;
  std::int64_t iterations = 0;
  core::LsqrStop istop = core::LsqrStop::kIterationLimit;
  std::vector<real> x;
  real rnorm = 0;
  /// Aprod options the solve resolved to (the adjoint oracle's config).
  core::AprodOptions aprod;
  /// Repairs (single process) or restarts (dist) the solve needed.
  std::uint64_t recoveries = 0;
  std::string error;
};

/// One solve through the public entry point, timed from outside.
SolveOutcome run_one_solve(const Workload& w, std::uint64_t seed,
                           const fs::path& scratch) {
  SolveOutcome out;
  out.seed = seed;
  const matrix::GeneratorConfig gen = generator_config(w, seed);
  try {
    if (w.api == Api::kRunSolver) {
      core::SolverRunConfig cfg;
      cfg.generator = gen;
      cfg.seed = seed;
      cfg.lsqr = lsqr_options(w);
      cfg.scatter = w.scatter;
      fs::path ckpt_dir;
      if (w.converge) {
        // A fresh directory per solve: run_solver resumes from any
        // checkpoint it finds, and this solve must start from zero.
        ckpt_dir = scratch / ("ckpt-" + std::to_string(seed));
        fs::remove_all(ckpt_dir);
        cfg.checkpoint.directory = ckpt_dir.string();
        cfg.checkpoint.every = kCheckpointEvery;
        cfg.checkpoint.keep_last = 3;
      }
      util::Stopwatch watch;
      core::SolverRunReport report = core::run_solver(cfg);
      out.wall_s = watch.elapsed_s();
      if (!ckpt_dir.empty()) fs::remove_all(ckpt_dir);
      out.iteration_seconds = report.result.iteration_seconds;
      out.iterations = report.result.iterations;
      out.istop = report.result.istop;
      out.x = std::move(report.result.x);
      out.rnorm = report.result.rnorm;
      out.aprod = cfg.lsqr.aprod;
      out.aprod.tuning = report.tuning_used;
      out.recoveries = report.result.health.repairs;
    } else {
      const dist::DistLsqrOptions opts = dist_options(w, w.iterations);
      util::Stopwatch watch;
      const matrix::GeneratedSystem system = matrix::generate_system(gen);
      dist::DistLsqrResult result = dist::dist_lsqr_solve(system.A, opts);
      out.wall_s = watch.elapsed_s();
      out.iteration_seconds = result.iteration_seconds;
      out.iterations = result.iterations;
      out.istop = result.istop;
      out.x = std::move(result.x);
      out.rnorm = result.rnorm;
      out.aprod = opts.lsqr.aprod;
      out.recoveries = static_cast<std::uint64_t>(result.restarts) +
                       result.health.repairs;
    }
  } catch (const std::exception& e) {
    out.error = e.what();
    out.iterations = w.iterations;
  }
  return out;
}

/// The correctness oracles of one solve, on its system regenerated from
/// its seed (generation is deterministic). True when all of them pass.
bool check_solve(const Workload& w, const SolveOutcome& s,
                 const matrix::GeneratedSystem& system, Checks& checks) {
  const std::string tag = w.name + " seed " + std::to_string(s.seed) + ": ";
  const matrix::SystemMatrix& A = system.A;
  bool ok = checks.require(s.error.empty(), tag + "solve threw: " + s.error);
  if (!ok) return false;
  ok &= checks.require(s.istop == expected_stop(w),
                       tag + "stop reason " + core::to_string(s.istop) +
                           ", expected " + core::to_string(expected_stop(w)));
  ok &= checks.require(s.recoveries == 0,
                       tag + std::to_string(s.recoveries) +
                           " repair(s)/restart(s) on a fault-free run");
  ok &= checks.require(
      s.x.size() == static_cast<std::size_t>(A.n_cols()) && all_finite(s.x),
      tag + "x is not a finite vector of n_cols entries");
  if (s.x.size() != static_cast<std::size_t>(A.n_cols())) return false;

  const double bnorm = core::vnorm(A.known_terms());
  const double true_rnorm = true_residual_norm(A, s.x);
  ok &= checks.require(
      std::abs(true_rnorm - s.rnorm) <= 1e-9 * bnorm,
      tag + "serial ||b-Ax|| " + std::to_string(true_rnorm) +
          " disagrees with LSQR rnorm " + std::to_string(s.rnorm));
  const double adj = adjoint_error(A, s.aprod, s.seed);
  ok &= checks.require(adj <= 1e-12, tag + "adjoint identity off by " +
                                         std::to_string(adj) + " (relative)");
  if (w.converge) {
    GAIA_CHECK(system.ground_truth.has_value(), "no ground truth");
    const auto n_astro =
        static_cast<std::size_t>(A.layout().n_astro_params());
    double max_dx = 0;
    for (std::size_t j = 0; j < n_astro; ++j)
      max_dx = std::max(max_dx, std::abs(s.x[j] - (*system.ground_truth)[j]));
    ok &= checks.require(max_dx <= kAccuracyGoalRad,
                         tag + "max|dx_astro| " +
                             std::to_string(max_dx / kMicroArcsecInRad) +
                             " uas exceeds 10 uas");
  }
  return ok;
}

RunResult run_e2e(const Workload& w, std::uint64_t seed, double seconds,
                  const fs::path& scratch) {
  std::vector<SolveOutcome> solves;
  util::Stopwatch window;
  while (static_cast<int>(solves.size()) < w.min_solves ||
         window.elapsed_s() < seconds)
    solves.push_back(
        run_one_solve(w, solve_seed(w, seed, solves.size()), scratch));
  const double window_s = window.elapsed_s();
  const double rss = peak_rss_mib();

  RunResult r;
  std::vector<double> pooled, walls, setups;
  std::int64_t min_iters = solves.front().iterations, max_iters = min_iters;
  for (const SolveOutcome& s : solves) {
    min_iters = std::min(min_iters, s.iterations);
    max_iters = std::max(max_iters, s.iterations);
    double iter_sum = 0;
    for (double t : s.iteration_seconds) {
      pooled.push_back(t * 1e3);
      iter_sum += t;
    }
    walls.push_back(s.wall_s);
    setups.push_back(s.wall_s - iter_sum);
  }

  // Oracles after the window, one regenerated system at a time.
  std::map<std::uint64_t, std::vector<const SolveOutcome*>> by_seed;
  for (const SolveOutcome& s : solves) by_seed[s.seed].push_back(&s);
  for (const auto& [s_seed, group] : by_seed) {
    const matrix::GeneratedSystem system =
        matrix::generate_system(generator_config(w, s_seed));
    for (const SolveOutcome* s : group) {
      r.attempted += static_cast<std::uint64_t>(s->iterations);
      if (!check_solve(w, *s, system, r.checks))
        r.failed += static_cast<std::uint64_t>(s->iterations);
    }
  }
  r.checks.require(!pooled.empty(), w.name + ": no timed iteration");

  std::cout << "workload " << w.name << ": " << solves.size()
            << " solve(s) of " << min_iters << ".." << max_iters
            << " iterations, " << pooled.size() << " timed iteration(s), "
            << util::format_seconds(window_s) << " window\n";
  r.metrics = {
      {"iter_ms_p50", util::percentile(pooled, 50), "ms"},
      {"iter_ms_p75", util::percentile(pooled, 75), "ms"},
      {"wall_s", util::median(walls), "s"},
      {"setup_s", util::median(setups), "s"},
      {"peak_rss_mib", rss, "MiB"},
  };
  return r;
}

// ---------------------------------------------------------------------------
// Spans and self time
// ---------------------------------------------------------------------------

/// RAII span on a bench-owned recorder. stop() records the span once and
/// returns its duration in seconds, measured on the recorder's clock.
class Span {
 public:
  Span(obs::TraceRecorder& rec, const char* name, const char* layer,
       std::int32_t tid = obs::TraceRecorder::kMainTrack)
      : rec_(&rec), name_(name), layer_(layer), tid_(tid),
        start_us_(rec.now_us()) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double stop() {
    if (!open_) return seconds_;
    open_ = false;
    const double end_us = rec_->now_us();
    seconds_ = (end_us - start_us_) * 1e-6;
    rec_->complete(name_, layer_, start_us_, end_us - start_us_, tid_);
    return seconds_;
  }

 private:
  obs::TraceRecorder* rec_;
  std::string name_;
  const char* layer_;
  std::int32_t tid_;
  double start_us_;
  bool open_ = true;
  double seconds_ = 0;
};

struct SelfTime {
  std::string name;
  std::size_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

/// Per span name: count, total and self time, where a span's self time is
/// its duration minus the part its direct children cover. Spans on one
/// track nest or are disjoint (obs::validate_trace enforces it), so the
/// direct children of a span never overlap each other.
std::vector<SelfTime> self_times(const std::vector<obs::TraceEvent>& events) {
  constexpr double kTolUs = 0.5;
  std::map<std::int32_t, std::vector<const obs::TraceEvent*>> tracks;
  for (const obs::TraceEvent& e : events)
    if (e.phase == 'X') tracks[e.tid].push_back(&e);
  std::map<std::string, SelfTime> by_name;
  for (auto& [tid, spans] : tracks) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
                       if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                       return a->dur_us > b->dur_us;
                     });
    std::vector<double> covered(spans.size(), 0.0);
    std::vector<std::size_t> open;  // indices of enclosing spans
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const obs::TraceEvent* s = spans[i];
      while (!open.empty() && spans[open.back()]->ts_us +
                                      spans[open.back()]->dur_us <=
                                  s->ts_us + kTolUs)
        open.pop_back();
      if (!open.empty()) covered[open.back()] += s->dur_us;
      open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SelfTime& t = by_name[spans[i]->name];
      t.name = spans[i]->name;
      ++t.count;
      t.total_us += spans[i]->dur_us;
      t.self_us += std::max(0.0, spans[i]->dur_us - covered[i]);
    }
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_us > b.self_us;
  });
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer run
// ---------------------------------------------------------------------------

double median_ms(const std::vector<double>& seconds) {
  return util::median(seconds) * 1e3;
}

/// What every layer shares: the workload and its resolved options, the
/// system with random operands, the span recorder and the result sink.
struct LayerRun {
  const Workload& w;
  const core::LsqrOptions opts;
  const matrix::SystemMatrix& A;
  std::vector<real> x;  ///< random, n_cols
  std::vector<real> y;  ///< random, n_rows
  obs::TraceRecorder& rec;
  RunResult& r;

  void metric(std::string name, double value, std::string unit) {
    r.metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Checks a solve the layer drove and counts its iterations.
  void record_solve(bool ok, std::int64_t iterations,
                    const std::string& what) {
    r.checks.require(ok, w.name + ": " + what);
    r.attempted += static_cast<std::uint64_t>(iterations);
    if (!ok) r.failed += static_cast<std::uint64_t>(iterations);
  }
};

struct AprodTimes {
  double apply1_ms = 0;
  double apply2_ms = 0;
};

/// core/aprod: construction (device upload), warm apply1/apply2, computed
/// bandwidth, scratch-arena misses after warm-up, and a serial baseline.
AprodTimes layer_aprod(LayerRun& L) {
  Span layer(L.rec, "layer.aprod", "aprod");
  const auto m = L.y.size(), n = L.x.size();
  AprodTimes times;
  std::vector<real> out1(m, real{0}), out2(n, real{0});
  {
    backends::DeviceContext device(kDeviceCapacity, "bench");
    std::optional<core::Aprod> aprod;
    {
      Span s(L.rec, "aprod.ctor", "aprod");
      aprod.emplace(L.A, device, L.opts.aprod);
      L.metric("aprod.setup_s", s.stop(), "s");
    }
    L.metric("aprod.h2d_mib",
             static_cast<double>(device.h2d_bytes()) / kBytesPerMiB, "MiB");
    for (int i = 0; i < 2; ++i) {  // warm-up: arena fill, first touch
      aprod->apply1(L.x, out1);
      aprod->apply2(L.y, out2);
    }
    const std::uint64_t misses_before = aprod->scratch_arena().misses();
    std::vector<double> t1, t2;
    for (int i = 0; i < 9; ++i) {
      {
        Span s(L.rec, "aprod.apply1", "aprod");
        aprod->apply1(L.x, out1);
        t1.push_back(s.stop());
      }
      {
        Span s(L.rec, "aprod.apply2", "aprod");
        aprod->apply2(L.y, out2);
        t2.push_back(s.stop());
      }
    }
    std::uint64_t bytes1 = 0, bytes2 = 0;
    for (KernelId id : backends::all_kernels()) {
      const backends::KernelConfig cfg = L.opts.aprod.tuning.get(id);
      (id < KernelId::kAprod2Astro ? bytes1 : bytes2) +=
          core::kernel_traffic_bytes(aprod->view(), id, cfg.layout,
                                     cfg.precision);
    }
    times.apply1_ms = median_ms(t1);
    times.apply2_ms = median_ms(t2);
    L.metric("aprod.apply1_ms_p50", times.apply1_ms, "ms");
    L.metric("aprod.apply2_ms_p50", times.apply2_ms, "ms");
    L.metric("aprod.apply1_gbs",
             ratio(bytes1 * 1e-9, times.apply1_ms * 1e-3), "GB/s");
    L.metric("aprod.apply2_gbs",
             ratio(bytes2 * 1e-9, times.apply2_ms * 1e-3), "GB/s");
    L.metric("aprod.arena_misses_warm",
             static_cast<double>(aprod->scratch_arena().misses() -
                                 misses_before),
             "count");
  }

  // Plain single-threaded baseline on the same system.
  core::AprodOptions serial_opts;
  serial_opts.backend = BackendKind::kSerial;
  serial_opts.use_streams = false;
  backends::DeviceContext device(kDeviceCapacity, "serial");
  core::Aprod serial(L.A, device, serial_opts);
  std::vector<double> pair;
  for (int i = 0; i < 3; ++i) {
    Span s(L.rec, "aprod.serial_pair", "aprod");
    serial.apply1(L.x, out1);
    serial.apply2(L.y, out2);
    pair.push_back(s.stop());
  }
  L.metric("aprod.serial_speedup",
           ratio(median_ms(pair), times.apply1_ms + times.apply2_ms),
           "ratio");
  return times;
}

/// tuning: every kernel through KernelRegistry::launch on the resolved
/// config, and on each storage layout for the layout ratios. Each layout
/// gets a warm-up launch and the rounds rotate the layout order, so
/// neither warm-up nor position favours a layout.
void layer_kernels(LayerRun& L) {
  Span layer(L.rec, "layer.kernels", "tuning");
  core::ensure_kernel_catalog();
  core::SystemView view = core::SystemView::from(L.A);
  matrix::LayoutedSystem layouts(L.A);
  layouts.build(backends::StorageLayout::kSlicedInstr);  // implies SoA
  view.attach_layout(layouts);
  const tuning::KernelRegistry& registry = tuning::KernelRegistry::global();
  backends::ScratchArena arena;
  std::vector<real> out1(L.y.size(), real{0}), out2(L.x.size(), real{0});
  constexpr int kLayouts = backends::kNumStorageLayouts;
  for (KernelId id : backends::all_kernels()) {
    const std::string kname = backends::to_string(id);
    const bool gather = id < KernelId::kAprod2Astro;
    tuning::LaunchArgs args;
    args.view = &view;
    args.in = gather ? L.x.data() : L.y.data();
    args.out = gather ? out1.data() : out2.data();
    args.config = L.opts.aprod.tuning.get(id);
    args.arena = &arena;
    const backends::KernelConfig resolved = args.config;
    std::vector<std::vector<double>> samples(kLayouts);
    for (int l = 0; l < kLayouts; ++l) {
      args.config.layout = static_cast<backends::StorageLayout>(l);
      registry.launch(id, L.opts.aprod.backend, args);
    }
    for (int round = 0; round < 7; ++round) {
      for (int k = 0; k < kLayouts; ++k) {
        const int l = (round + k) % kLayouts;
        args.config.layout = static_cast<backends::StorageLayout>(l);
        const std::string span_name =
            "kernel." + kname + "." + backends::to_string(args.config.layout);
        Span s(L.rec, span_name.c_str(), "tuning");
        registry.launch(id, L.opts.aprod.backend, args);
        samples[static_cast<std::size_t>(l)].push_back(s.stop());
      }
    }
    const double seed_ms = median_ms(samples[0]);
    const double ms =
        median_ms(samples[static_cast<std::size_t>(resolved.layout)]);
    const std::uint64_t bytes = core::kernel_traffic_bytes(
        view, id, resolved.layout, resolved.precision);
    L.metric("kernel." + kname + ".ms_p50", ms, "ms");
    L.metric("kernel." + kname + ".gbs", ratio(bytes * 1e-9, ms * 1e-3),
             "GB/s");
    L.metric("kernel." + kname + ".soa_ratio",
             ratio(median_ms(samples[1]), seed_ms), "ratio");
    L.metric("kernel." + kname + ".sliced_ratio",
             ratio(median_ms(samples[2]), seed_ms), "ratio");
  }
}

/// core/vector_ops: the BLAS-1 calls and reductions one LSQR iteration
/// issues, at the iteration's vector lengths. Returns their median (ms).
double layer_vector_ops(LayerRun& L) {
  Span layer(L.rec, "layer.vector_ops", "vector_ops");
  const BackendKind be = L.opts.aprod.backend;
  const auto n = L.x.size();
  std::vector<real> u(L.y), v(L.x), wv(L.x), xs(n, real{0}), var(n, real{0});
  std::vector<double> iter_t, norm_t;
  real sink = 0;
  for (int i = 0; i < 30; ++i) {
    {
      Span s(L.rec, "vec.iteration_ops", "vector_ops");
      core::vscale(be, u, real{-0.5});
      sink += core::vnorm(u);
      core::vscale(be, u, real{2});
      core::vscale(be, v, real{-0.5});
      sink += core::vnorm(v);
      core::vscale(be, v, real{2});
      core::vaccumulate_sq(be, var, real{1e-3}, wv);
      sink += core::vdot(wv, wv);
      core::vaxpy(be, xs, real{1e-3}, wv);
      core::vxpby(be, wv, v, real{-0.5});
      iter_t.push_back(s.stop());
    }
    {
      Span s(L.rec, "vec.norm", "vector_ops");
      sink += core::vnorm(u);
      norm_t.push_back(s.stop());
    }
  }
  L.metric("vec.ms_per_iter", median_ms(iter_t), "ms");
  L.metric("vec.norm_ms", median_ms(norm_t), "ms");
  L.r.checks.require(std::isfinite(sink), L.w.name + ": vector ops finite");
  return median_ms(iter_t);
}

/// backends: fork/join cost of an empty launch on the workload backend.
void layer_backends(LayerRun& L) {
  Span layer(L.rec, "layer.backends", "backends");
  std::vector<double> t;
  for (int i = 0; i < 2000; ++i) {
    util::Stopwatch watch;
    backends::dispatch(L.opts.aprod.backend, [](auto exec) {
      decltype(exec)::launch(64, {}, [](std::int64_t) {});
    });
    t.push_back(watch.elapsed_s());
  }
  L.metric("backends.launch_us", util::median(t) * 1e6, "us");
}

/// Outcome of one LsqrEngine run driven step by step from outside.
struct EngineRun {
  double ctor_s = 0;
  std::vector<double> traced_s;    ///< steps recorded as spans
  std::vector<double> untraced_s;  ///< steps timed without a span
  std::vector<double> seal_s;
  double ckpt_mib = 0;
  core::LsqrResult result;

  [[nodiscard]] double total_step_s() const {
    double s = 0;
    for (const auto* v : {&traced_s, &untraced_s})
      for (double t : *v) s += t;
    return s;
  }
};

/// Runs an engine to completion, timing every step from outside. Steps
/// get spans, or with `alternate` only every other step, so that traced
/// and untraced steps interleave in time and share the host's noise.
/// With a checkpoint directory the state is sealed every
/// kCheckpointEvery iterations the way run_solver does it.
EngineRun drive_engine(const matrix::SystemMatrix& A,
                       const core::LsqrOptions& opts, obs::TraceRecorder& rec,
                       bool alternate, const fs::path& ckpt_dir) {
  EngineRun run;
  std::optional<core::LsqrEngine> engine;
  {
    Span s(rec, "lsqr.engine_ctor", "lsqr_engine");
    engine.emplace(A, opts);
    run.ctor_s = s.stop();
  }
  std::optional<resilience::CheckpointManager> manager;
  if (!ckpt_dir.empty())
    manager.emplace(resilience::CheckpointConfig{
        ckpt_dir.string(), "bench", kCheckpointEvery, 3});
  for (bool more = true; more;) {
    if (alternate && engine->iteration() % 2 == 0) {
      util::Stopwatch watch;
      more = engine->step();
      run.untraced_s.push_back(watch.elapsed_s());
    } else {
      Span s(rec, "lsqr.step", "lsqr_engine");
      more = engine->step();
      run.traced_s.push_back(s.stop());
    }
    if (manager && manager->due(engine->iteration())) {
      Span seal(rec, "ckpt.seal", "resilience");
      std::ostringstream payload(std::ios::binary);
      {
        Span s(rec, "ckpt.serialize", "resilience");
        engine->checkpoint(payload);
      }
      {
        Span s(rec, "ckpt.write", "resilience");
        manager->write(engine->iteration(), payload.view());
      }
      run.seal_s.push_back(seal.stop());
      run.ckpt_mib = static_cast<double>(payload.view().size()) / kBytesPerMiB;
    }
  }
  run.result = engine->result();
  return run;
}

/// core/lsqr_engine, resilience and obs: two engine runs on the same
/// options. The first has health off, traces every other step and seals
/// checkpoints; its two halves give the tracing overhead. The second has
/// health on (the workload's mode, else detect) and traces every step;
/// its summed step time against the first's gives the health overhead.
void layer_engine(LayerRun& L, const AprodTimes& aprod, double vec_ms,
                  const fs::path& scratch) {
  Span layer(L.rec, "layer.lsqr_engine", "lsqr_engine");
  core::LsqrOptions off = L.opts;
  if (!L.w.converge) off.max_iterations = kLayerSteps;
  off.health = {};
  core::LsqrOptions on = L.opts;
  on.max_iterations = off.max_iterations;
  if (!on.health.enabled()) on.health.mode = resilience::HealthMode::kDetect;

  const fs::path ckpt_dir = scratch / "layer-ckpt";
  fs::remove_all(ckpt_dir);
  const EngineRun base = drive_engine(L.A, off, L.rec, true, ckpt_dir);
  fs::remove_all(ckpt_dir);
  const EngineRun health = drive_engine(L.A, on, L.rec, false, {});

  const double step_ms = median_ms(base.traced_s);
  L.metric("lsqr.engine_setup_s", base.ctor_s, "s");
  L.metric("lsqr.step_ms_p50", step_ms, "ms");
  L.metric("lsqr.aprod_share",
           ratio(aprod.apply1_ms + aprod.apply2_ms, step_ms), "ratio");
  L.metric("lsqr.unattributed_ms",
           step_ms - aprod.apply1_ms - aprod.apply2_ms - vec_ms, "ms");
  L.metric("lsqr.iterations", static_cast<double>(health.result.iterations),
           "count");
  L.metric("ckpt.seal_ms", median_ms(base.seal_s), "ms");
  L.metric("ckpt.mib", base.ckpt_mib, "MiB");
  L.metric("ckpt.seals", static_cast<double>(base.seal_s.size()), "count");
  L.metric("health.overhead_frac",
           ratio(health.total_step_s(), base.total_step_s()) - 1.0, "ratio");
  L.metric("health.repairs",
           static_cast<double>(health.result.health.repairs), "count");
  L.metric("trace.overhead_frac",
           ratio(step_ms, median_ms(base.untraced_s)) - 1.0, "ratio");

  for (const EngineRun* run : {&base, &health}) {
    const core::LsqrResult& res = run->result;
    L.record_solve(res.istop == expected_stop(L.w) && all_finite(res.x) &&
                      res.health.repairs == 0,
                  res.iterations,
                  "engine run stopped " + core::to_string(res.istop) +
                      " with " + std::to_string(res.health.repairs) +
                      " repair(s)");
  }
}

/// dist: an allreduce of n_cols doubles across three ranks, then a
/// 3-rank solve whose comm accounting gives the per-iteration rows.
void layer_dist(LayerRun& L) {
  Span layer(L.rec, "layer.dist", "dist");
  const auto n = L.x.size();
  std::vector<double> t;
  {
    Span s(L.rec, "dist.world_run", "dist");
    dist::World world(3);
    world.run([&](dist::Comm& comm) {
      std::vector<real> buf(n, real{1});
      for (int i = 0; i < 33; ++i) {
        std::optional<Span> span;  // rank 0 only, after three warm-ups
        if (comm.rank() == 0 && i >= 3)
          span.emplace(L.rec, "comm.allreduce", "dist", 1000);
        comm.allreduce(buf, dist::ReduceOp::kSum);
        std::fill(buf.begin(), buf.end(), real{1});
        if (span) t.push_back(span->stop());
      }
    });
  }
  const double ar_ms = median_ms(t);
  L.metric("comm.allreduce_ms_p50", ar_ms, "ms");
  L.metric("comm.allreduce_gbs",
           ratio(static_cast<double>(n * sizeof(real)) * 1e-9, ar_ms * 1e-3),
           "GB/s");

  dist::DistLsqrResult res;
  {
    Span s(L.rec, "dist.dist_lsqr_solve", "dist");
    res = dist::dist_lsqr_solve(
        L.A, dist_options(L.w, L.w.converge ? L.w.iterations : kLayerSteps));
  }
  const double iters = static_cast<double>(res.iterations);
  double bytes = 0, collectives = 0;
  if (!res.rank_metrics.empty()) {
    for (const obs::MetricRow& row : res.rank_metrics.front()) {
      if (row.name == "dist.rank.comm.bytes") bytes = row.sum;
      if (row.name == "dist.rank.comm.collectives") collectives = row.sum;
    }
  }
  row_index max_rows = 0, total_rows = 0;
  for (int k = 0; k < res.partition.n_ranks; ++k) {
    max_rows = std::max(max_rows, res.partition.rows_of(k));
    total_rows += res.partition.rows_of(k);
  }
  L.metric("comm.ms_per_iter", ratio(res.comm_seconds_max * 1e3, iters), "ms");
  L.metric("comm.wait_frac",
           ratio(res.comm_wait_seconds_max, res.comm_seconds_max), "ratio");
  L.metric("comm.exposure", res.comm_exposure_fraction_max, "ratio");
  L.metric("comm.bytes_per_iter", ratio(bytes, iters), "B");
  L.metric("comm.collectives_per_iter", ratio(collectives, iters), "count");
  L.metric("dist.rows_imbalance",
           ratio(static_cast<double>(max_rows) * res.partition.n_ranks,
                 static_cast<double>(total_rows)),
           "ratio");
  L.record_solve(res.istop == expected_stop(L.w) && all_finite(res.x) &&
                    res.restarts == 0,
                res.iterations,
                "3-rank solve stopped " + core::to_string(res.istop));
}

RunResult run_layers(const Workload& w, std::uint64_t seed,
                     const fs::path& scratch, const std::string& trace_path) {
  obs::TraceRecorder rec;
  rec.set_enabled(true);
  rec.name_track(1000, "dist rank 0");
  RunResult r;
  {
    Span workload_span(rec, "workload", "bench");
    std::optional<matrix::GeneratedSystem> gen;
    double generate_s = 0;
    {
      Span s(rec, "matrix.generate_system", "matrix");
      gen.emplace(matrix::generate_system(generator_config(w, seed)));
      generate_s = s.stop();
    }
    LayerRun L{w, resolved_options(w), gen->A, {}, {}, rec, r};
    L.metric("matrix.generate_s", generate_s, "s");
    L.metric("matrix.system_mib",
             static_cast<double>(gen->A.footprint_bytes()) / kBytesPerMiB,
             "MiB");
    util::Xoshiro256 rng(seed ^ 0x1a7e5u);
    L.x.resize(static_cast<std::size_t>(gen->A.n_cols()));
    L.y.resize(static_cast<std::size_t>(gen->A.n_rows()));
    for (auto& v : L.x) v = rng.normal();
    for (auto& v : L.y) v = rng.normal();

    const AprodTimes aprod = layer_aprod(L);
    layer_kernels(L);
    const double vec_ms = layer_vector_ops(L);
    layer_backends(L);
    layer_engine(L, aprod, vec_ms, scratch);
    layer_dist(L);
  }

  const std::vector<obs::TraceEvent> events = rec.events();
  std::cout << "self time by span (" << events.size() << " events):\n";
  for (const SelfTime& t : self_times(events))
    std::cout << "  " << std::left << std::setw(36) << t.name << std::right
              << std::setw(6) << t.count << " x  total " << std::setw(10)
              << std::setprecision(4) << t.total_us * 1e-3 << " ms  self "
              << std::setw(10) << t.self_us * 1e-3 << " ms\n";
  rec.write(trace_path);
  try {
    obs::validate_trace(obs::parse_trace_file(trace_path));
    r.checks.require(true, "trace");
    std::cout << "trace: " << trace_path << " (validated)\n";
  } catch (const std::exception& e) {
    r.checks.require(false, std::string("trace rejected: ") + e.what());
  }
  return r;
}

// ---------------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------------

int selftest(const fs::path& scratch) {
  Checks checks;
  const std::vector<double> xs = {4, 1, 3, 2};
  checks.require(util::percentile(xs, 50) == 2.5, "p50 of {1,2,3,4}");
  checks.require(util::percentile(xs, 75) == 3.25, "p75 of {1,2,3,4}");

  // parent [0,100) with children [10,30) and [40,90); the second child
  // has a grandchild [50,60); a span on another track never counts.
  auto span = [](const char* name, double ts, double dur, std::int32_t tid) {
    obs::TraceEvent e;
    e.name = name;
    e.ts_us = ts;
    e.dur_us = dur;
    e.tid = tid;
    return e;
  };
  const std::vector<obs::TraceEvent> events = {
      span("child", 40, 50, 0), span("parent", 0, 100, 0),
      span("grandchild", 50, 10, 0), span("child", 10, 20, 0),
      span("other", 5, 90, 7)};
  std::map<std::string, SelfTime> st;
  for (const SelfTime& t : self_times(events)) st[t.name] = t;
  checks.require(st["parent"].self_us == 30, "parent self time 30");
  checks.require(st["child"].count == 2 && st["child"].total_us == 70 &&
                     st["child"].self_us == 60,
                 "child self time 60 over 2 spans");
  checks.require(st["grandchild"].self_us == 10, "grandchild self time 10");
  checks.require(st["other"].self_us == 90, "other track self time 90");

  // Every workload at 2 MiB, both modes, checks on.
  bool runs_ok = true;
  for (Workload w : all_workloads()) {
    w.bytes = 2 * kMiB;
    w.min_solves = 2;
    if (!w.converge) w.iterations = std::min<std::int64_t>(w.iterations, 40);
    std::cout << "--- selftest " << w.name << " (2 MiB)\n";
    const RunResult e2e = run_e2e(w, 1746, 0.0, scratch);
    const RunResult layers = run_layers(
        w, 1746, scratch, (scratch / (w.name + ".trace.json")).string());
    for (const RunResult* r : {&e2e, &layers}) {
      for (const std::string& f : r->checks.failures)
        std::cout << "  FAILED: " << f << '\n';
      runs_ok &= r->checks.failures.empty() && r->failed == 0;
    }
    checks.require(e2e.metrics.size() == 5 && layers.metrics.size() == 64,
                   w.name + ": metric count");
  }
  checks.require(runs_ok, "2 MiB workload runs");

  // The residual oracle must catch a wrong solution, and be the only
  // check that does.
  Workload w = all_workloads()[1];
  w.bytes = 2 * kMiB;
  w.iterations = 20;
  SolveOutcome s = run_one_solve(w, 7, scratch);
  for (real& v : s.x) v *= 1.001;
  Checks probe;
  const bool ok = check_solve(
      w, s, matrix::generate_system(generator_config(w, 7)), probe);
  checks.require(!ok && probe.failures.size() == 1 &&
                     probe.failures[0].find("rnorm") != std::string::npos,
                 "residual oracle rejects a perturbed solution");

  for (const std::string& f : checks.failures)
    std::cout << "selftest FAILED: " << f << '\n';
  std::cout << "selftest: " << checks.passed << " passed, "
            << checks.failures.size() << " failed\n";
  return checks.failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_e2e",
                "End-to-end solve benchmark (one workload per process)");
  cli.add_option("workload", "", "solve-large | solve-small | dist-3rank | "
                                 "converge-ckpt");
  cli.add_option("seed", "1746", "generator seed");
  cli.add_option("seconds", "10", "measurement window (end-to-end mode)");
  cli.add_option("trace", "0",
                 "0 = end-to-end metrics, 1 = per-layer metrics + trace");
  cli.add_option("trace-file", "bench_e2e.trace.json",
                 "Chrome trace written by --trace 1");
  cli.add_option("scratch", "bench_e2e.tmp",
                 "directory for checkpoints and selftest traces");
  cli.add_flag("selftest", "check the harness and run 2 MiB workloads");
  // A fixed mmap threshold maps every large buffer fresh and returns it
  // on free (glibc otherwise raises the threshold after the first free
  // and serves later systems from a fragmenting heap). Each solve then
  // starts from the same memory state, and peak RSS measures the largest
  // live set instead of fragmentation left by earlier solves.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  try {
    if (!cli.parse(argc, argv)) return 0;
    const fs::path scratch = cli.get("scratch");
    fs::create_directories(scratch);
    if (cli.get_flag("selftest")) return selftest(scratch);

    const std::string name = cli.get("workload");
    const std::vector<Workload> workloads = all_workloads();
    const auto it =
        std::find_if(workloads.begin(), workloads.end(),
                     [&](const Workload& w) { return w.name == name; });
    GAIA_CHECK(it != workloads.end(), "unknown --workload '" + name + "'");
    const long long seed = cli.get_int("seed");
    GAIA_CHECK(seed >= 0, "--seed must be non-negative");
    const double seconds = cli.get_double("seconds");
    GAIA_CHECK(seconds >= 0 && seconds <= 3600, "--seconds out of range");
    const std::string trace = cli.get("trace");
    GAIA_CHECK(trace == "0" || trace == "1", "--trace must be 0 or 1");

    const RunResult r =
        trace == "1"
            ? run_layers(*it, static_cast<std::uint64_t>(seed), scratch,
                         cli.get("trace-file"))
            : run_e2e(*it, static_cast<std::uint64_t>(seed), seconds, scratch);
    print_result(name, r);
    return r.checks.failures.empty() && r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << '\n';
    return 2;
  }
}
