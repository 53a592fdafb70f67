/// \file perf_baseline.hpp
/// \brief Benchmark baselines and the perf-regression gate.
///
/// A baseline file (`BENCH_<name>.json`, plain human-diffable JSON — no
/// CRC framing, these live in git and get reviewed) records the median
/// launch time of each (kernel, backend, strategy) series a benchmark
/// measured. `perf_gate` compares a new run against a stored baseline
/// and fails when any series slowed down beyond the tolerance — the
/// contract behind the `gaia-perfgate` CLI and the CI perf-gate job.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gaia::metrics {

/// One timed series of a benchmark run.
struct KernelTiming {
  std::string kernel;    ///< "aprod1_astro", ... (catalog region name)
  std::string backend;   ///< "serial" | "openmp" | "pstl" | "gpusim"
  /// "privatized" | "none" ("atomic" in baselines sealed while the
  /// atomic commit existed).
  std::string strategy;
  /// Storage-layout label: "seed_aos", the row records every series now
  /// runs on. Defaulted on parse so baselines sealed before the layout
  /// axis existed stay loadable; baselines sealed while it existed may
  /// carry the retired layouts' names.
  std::string layout = "seed_aos";
  /// Storage-precision label: "fp64", the records every series reads.
  /// Defaulted the same way; baselines sealed while the precision axis
  /// existed may carry the reduced precisions' names.
  std::string precision = "fp64";
  double median_seconds = 0;
  std::uint64_t samples = 0;
};

/// A named set of kernel timings, as stored in BENCH_<name>.json.
struct PerfBaseline {
  static constexpr int kVersion = 1;
  std::string name;
  std::vector<KernelTiming> kernels;

  /// Series lookup by identity; nullptr when absent.
  [[nodiscard]] const KernelTiming* find(
      const std::string& kernel, const std::string& backend,
      const std::string& strategy, const std::string& layout = "seed_aos",
      const std::string& precision = "fp64") const;

  [[nodiscard]] std::string to_json() const;
};

/// Parses a baseline JSON document; throws gaia::Error on malformed
/// input or a version mismatch.
PerfBaseline parse_baseline(const std::string& json);

/// File I/O (throws gaia::Error on open/parse/write failure).
PerfBaseline load_baseline(const std::string& path);
void save_baseline(const std::string& path, const PerfBaseline& baseline);

/// Gate policy: `tolerance` is the allowed fractional slowdown (0.25 =
/// a series may be up to 25 % slower before it counts as a regression).
struct GateOptions {
  double tolerance = 0.25;
  /// Accept series present in the baseline but missing from the new
  /// run (default: a vanished series fails the gate — a benchmark that
  /// silently stopped measuring a kernel must not pass).
  bool allow_missing = false;
};

/// One series-level verdict of the gate.
struct GateFinding {
  std::string kernel, backend, strategy, layout, precision;
  double old_seconds = 0;
  double new_seconds = 0;
  double ratio = 0;  ///< new / old (0 when the series is missing)
};

struct GateReport {
  bool pass = true;
  std::vector<GateFinding> regressions;   ///< ratio > 1 + tolerance
  std::vector<GateFinding> improvements;  ///< ratio < 1 / (1 + tolerance)
  std::vector<GateFinding> missing;       ///< in baseline, not in new run
  /// Human-readable verdict (one line per finding + a summary line).
  [[nodiscard]] std::string to_string() const;
};

/// Compares `next` against `base`. Series only present in `next` are
/// ignored (new kernels are not regressions).
GateReport perf_gate(const PerfBaseline& base, const PerfBaseline& next,
                     const GateOptions& options = {});

}  // namespace gaia::metrics
