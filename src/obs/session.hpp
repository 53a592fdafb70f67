/// \file session.hpp
/// \brief One-line enablement of tracing/metrics for binaries.
///
/// The paper's measurement flow is "run the solver under nsys, open the
/// timeline". Ours is:
///
///   $ ./gaia_solver --trace trace.json --metrics metrics.csv ...
///
/// A `Session` placed at the top of main() takes the output paths the
/// binary's command line resolved, arms the global recorder/registry,
/// and writes the output files when it goes out of scope. Three metric
/// outputs exist: the CSV (`--metrics`), an OpenMetrics exposition
/// (`--metrics-openmetrics`), and a CRC-sealed JSON snapshot
/// (`--metrics-snapshot`) that is also re-sealed on every checkpoint
/// via the global snapshot sink.
#pragma once

#include <memory>
#include <string>

namespace gaia::obs {

class TelemetrySampler;

/// The continuous-telemetry half of a session (PR 10): live JSONL
/// sampling, the stderr progress line, periodic snapshot re-sealing and
/// the postmortem bundle directory. All off by default; the sampler
/// thread starts only when one of the first three is requested.
struct SessionExtras {
  std::string telemetry_path;   ///< JSONL stream (--telemetry-file)
  bool progress_stderr = false; ///< live \r progress/ETA line
  double metrics_every_s = 0;   ///< periodic snapshot seal (0 = off)
  std::string postmortem_dir;   ///< arm obs::flush_postmortem ("" = off)
};

/// RAII enablement + flush of the global TraceRecorder/MetricsRegistry.
/// Empty paths leave the corresponding subsystem untouched, so an
/// un-instrumented run stays at the one-relaxed-load cost. Construction
/// always calls MetricsRegistry::reset_all(): a later solver run in the
/// same process must not inherit stale gauges (`scratch.arena.*`, ...)
/// from a previous one.
class Session {
 public:
  /// Explicit paths (CLI flags). Empty string = off.
  Session(std::string trace_path, std::string metrics_path,
          std::string openmetrics_path = "", std::string snapshot_path = "",
          SessionExtras extras = {});

  /// Writes the outputs and disables collection. Errors are reported to
  /// stderr, never thrown (runs from destructors).
  ~Session();

  /// Write/refresh the output files now (outputs stay armed).
  void flush();

  [[nodiscard]] bool tracing() const { return !trace_path_.empty(); }
  /// True when any metrics output (CSV, OpenMetrics or snapshot) is
  /// armed — i.e. the registry is collecting.
  [[nodiscard]] bool metrics() const {
    return !metrics_path_.empty() || !openmetrics_path_.empty() ||
           !snapshot_path_.empty();
  }
  [[nodiscard]] const std::string& trace_path() const { return trace_path_; }
  [[nodiscard]] const std::string& metrics_path() const {
    return metrics_path_;
  }
  [[nodiscard]] const std::string& openmetrics_path() const {
    return openmetrics_path_;
  }
  [[nodiscard]] const std::string& snapshot_path() const {
    return snapshot_path_;
  }
  [[nodiscard]] const SessionExtras& extras() const { return extras_; }
  /// The sampler thread this session owns (nullptr when no telemetry,
  /// progress line or periodic seal was requested).
  [[nodiscard]] TelemetrySampler* sampler() const { return sampler_.get(); }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::string openmetrics_path_;
  std::string snapshot_path_;
  SessionExtras extras_;
  std::unique_ptr<TelemetrySampler> sampler_;
};

}  // namespace gaia::obs
