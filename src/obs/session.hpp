/// \file session.hpp
/// \brief One-line enablement of tracing/metrics for binaries.
///
/// The paper's measurement flow is "run the solver under nsys, open the
/// timeline". Ours is:
///
///   $ GAIA_TRACE=trace.json GAIA_METRICS=metrics.csv ./gaia_solver ...
///
/// A `Session` placed at the top of main() reads the environment (or
/// explicit CLI-provided paths), arms the global recorder/registry, and
/// writes the output files when it goes out of scope. Three metric
/// outputs exist: the CSV (`GAIA_METRICS`), an OpenMetrics exposition
/// (`--metrics-openmetrics` / `GAIA_METRICS_OPENMETRICS`), and a
/// CRC-sealed JSON snapshot (`--metrics-snapshot` /
/// `GAIA_METRICS_SNAPSHOT`) that is also re-sealed on every checkpoint
/// via the global snapshot sink.
#pragma once

#include <memory>
#include <string>

namespace gaia::obs {

class TelemetrySampler;

/// Environment variables honored by `Session::from_env()`.
inline constexpr const char* kTraceEnv = "GAIA_TRACE";
inline constexpr const char* kTraceCapacityEnv = "GAIA_TRACE_CAPACITY";
inline constexpr const char* kMetricsEnv = "GAIA_METRICS";
inline constexpr const char* kOpenMetricsEnv = "GAIA_METRICS_OPENMETRICS";
inline constexpr const char* kSnapshotEnv = "GAIA_METRICS_SNAPSHOT";
inline constexpr const char* kTelemetryEnv = "GAIA_TELEMETRY";
inline constexpr const char* kTelemetryEveryMsEnv = "GAIA_TELEMETRY_EVERY_MS";
inline constexpr const char* kProgressEnv = "GAIA_PROGRESS";
inline constexpr const char* kMetricsEverySEnv = "GAIA_METRICS_EVERY_S";
inline constexpr const char* kPostmortemEnv = "GAIA_POSTMORTEM";

/// The continuous-telemetry half of a session (PR 10): live JSONL
/// sampling, the stderr progress line, periodic snapshot re-sealing and
/// the postmortem bundle directory. All off by default; the sampler
/// thread starts only when one of the first four is requested.
struct SessionExtras {
  std::string telemetry_path;   ///< JSONL stream (--telemetry-file)
  int telemetry_every_ms = 0;   ///< 0 = env/default (250 ms)
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

  /// Paths from GAIA_TRACE / GAIA_METRICS / GAIA_METRICS_OPENMETRICS /
  /// GAIA_METRICS_SNAPSHOT (unset/empty = off), telemetry/postmortem from
  /// GAIA_TELEMETRY / GAIA_TELEMETRY_EVERY_MS / GAIA_PROGRESS /
  /// GAIA_METRICS_EVERY_S / GAIA_POSTMORTEM. Explicit paths/extras
  /// passed here override the environment.
  static Session from_env(std::string trace_override = "",
                          std::string metrics_override = "",
                          std::string openmetrics_override = "",
                          std::string snapshot_override = "",
                          SessionExtras extras_override = {});

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
  Session(Session&& other) noexcept;

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::string openmetrics_path_;
  std::string snapshot_path_;
  SessionExtras extras_;
  std::unique_ptr<TelemetrySampler> sampler_;
  bool armed_ = false;
};

}  // namespace gaia::obs
