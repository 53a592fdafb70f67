#include "obs/session.hpp"

#include <cstdlib>
#include <exception>
#include <iostream>
#include <utility>

#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace gaia::obs {

Session::Session(std::string trace_path, std::string metrics_path,
                 std::string openmetrics_path, std::string snapshot_path,
                 SessionExtras extras)
    : trace_path_(std::move(trace_path)),
      metrics_path_(std::move(metrics_path)),
      openmetrics_path_(std::move(openmetrics_path)),
      snapshot_path_(std::move(snapshot_path)),
      extras_(std::move(extras)),
      armed_(true) {
  // Unconditional, like the registry reset below: a fresh session must
  // restart the trace time base even when tracing stays off — otherwise
  // a later session that *does* trace inherits events and a clock epoch
  // from before this one.
  TraceRecorder::global().reset();
  if (const char* cap = std::getenv(kTraceCapacityEnv); cap && *cap) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(cap, &end, 10);
    if (end == cap || *end != '\0' || v == 0)
      throw Error("invalid " + std::string(kTraceCapacityEnv) + " value '" +
                  std::string(cap) + "' (expected a positive event count)");
    TraceRecorder::global().set_capacity(static_cast<std::size_t>(v));
  }
  if (tracing()) TraceRecorder::global().set_enabled(true);
  // Unconditional: a fresh session never inherits metric values from a
  // previous run in this process, even when no output is armed yet.
  MetricsRegistry::global().reset_all();
  if (metrics()) MetricsRegistry::global().set_enabled(true);
  // Arm the process-wide snapshot sink so checkpoint writes (and the
  // distributed solver's cluster aggregation) can re-seal the snapshot
  // without a reference to this session.
  set_global_snapshot_path(snapshot_path_);
  // Session boundary for the black box too: the flight ring, the
  // postmortem fingerprint and the progress board all restart here so
  // a bundle never mixes two runs' histories.
  FlightRecorder::global().reset();
  clear_postmortem_context();
  ProgressBoard::global().reset();
  set_postmortem_dir(extras_.postmortem_dir);
  // A metrics re-seal cadence only makes sense with a snapshot armed.
  if (extras_.metrics_every_s > 0 && snapshot_path_.empty())
    std::cerr << "[gaia] --metrics-every-s armed without a snapshot path; "
                 "periodic seals will be no-ops\n";
  const bool wants_sampler = !extras_.telemetry_path.empty() ||
                             extras_.progress_stderr ||
                             extras_.metrics_every_s > 0;
  if (wants_sampler) {
    SamplerConfig cfg;
    cfg.path = extras_.telemetry_path;
    cfg.period_ms = extras_.telemetry_every_ms > 0 ? extras_.telemetry_every_ms
                                                   : 250;
    cfg.progress_stderr = extras_.progress_stderr;
    cfg.snapshot_every_s = extras_.metrics_every_s;
    sampler_ = std::make_unique<TelemetrySampler>(cfg);
  }
}

namespace {

/// Strictly-positive numeric env value; throws naming the variable on
/// garbage (the kTraceCapacityEnv discipline).
double positive_env_number(const char* var) {
  const char* v = std::getenv(var);
  if (!v || !*v) return 0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || !(parsed > 0))
    throw Error("invalid " + std::string(var) + " value '" + std::string(v) +
                "' (expected a positive number)");
  return parsed;
}

}  // namespace

Session Session::from_env(std::string trace_override,
                          std::string metrics_override,
                          std::string openmetrics_override,
                          std::string snapshot_override,
                          SessionExtras extras_override) {
  auto env_or = [](const char* var, std::string explicit_path) {
    if (!explicit_path.empty()) return explicit_path;
    const char* v = std::getenv(var);
    return std::string(v ? v : "");
  };
  SessionExtras extras = std::move(extras_override);
  extras.telemetry_path =
      env_or(kTelemetryEnv, std::move(extras.telemetry_path));
  if (extras.telemetry_every_ms <= 0)
    extras.telemetry_every_ms =
        static_cast<int>(positive_env_number(kTelemetryEveryMsEnv));
  if (!extras.progress_stderr) {
    const char* v = std::getenv(kProgressEnv);
    extras.progress_stderr = v && *v && std::string(v) != "0";
  }
  if (extras.metrics_every_s <= 0)
    extras.metrics_every_s = positive_env_number(kMetricsEverySEnv);
  extras.postmortem_dir =
      env_or(kPostmortemEnv, std::move(extras.postmortem_dir));
  return Session(env_or(kTraceEnv, std::move(trace_override)),
                 env_or(kMetricsEnv, std::move(metrics_override)),
                 env_or(kOpenMetricsEnv, std::move(openmetrics_override)),
                 env_or(kSnapshotEnv, std::move(snapshot_override)),
                 std::move(extras));
}

Session::Session(Session&& other) noexcept
    : trace_path_(std::move(other.trace_path_)),
      metrics_path_(std::move(other.metrics_path_)),
      openmetrics_path_(std::move(other.openmetrics_path_)),
      snapshot_path_(std::move(other.snapshot_path_)),
      extras_(std::move(other.extras_)),
      sampler_(std::move(other.sampler_)),
      armed_(other.armed_) {
  other.armed_ = false;
}

void Session::flush() {
  if (!armed_) return;
  try {
    if (tracing()) TraceRecorder::global().write(trace_path_);
    auto& reg = MetricsRegistry::global();
    if (!metrics_path_.empty()) reg.write_csv(metrics_path_);
    if (!openmetrics_path_.empty()) reg.write_openmetrics(openmetrics_path_);
    if (!snapshot_path_.empty()) flush_global_snapshot();
  } catch (const std::exception& e) {
    std::cerr << "observability flush failed: " << e.what() << '\n';
  }
}

Session::~Session() {
  if (!armed_) return;
  // Stop the sampler first: its final tick must still see an enabled
  // registry, and the outputs below should include its last seal.
  sampler_.reset();
  flush();
  if (tracing()) TraceRecorder::global().set_enabled(false);
  if (metrics()) MetricsRegistry::global().set_enabled(false);
  set_global_snapshot_path("");
  set_postmortem_dir("");
  armed_ = false;
}

}  // namespace gaia::obs
