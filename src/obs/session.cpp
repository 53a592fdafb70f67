#include "obs/session.hpp"

#include <exception>
#include <iostream>
#include <utility>

#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace gaia::obs {

Session::Session(std::string trace_path, std::string metrics_path,
                 std::string openmetrics_path, std::string snapshot_path,
                 SessionExtras extras)
    : trace_path_(std::move(trace_path)),
      metrics_path_(std::move(metrics_path)),
      openmetrics_path_(std::move(openmetrics_path)),
      snapshot_path_(std::move(snapshot_path)),
      extras_(std::move(extras)) {
  // Unconditional, like the registry reset below: a fresh session must
  // restart the trace time base even when tracing stays off — otherwise
  // a later session that *does* trace inherits events and a clock epoch
  // from before this one.
  TraceRecorder::global().reset();
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
    cfg.progress_stderr = extras_.progress_stderr;
    cfg.snapshot_every_s = extras_.metrics_every_s;
    sampler_ = std::make_unique<TelemetrySampler>(cfg);
  }
}

void Session::flush() {
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
  // Stop the sampler first: its final tick must still see an enabled
  // registry, and the outputs below should include its last seal.
  sampler_.reset();
  flush();
  if (tracing()) TraceRecorder::global().set_enabled(false);
  if (metrics()) MetricsRegistry::global().set_enabled(false);
  set_global_snapshot_path("");
  set_postmortem_dir("");
}

}  // namespace gaia::obs
