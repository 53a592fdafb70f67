/// \file flight_recorder.hpp
/// \brief Always-on structured event ring + postmortem bundles.
///
/// The trace recorder answers "where did the time go"; this ring answers
/// "what happened before it died". It keeps the last few thousand
/// *structured* events — state transitions, faults, retries, health
/// verdicts, failovers, checkpoint and comm lifecycle — at a cost low
/// enough to stay enabled in production (events are rare: a mutexed
/// push per state change, nothing per iteration).
///
/// Every failure path flushes a **postmortem bundle**: the event tail,
/// the sealed metrics snapshot rows, the trace tail, the telemetry ring
/// tail (obs/sampler) and a config/tuning fingerprint, CRC32-framed
/// (util/framed_file) so a torn bundle is rejected loudly. The paths:
///
///  * `run_solver` — any exception unwinding out (SdcError, failover
///    exhaustion, anything) flushes `postmortem.json`;
///  * `dist_lsqr` — each rank body flushes `postmortem.rank<N>.json` on
///    RankDeath / WorldPoisoned / any escape, and the driver flushes the
///    cluster bundle when SdcError or an unrecovered death escapes;
///  * `gaia-chaos` — flushes one bundle per campaign so every injected
///    failure mode leaves a diagnosable artifact.
///
/// Arming is explicit (`--postmortem-dir`); while
/// disarmed the flush is a no-op and the ring still serves tests.
/// `tools/gaia-postmortem` loads a bundle and prints timeline +
/// diagnosis under the shared 0/1/2 exit contract.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace gaia::obs {

/// One black-box event. `category` is a small closed-ish vocabulary
/// ("state", "resilience", "health", "failover", "comm", "fault");
/// `name` the specific transition ("checkpoint.written", "sdc.detected",
/// "rank_death.recovered", ...).
struct FlightEvent {
  double t_s = 0;  ///< seconds since recorder construction/reset
  std::uint64_t seq = 0;
  int rank = -1;
  std::int64_t iteration = -1;
  std::string category;
  std::string name;
  std::string detail;
};

/// Bounded, thread-safe, always-enabled event ring.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 2048;

  void record(std::string category, std::string name,
              std::string detail = "", std::int64_t iteration = -1,
              int rank = -1);

  /// Oldest-to-newest events currently retained.
  [[nodiscard]] std::vector<FlightEvent> events() const;
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t capacity() const;
  /// 0 is invalid and ignored; shrinking drops oldest immediately.
  void set_capacity(std::size_t max_events);
  /// Drop everything, zero the counters, restart the time base.
  void reset();

  static FlightRecorder& global();

 private:
  mutable std::mutex mutex_;
  std::deque<FlightEvent> events_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::size_t capacity_ = kDefaultCapacity;
  std::uint64_t seq_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Convenience shim for instrumentation sites (records into global()).
void flight_event(const char* category, const char* name,
                  const std::string& detail = "",
                  std::int64_t iteration = -1, int rank = -1);

// ---------------------------------------------------------------------------
// Postmortem bundles
// ---------------------------------------------------------------------------

inline constexpr int kPostmortemVersion = 1;

/// What failed. `reason` is a short machine-matchable class
/// ("sdc-unrepaired", "rank-death", "world-poisoned", "exception",
/// chaos campaign statuses, ...); `detail` the human string (usually
/// the exception's what()).
struct PostmortemInfo {
  std::string reason;
  std::string detail;
  int rank = -1;  ///< -1 = process/cluster-level bundle
  int ranks = 1;
};

/// Compact copy of one trace event carried in the bundle tail.
struct PostmortemTraceEvent {
  std::string name;
  std::string cat;
  char phase = 'X';
  double ts_us = 0;
  double dur_us = 0;
};

/// A parsed bundle (see read_postmortem_file).
struct PostmortemBundle {
  int version = kPostmortemVersion;
  PostmortemInfo info;
  /// Config/tuning fingerprint key -> value (set_postmortem_context).
  std::map<std::string, std::string> context;
  std::vector<FlightEvent> events;
  std::uint64_t events_dropped = 0;
  std::vector<MetricRow> metrics;
  std::vector<PostmortemTraceEvent> trace_tail;
  std::uint64_t trace_dropped = 0;
  /// Raw telemetry JSONL lines (newest samples of the sampler ring).
  std::vector<std::string> telemetry_tail;
};

/// Arms/disarms the process-wide bundle directory (empty = off,
/// created on first flush).
void set_postmortem_dir(const std::string& dir);
[[nodiscard]] std::string postmortem_dir();

/// Records one key of the config/tuning fingerprint stamped into every
/// subsequent bundle (empty value erases the key).
void set_postmortem_context(const std::string& key,
                            const std::string& value);
void clear_postmortem_context();
[[nodiscard]] std::map<std::string, std::string> postmortem_context();

/// Assembles the bundle from the live recorders. `trace_tail_events`
/// bounds the trace tail (taken from TraceRecorder::current()).
[[nodiscard]] PostmortemBundle collect_postmortem(
    const PostmortemInfo& info, std::size_t trace_tail_events = 64);

/// Bundle payload as JSON (before framing) and its strict inverse.
[[nodiscard]] std::string postmortem_json(const PostmortemBundle& bundle);
[[nodiscard]] PostmortemBundle parse_postmortem_json(
    const std::string& text);  ///< throws gaia::Error when malformed

/// Seals a bundle to `path` (CRC-framed, atomic replace). Throws on I/O
/// failure.
void write_postmortem_file(const std::string& path,
                           const PostmortemBundle& bundle);
/// Reads and verifies a bundle; throws gaia::Error on a missing file, a
/// torn/bit-rotted frame, or malformed/version-mismatched JSON.
[[nodiscard]] PostmortemBundle read_postmortem_file(const std::string& path);

/// The failure-path entry point: collects and seals a bundle into the
/// armed directory as `filename` (default: `postmortem.json`, or
/// `postmortem.rank<N>.json` when info.rank >= 0). No-op returning ""
/// while disarmed; errors go to stderr, never throw (runs from catch
/// blocks and unwind paths). Returns the path written.
std::string flush_postmortem(const PostmortemInfo& info,
                             const std::string& filename = "");

}  // namespace gaia::obs
