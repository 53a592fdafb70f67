/// \file trace.hpp
/// \brief Kernel-level trace recorder (the nsys/rocprof timeline analog).
///
/// The paper's evidence is timeline-shaped: nsys/rocprof screenshots
/// showing that aprod1/aprod2 dominate the iteration (SIV, SV-A). This
/// recorder produces the same artifact for our host backends: every
/// kernel launch, transfer and iteration becomes a span in a Chrome
/// trace-event JSON file (`chrome://tracing` / Perfetto loadable), with
/// track ids mapped to timeline tracks and the launch configuration
/// attached as span arguments.
///
/// Distributed runs add a second dimension: each simulated MPI rank
/// owns its *own* recorder (installed as the rank thread's
/// thread-recorder), stamped with a
/// rank identity (`set_rank`) that becomes the `pid` of every emitted
/// event, and a clock-alignment offset against the World's shared epoch
/// (`set_epoch_offset_us`) that the trace merger (obs/trace_merge)
/// applies to place all ranks on one timeline. Instrumentation sites
/// record through `TraceRecorder::current()` — the thread-local
/// override when one is installed, the process-global recorder
/// otherwise — so single-process behaviour is unchanged.
///
/// Memory is bounded: past `capacity()` events the recorder drops the
/// oldest event per insertion (`dropped_events()` counts them, also
/// surfaced as the `trace.dropped_events` registry counter), so a
/// long-running traced solve degrades to a sliding window instead of
/// growing without bound.
///
/// Cost contract: while disabled (the default), every instrumentation
/// site pays one relaxed atomic load plus one thread-local read — the
/// same discipline as the metrics registry.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace gaia::obs {

/// One key/value annotation on a span ("args" in the trace-event
/// format). Values are stored pre-rendered as JSON fragments so the
/// writer needs no type dispatch.
class TraceArg {
 public:
  TraceArg(std::string key, const std::string& value);
  TraceArg(std::string key, const char* value);
  TraceArg(std::string key, double value);
  TraceArg(std::string key, std::int64_t value);
  TraceArg(std::string key, std::int32_t value)
      : TraceArg(std::move(key), static_cast<std::int64_t>(value)) {}
  TraceArg(std::string key, std::uint64_t value);

  [[nodiscard]] const std::string& key() const { return key_; }
  /// Value as a ready-to-emit JSON fragment (quoted iff string).
  [[nodiscard]] const std::string& json_value() const { return json_value_; }

 private:
  std::string key_;
  std::string json_value_;
};

/// One trace-event record. Phases used: 'X' (complete span), 'i'
/// (instant), 'C' (counter), 'M' (metadata, e.g. thread names).
struct TraceEvent {
  std::string name;
  std::string cat;
  char phase = 'X';
  double ts_us = 0;   ///< steady-clock microseconds since reset()
  double dur_us = 0;  ///< span duration ('X' only)
  std::int32_t tid = 0;
  std::vector<TraceArg> args;
};

/// Thread-safe append-only recorder for trace events.
class TraceRecorder {
 public:
  /// Track id of spans emitted from the caller's thread context (the
  /// LSQR driver loop and its kernel launches).
  static constexpr std::int32_t kMainTrack = 0;
  /// Default event-capacity cap (see set_capacity).
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Enabling also (re-)stamps the main-track thread name so an empty
  /// trace is still a valid, labelled timeline.
  void set_enabled(bool enabled);

  /// Microseconds since construction/reset — the trace time base.
  [[nodiscard]] double now_us() const;
  /// `t` on the trace time base (now_us() is to_us of the clock's now).
  [[nodiscard]] double to_us(std::chrono::steady_clock::time_point t) const;
  /// The time base itself (clock-alignment anchor for the merger).
  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const;

  /// Stamp the recorder with a rank identity: `rank` becomes the pid of
  /// every emitted event and a `process_name` metadata record is added
  /// ("rank <r>"), so a merged multi-rank timeline shows one process
  /// group per rank. The default identity is pid 1, rank -1 (a plain
  /// single-process trace).
  void set_rank(int rank, int n_ranks);
  [[nodiscard]] int rank() const;
  [[nodiscard]] int n_ranks() const;

  /// Clock alignment against a shared epoch: microseconds to *add* to
  /// this recorder's timestamps to express them on the reference clock
  /// (the World construction epoch for distributed runs). Recorded in
  /// the trace header, applied by the merger — never by the recorder.
  void set_epoch_offset_us(double offset_us);
  [[nodiscard]] double epoch_offset_us() const;

  /// Bound the event buffer: beyond `max_events` each insertion drops
  /// the oldest event (metadata records included — re-announced track
  /// names are re-emitted on demand). 0 is invalid and ignored.
  void set_capacity(std::size_t max_events);
  [[nodiscard]] std::size_t capacity() const;
  /// Events dropped since construction/reset by the capacity cap.
  [[nodiscard]] std::uint64_t dropped_events() const;

  /// Record a completed span (no-op while disabled).
  void complete(std::string name, std::string cat, double ts_us,
                double dur_us, std::int32_t tid,
                std::vector<TraceArg> args = {});
  /// Record an instant event.
  void instant(std::string name, std::string cat, std::int32_t tid,
               std::vector<TraceArg> args = {});
  /// Record a counter sample (Perfetto renders these as counter tracks;
  /// used for per-iteration convergence telemetry).
  void counter(std::string name, double ts_us, double value);
  /// Name a track (trace-event "thread_name" metadata).
  void name_track(std::int32_t tid, const std::string& name);

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Drop all events, zero the drop counter and restart the time base
  /// (enabled state, capacity and rank identity kept).
  void reset();

  /// The full trace as a JSON document (Chrome trace-event format:
  /// {"displayTimeUnit": "ms", "otherData": {...}, "traceEvents":
  /// [...]}; otherData carries rank/ranks/epoch_offset_us/
  /// dropped_events for the merger).
  [[nodiscard]] std::string json() const;
  void write(std::ostream& os) const;
  void write(const std::string& path) const;

  /// Process-wide recorder used by the library's instrumentation.
  static TraceRecorder& global();

  /// Recorder instrumentation on *this thread* records into: the
  /// thread-local override when installed (dist rank threads),
  /// `global()` otherwise.
  static TraceRecorder& current();
  /// The raw thread-local override (nullptr = none). Exposed so thread
  /// spawners can propagate the spawning thread's recorder into the
  /// threads they create.
  static TraceRecorder* thread_recorder();
  static void set_thread_recorder(TraceRecorder* recorder);

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::deque<TraceEvent> events_;
  std::set<std::int32_t> named_tracks_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::size_t capacity_ = kDefaultCapacity;
  std::uint64_t dropped_ = 0;
  std::int32_t pid_ = 1;
  int rank_ = -1;
  int n_ranks_ = 1;
  double epoch_offset_us_ = 0;

  /// Caller holds mutex_. Applies the capacity cap.
  void push_locked(TraceEvent event);
};

/// RAII install/restore of the thread-local recorder override. The
/// distributed solver places one at the top of each rank body.
class ThreadRecorderScope {
 public:
  explicit ThreadRecorderScope(TraceRecorder* recorder)
      : previous_(TraceRecorder::thread_recorder()) {
    TraceRecorder::set_thread_recorder(recorder);
  }
  ~ThreadRecorderScope() { TraceRecorder::set_thread_recorder(previous_); }

  ThreadRecorderScope(const ThreadRecorderScope&) = delete;
  ThreadRecorderScope& operator=(const ThreadRecorderScope&) = delete;

 private:
  TraceRecorder* previous_;
};

/// RAII span against the current (thread-resolved) recorder. Args are
/// only materialized by the caller when tracing is on (check `armed()` /
/// use the two-phase pattern below); the disabled path is one relaxed
/// atomic load plus a thread-local read.
///
/// The span is also the one measurement of the region it covers: a
/// `timed` span reads its clock pair even with tracing off, and `stop()`
/// hands the caller the interval the span records, so a launch or a
/// collective feeds its span, its metrics and its stats from one pair of
/// clock reads.
class ScopedTrace {
 public:
  using Clock = std::chrono::steady_clock;

  ScopedTrace(const char* name, const char* cat,
              std::int32_t tid = TraceRecorder::kMainTrack,
              bool timed = false)
      : rec_(&TraceRecorder::current()),
        name_(rec_->enabled() ? name : nullptr),
        cat_(cat),
        tid_(tid),
        timed_(timed || name_ != nullptr) {
    if (timed_) start_ = Clock::now();
  }

  /// True when the span will actually be recorded — gate any expensive
  /// argument construction on this.
  [[nodiscard]] bool armed() const { return name_ != nullptr; }

  /// Attach/extend args after construction (e.g. values only known at
  /// scope end, like the iteration's residual norm).
  void add_arg(TraceArg arg) {
    if (name_) args_.push_back(std::move(arg));
  }

  /// Ends the interval (the first call reads the clock, later calls
  /// return the same value) and returns its seconds; 0 when the span is
  /// neither armed nor timed. An armed span is still recorded at scope
  /// exit, over this interval.
  double stop() {
    if (!timed_) return 0;
    if (!stopped_) {
      end_ = Clock::now();
      stopped_ = true;
    }
    return std::chrono::duration<double>(end_ - start_).count();
  }

  /// The clock read that opened the interval (armed or timed spans).
  [[nodiscard]] Clock::time_point start() const { return start_; }

  ~ScopedTrace() {
    if (!name_) return;
    if (!stopped_) end_ = Clock::now();
    rec_->complete(name_, cat_, rec_->to_us(start_),
                   std::chrono::duration<double, std::micro>(end_ - start_)
                       .count(),
                   tid_, std::move(args_));
  }

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  TraceRecorder* rec_;
  const char* name_;
  const char* cat_;
  std::int32_t tid_;
  bool timed_;
  bool stopped_ = false;
  Clock::time_point start_{}, end_{};
  std::vector<TraceArg> args_;
};

}  // namespace gaia::obs
