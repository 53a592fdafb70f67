/// \file sampler.hpp
/// \brief Live telemetry: solver progress board + background sampler.
///
/// The metrics stack (obs/metrics, obs/export) is post-hoc — snapshots
/// are sealed at exit and at checkpoints, so a long solve is a black box
/// until it finishes. This file adds the *in-run* view:
///
///  * `ProgressBoard` — a tiny rank-keyed table of live solver state
///    (phase, iteration, residual norms) updated by the LSQR loops at
///    iteration granularity. Disabled it costs one relaxed atomic load
///    per update, the same contract as MetricsRegistry.
///  * `TelemetrySampler` — a background thread that every N ms snapshots
///    the board plus the MetricsRegistry into a bounded ring and streams
///    each sample as one JSONL object (`--telemetry-file`). The ring
///    tail survives into postmortem bundles (obs/flight_recorder), and
///    the same cadence machinery drives the periodic snapshot re-seal
///    (`--metrics-every-s`) and the live stderr progress/ETA line.
///
/// One JSONL sample:
///   {"t_s":1.25,"sample":5,"progress":[{"rank":-1,"phase":"solve",
///    "iteration":42,"max_iterations":100,"rnorm":0.12,"arnorm":3e-4,
///    "elapsed_s":1.1,"eta_s":1.5}],"metrics":{"lsqr.iterations":42,...}}
///
/// `progress` carries one rank-tagged row per active solve (rank -1 =
/// single-process; the distributed solver registers one row per rank
/// thread). `metrics` maps each registry row to its headline scalar
/// (counter -> sum, gauge -> last, histogram -> p50) and is present only
/// while the registry is enabled.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gaia::obs {

/// Live per-rank solver state. Writers are the LSQR iteration loops
/// (single-process rank -1, one row per rank thread in dist_lsqr); the
/// reader is the sampler thread. Updates are mutex-protected — at
/// iteration granularity (>= tens of microseconds) the lock is noise,
/// and the disabled path never takes it.
class ProgressBoard {
 public:
  struct Row {
    int rank = -1;
    std::string phase;  ///< "generate"|"solve"|...
    std::int64_t iteration = 0;
    std::int64_t max_iterations = 0;
    double rnorm = 0;
    double arnorm = 0;
    double elapsed_s = 0;  ///< since begin(rank); stamped by snapshot()
  };

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Registers (or restarts) the row for `rank`. No-op while disabled.
  void begin(int rank, std::int64_t max_iterations, std::string phase);
  /// Per-iteration update. No-op while disabled or before begin(rank).
  void update(int rank, std::int64_t iteration, double rnorm, double arnorm);
  /// Phase transition ("generate" -> "solve", ...).
  void set_phase(int rank, std::string phase);
  /// Drops the row (a finished or dead rank disappears from samples).
  void end(int rank);

  [[nodiscard]] std::vector<Row> snapshot() const;
  void reset();

  /// The rank LSQR instrumentation attributes its updates to: -1 by
  /// default, overridden per thread by `ThreadRankScope` (the dist rank
  /// bodies install one, exactly like ThreadRecorderScope for traces).
  [[nodiscard]] static int thread_rank();
  static void set_thread_rank(int rank);

  static ProgressBoard& global();

 private:
  struct Slot {
    Row row;
    std::chrono::steady_clock::time_point start;
  };
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<int, Slot> slots_;
};

/// RAII attribution of this thread's progress updates to a rank.
class ThreadRankScope {
 public:
  explicit ThreadRankScope(int rank) : previous_(ProgressBoard::thread_rank()) {
    ProgressBoard::set_thread_rank(rank);
  }
  ~ThreadRankScope() { ProgressBoard::set_thread_rank(previous_); }

  ThreadRankScope(const ThreadRankScope&) = delete;
  ThreadRankScope& operator=(const ThreadRankScope&) = delete;

 private:
  int previous_;
};

struct SamplerConfig {
  /// JSONL stream destination; empty = ring only (samples are still
  /// taken and retained for postmortem bundles).
  std::string path;
  /// Sampling period. Clamped to >= 1.
  int period_ms = 250;
  /// Samples retained in the ring (oldest dropped beyond it).
  std::size_t ring_capacity = 4096;
  /// Render a live progress/ETA line to stderr each tick (\r-rewritten).
  bool progress_stderr = false;
  /// Re-seal the armed global metrics snapshot every this many seconds
  /// (0 = off) — the `--metrics-every-s` satellite rides the same timer.
  double snapshot_every_s = 0;
};

/// The background sampling thread. Construction starts it; destruction
/// (or stop()) joins it after one final sample and stream flush. At most
/// one sampler is registered as `active()` at a time — the postmortem
/// writer reads the ring tail from there.
class TelemetrySampler {
 public:
  explicit TelemetrySampler(SamplerConfig config);
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Final sample + flush, then joins the thread. Idempotent.
  void stop();

  [[nodiscard]] std::uint64_t samples() const {
    return samples_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const SamplerConfig& config() const { return config_; }

  /// Newest `max_lines` ring entries, oldest first.
  [[nodiscard]] std::vector<std::string> ring_tail(
      std::size_t max_lines) const;

  /// The process-wide sampler, when one is running (nullptr otherwise).
  static TelemetrySampler* active();

 private:
  void run();
  /// Takes one sample: renders the JSONL line, pushes it into the ring
  /// and streams it. `final_tick` forces the progress line to newline.
  void tick(bool final_tick);

  SamplerConfig config_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_snapshot_flush_;
  mutable std::mutex ring_mutex_;
  std::deque<std::string> ring_;
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace gaia::obs
