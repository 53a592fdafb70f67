/// \file checkpoint.hpp
/// \brief Sealed checkpoint files and rotation-aware orchestration.
///
/// Production solves persist state across job boundaries; a checkpoint
/// that dies with the job (torn write) or rots on disk (bit flip) must
/// never be resumed from silently. Two layers:
///
///  * **Framing** — `write_framed_file` writes payload + CRC32 footer to
///    `<path>.tmp` and renames (atomic on POSIX), `read_framed_file`
///    verifies the footer and rejects truncated/corrupt files with a
///    `gaia::Error` naming the path and reason.
///  * **`CheckpointManager`** — rotates `basename.<iteration>.ckpt`
///    files in a directory, keeps the last K, and on resume hands the
///    newest file that still verifies *and* restores to the caller,
///    skipping corrupt or foreign ones with a warning (and an obs event)
///    instead of failing the run.
///
/// The manager is also the injection point for `ckpt:` fault clauses:
/// after each write it asks the global `FaultInjector` whether to
/// truncate or bit-flip the file just written, which is how tests and
/// the CI smoke job manufacture the "latest checkpoint is bad" scenario.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gaia::resilience {

/// Appends the CRC footer and atomically replaces `path`
/// (write `<path>.tmp`, then rename). Throws gaia::Error on I/O failure.
void write_framed_file(const std::string& path, std::string_view payload);

/// Reads and verifies a framed file; returns the payload with the footer
/// stripped. Throws gaia::Error naming `path` and the reason (missing
/// footer magic, length mismatch i.e. truncation, CRC mismatch i.e.
/// bit rot).
[[nodiscard]] std::string read_framed_file(const std::string& path);

/// Verification without the payload copy: true iff the footer checks out.
[[nodiscard]] bool verify_framed_file(const std::string& path);

/// Records a resilience event under both observability sinks: a trace
/// instant `name` (category "resilience") with `detail` attached, and a
/// bump of the `resilience.<name>` counter. No-op when both sinks are
/// disabled. Used for checkpoint lifecycle and recovery milestones
/// (written/skipped/resumed/restart).
void note_resilience_event(const char* name, const std::string& detail);

struct CheckpointConfig {
  std::string directory;        ///< empty = checkpointing disabled
  std::string basename = "gaia";
  std::int64_t every = 0;       ///< checkpoint cadence in iterations; 0 = off
  int keep_last = 3;            ///< retained rotation depth (>= 1)
};

struct CheckpointInfo {
  std::string path;
  std::int64_t iteration = 0;
};

class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointConfig config);

  [[nodiscard]] bool enabled() const {
    return config_.every > 0 && !config_.directory.empty();
  }
  /// True when `iteration` is a checkpoint boundary.
  [[nodiscard]] bool due(std::int64_t iteration) const {
    return enabled() && iteration > 0 && iteration % config_.every == 0;
  }

  /// Seals `payload` into `basename.<iteration>.ckpt` (atomic
  /// write+rename), applies any injected corruption, prunes beyond
  /// keep_last, and returns the final path.
  std::string write(std::int64_t iteration, std::string_view payload);

  /// All checkpoints in the directory, newest (highest iteration) first.
  [[nodiscard]] std::vector<CheckpointInfo> list() const;

  /// The auto-resume walk: newest first, hands each checkpoint whose
  /// framing verifies to `restore`, which parses it and throws
  /// gaia::Error to reject it (e.g. a fingerprint of another problem).
  /// Corrupt or rejected files are skipped with a stderr warning and an
  /// obs `checkpoint.skipped` event; the accepted one records
  /// `checkpoint.resumed`. `report = false` keeps the walk silent (the
  /// ranks of a distributed solve that do not report). Returns the
  /// accepted checkpoint, or nullopt when the manager is disabled or no
  /// file is accepted.
  std::optional<CheckpointInfo> resume(
      const std::function<void(const std::string& payload)>& restore,
      bool report = true) const;

  [[nodiscard]] std::uint64_t written() const { return written_; }
  [[nodiscard]] const CheckpointConfig& config() const { return config_; }

 private:
  void prune() const;

  CheckpointConfig config_;
  std::uint64_t written_ = 0;
};

}  // namespace gaia::resilience
