/// \file tuning_cache.hpp
/// \brief Persistent autotuning results, sealed like a checkpoint.
///
/// A search that took warm-up iterations to converge should not be paid
/// again on the next run of the same problem class on the same machine.
/// The cache maps (backend, problem-shape bucket, kernel) to the winning
/// launch shape and persists as a CRC32-framed JSON file (the same
/// `resilience::write_framed_file` seal as checkpoints: torn writes and
/// bit rot are detected on load and the file is *ignored*, never
/// half-trusted — the solver falls back to searching).
///
/// Shape bucketing: winners from a 2^k-row problem transfer to problems
/// of the same order of magnitude, so keys use floor(log2(rows)) and
/// floor(log2(cols)) rather than exact dimensions. A different bucket is
/// a cache miss and triggers a fresh search.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "backends/backend.hpp"

namespace gaia::tuning {

/// Order-of-magnitude problem class of a tuning result.
struct ShapeBucket {
  std::int32_t rows_log2 = 0;
  std::int32_t cols_log2 = 0;
  bool operator==(const ShapeBucket&) const = default;
};

[[nodiscard]] ShapeBucket bucket_for(std::int64_t rows, std::int64_t cols);
[[nodiscard]] std::string to_string(const ShapeBucket& bucket);

class TuningCache {
 public:
  void put(backends::BackendKind backend, ShapeBucket bucket,
           backends::KernelId kernel, backends::KernelConfig config);

  [[nodiscard]] std::optional<backends::KernelConfig> find(
      backends::BackendKind backend, ShapeBucket bucket,
      backends::KernelId kernel) const;

  /// Installs every cached entry for (backend, bucket) into `table`;
  /// returns how many kernels were installed.
  int apply(backends::BackendKind backend, ShapeBucket bucket,
            backends::TuningTable& table) const;

  /// True iff all kNumKernels entries for (backend, bucket) are cached —
  /// the condition under which a run may skip the search entirely.
  [[nodiscard]] bool complete_for(backends::BackendKind backend,
                                  ShapeBucket bucket) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Schema version this build reads and writes. v2 added the per-entry
  /// scatter "strategy"; v3 added the storage "layout"; v4 added the
  /// storage "precision"; v5 dropped "layout" with the layout axis; v6
  /// dropped "strategy" with the scatter-strategy axis; v7 dropped
  /// "precision" with the storage-precision axis. Files of another
  /// schema are rejected as a *version miss*, not corruption — a v6
  /// winner may record a reduced-precision arm this build no longer
  /// runs, and an older winner was measured under a commit strategy it
  /// no longer runs either.
  static constexpr std::int64_t kSchemaVersion = 7;

  /// Why a parse produced no cache (kOk when it did).
  enum class ParseStatus {
    kOk = 0,
    kMalformed,        ///< bad syntax, unknown names, invalid shapes
    kVersionMismatch,  ///< well-formed file of another schema version
  };

  /// JSON document (schema below); stable entry order for diffing.
  /// {"version":7,"entries":[{"backend":"gpusim","rows_log2":8,
  ///   "cols_log2":7,"kernel":"aprod2_att","blocks":32,"threads":32}]}
  [[nodiscard]] std::string to_json() const;
  /// Strict parse: any malformed syntax, unknown key, unknown
  /// backend/kernel name, invalid launch shape or wrong
  /// version yields nullopt (the
  /// caller treats it like a missing cache). `status`, when non-null,
  /// distinguishes a clean version miss from corruption.
  [[nodiscard]] static std::optional<TuningCache> parse_json(
      const std::string& text, ParseStatus* status = nullptr);

  /// Loads a CRC-framed cache file. Returns false (leaving the cache
  /// empty) when the file is missing, truncated, corrupt, or fails to
  /// parse — a cache is an optimization, never a hard dependency. An
  /// old-version file additionally bumps the
  /// `tuning.cache.version_miss` warning counter so schema evolution is
  /// distinguishable from bit rot in the metrics.
  [[nodiscard]] bool load(const std::string& path);
  /// Seals the cache to `path` (atomic write + CRC footer).
  void save(const std::string& path) const;

 private:
  /// (backend, rows_log2, cols_log2, kernel) -> winning shape.
  using Key = std::tuple<int, std::int32_t, std::int32_t, int>;
  static Key make_key(backends::BackendKind backend, ShapeBucket bucket,
                      backends::KernelId kernel) {
    return {static_cast<int>(backend), bucket.rows_log2, bucket.cols_log2,
            static_cast<int>(kernel)};
  }
  std::map<Key, backends::KernelConfig> entries_;
};

}  // namespace gaia::tuning
