/// \file export.hpp
/// \brief Metrics exporters: OpenMetrics text exposition + sealed JSON
/// snapshots.
///
/// Two ways the registry's data leaves the process:
///
///  * **OpenMetrics** (`to_openmetrics`) — the Prometheus text format a
///    scraper or CI artifact viewer expects. `kernel.*` series from the
///    PerfCounters layer become properly labelled families
///    (`gaia_kernel_bytes_total{kernel=...,backend=...,strategy=...}`);
///    everything else maps to a sanitized flat name with a `gaia_`
///    prefix. Counters get the `_total` suffix, histograms export as
///    summaries (quantile samples + `_count`/`_sum`), and the exposition
///    ends with the mandatory `# EOF`.
///  * **Snapshot JSON** (`write_snapshot_file`) — a versioned snapshot of
///    every MetricRow, sealed with the util/framed_file CRC32 footer so
///    a half-written or bit-rotted snapshot is rejected on read, not
///    silently half-parsed. Written at solver exit and alongside every
///    checkpoint; the distributed solver stamps it with the cluster meta
///    (rank = -1, ranks = N) after cross-rank aggregation.
///
/// The *global snapshot sink* decouples writers from the Session that
/// owns the path: `obs::Session` arms it, `CheckpointManager::write` and
/// `dist_lsqr` call `flush_global_snapshot()` without knowing where (or
/// whether) the snapshot goes.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace gaia::obs {

// ---------------------------------------------------------------------------
// OpenMetrics text exposition
// ---------------------------------------------------------------------------

/// Renders `rows` in the OpenMetrics text format (families sorted and
/// contiguous, `# TYPE` per family, terminated by `# EOF`).
[[nodiscard]] std::string to_openmetrics(const std::vector<MetricRow>& rows);

/// One parsed sample line (the round-trip check CI and tests run).
struct OpenMetricsSample {
  std::string name;  ///< full sample name, e.g. "gaia_kernel_bytes_total"
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0;

  [[nodiscard]] const std::string* label(const std::string& key) const;
};

/// Parses an exposition produced by `to_openmetrics`. nullopt when the
/// text is malformed (bad label syntax, unparsable value, missing
/// `# EOF`).
[[nodiscard]] std::optional<std::vector<OpenMetricsSample>> parse_openmetrics(
    const std::string& text);

// ---------------------------------------------------------------------------
// Sealed JSON snapshots
// ---------------------------------------------------------------------------

inline constexpr int kSnapshotVersion = 1;

/// One MetricRow as a JSON object, the one encoding snapshots and
/// postmortem bundles share: `name`, `type`, `count`, `sum`, `min`,
/// `max`, `last`, `p50`, `p95`, `p99`, in that order, spelled through
/// util/json (so a non-finite value is `null`).
[[nodiscard]] std::string metric_row_json(const MetricRow& row);

/// The strict inverse of `metric_row_json`: an object holding only those
/// ten keys, a non-empty string `name` and `type`, a non-negative numeric
/// `count`; `null` in a measurement reads back as NaN. Throws gaia::Error.
[[nodiscard]] MetricRow parse_metric_row(const util::JsonValue& value);

/// Provenance carried in the snapshot header. `rank` is -1 for a
/// process-wide (or cluster-aggregated) snapshot; `complete` is false
/// when a cross-rank aggregation degraded to rank-local data because a
/// peer died mid-reduce.
struct SnapshotMeta {
  int rank = -1;
  int ranks = 1;
  bool complete = true;
};

/// The snapshot payload (before framing): versioned JSON of every row.
[[nodiscard]] std::string snapshot_json(const std::vector<MetricRow>& rows,
                                        const SnapshotMeta& meta);

/// Strict parse of `snapshot_json` output: an object holding only
/// `version` (required, 1), `rank`, `ranks`, `complete` and `metrics`
/// (required, an array of `parse_metric_row` rows). nullopt on malformed
/// input or a version mismatch; `meta` (optional) receives the header.
[[nodiscard]] std::optional<std::vector<MetricRow>> parse_snapshot_json(
    const std::string& text, SnapshotMeta* meta = nullptr);

/// Seals rows + meta into a CRC32-framed snapshot file (atomic
/// write-tmp-rename). Throws gaia::Error on I/O failure.
void write_snapshot_file(const std::string& path,
                         const std::vector<MetricRow>& rows,
                         const SnapshotMeta& meta);

/// Reads a sealed snapshot back; throws gaia::Error on a missing file,
/// framing/CRC failure, or malformed/mismatched JSON.
[[nodiscard]] std::vector<MetricRow> read_snapshot_file(
    const std::string& path, SnapshotMeta* meta = nullptr);

// ---------------------------------------------------------------------------
// Global snapshot sink
// ---------------------------------------------------------------------------

/// Arms/disarms the process-wide snapshot path (empty = off). Owned by
/// obs::Session; exposed so the solver can report where the snapshot
/// went.
void set_global_snapshot_path(const std::string& path);
[[nodiscard]] std::string global_snapshot_path();

/// Overrides the meta stamped on subsequent global-snapshot flushes
/// (the distributed solver sets ranks/completeness after aggregating).
void set_global_snapshot_meta(const SnapshotMeta& meta);

/// Writes the current registry snapshot to the armed path. No-op when
/// no path is armed; errors go to stderr, never throw (runs from
/// checkpoint/exit paths).
void flush_global_snapshot();

}  // namespace gaia::obs
