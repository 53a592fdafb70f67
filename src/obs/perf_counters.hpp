/// \file perf_counters.hpp
/// \brief Derived hardware-style counters per (kernel, backend, strategy).
///
/// A vendor profiler reports bytes moved, FLOPs and achieved bandwidth
/// per kernel; this layer derives the same numbers
/// for every registry-dispatched launch from the cost-model shapes
/// (rows x nnz structure of the live system) plus the measured wall
/// time, and records them into the global MetricsRegistry under a
/// structured name scheme the exporters understand:
///
///   kernel.<kernel>.<backend>.<strategy>.launches        counter
///   kernel.<kernel>.<backend>.<strategy>.bytes           counter
///   kernel.<kernel>.<backend>.<strategy>.flops           counter
///   kernel.<kernel>.<backend>.<strategy>.time_seconds    histogram
///   kernel.<kernel>.<backend>.<strategy>.bandwidth_bytes_per_s  gauge
///
/// `strategy` is "privatized" for the passes that commit private slices
/// into shared columns and "none" for the rest (the host runs no atomic
/// commit; the label keeps the series names stable). Every entry point is enabled-gated: with the
/// registry off the cost is one relaxed load at the call site.
#pragma once

#include <cstdint>
#include <string>

namespace gaia::obs {

/// One executed kernel launch with its derived counters.
struct KernelSample {
  std::string kernel;    ///< region name, e.g. "aprod2_att"
  std::string backend;   ///< e.g. "gpusim"
  std::string strategy;  ///< "privatized" | "none"
  std::uint64_t bytes = 0;  ///< HBM traffic estimate
  std::uint64_t flops = 0;  ///< FP operations
  double seconds = 0;       ///< measured wall time
};

/// Records a launch: bumps the counters, records the time histogram and
/// refreshes the effective-bandwidth gauge (bytes / seconds). No-op
/// while the registry is disabled.
void record_kernel_sample(const KernelSample& sample);

/// Structured decomposition of a `kernel.*` metric name.
struct KernelSeriesName {
  std::string kernel;
  std::string backend;
  std::string strategy;
  std::string field;  ///< "bytes", "time_seconds", ...
};

/// Splits "kernel.<k>.<b>.<s>.<field>" into its labels; false when
/// `name` is not a kernel series (exporters then fall back to the
/// generic flat-name mapping).
bool parse_kernel_series(const std::string& name, KernelSeriesName& out);

/// The registry name of one kernel series field.
std::string kernel_series_name(const std::string& kernel,
                               const std::string& backend,
                               const std::string& strategy,
                               const std::string& field);

}  // namespace gaia::obs
