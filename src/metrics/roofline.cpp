#include "metrics/roofline.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/perf_counters.hpp"

namespace gaia::metrics {

namespace {

/// Accumulates the fields of one (kernel, backend, strategy) series as
/// the snapshot rows stream past.
struct SeriesAccum {
  std::uint64_t launches = 0;
  double bytes = 0;
  double flops = 0;
  double seconds_p50 = 0;
  std::uint64_t timed = 0;  ///< time_seconds histogram count
};

}  // namespace

double ridge_intensity(const RooflineMachine& machine) {
  const double bw = machine.effective_bw_gbs();
  if (bw <= 0) return 0;
  return machine.peak_gflops / bw;  // GFLOP/s over GB/s = FLOP/byte
}

std::vector<RooflinePoint> roofline_points(
    const std::vector<gaia::obs::MetricRow>& rows,
    const RooflineMachine& machine) {
  std::map<std::string, SeriesAccum> series;
  std::map<std::string, gaia::obs::KernelSeriesName> names;
  for (const gaia::obs::MetricRow& row : rows) {
    gaia::obs::KernelSeriesName parsed;
    if (!gaia::obs::parse_kernel_series(row.name, parsed)) continue;
    const std::string key =
        parsed.kernel + '\n' + parsed.backend + '\n' + parsed.strategy;
    SeriesAccum& acc = series[key];
    names.emplace(key, parsed);
    if (parsed.field == "launches")
      acc.launches = row.count;
    else if (parsed.field == "bytes")
      acc.bytes = row.sum;
    else if (parsed.field == "flops")
      acc.flops = row.sum;
    else if (parsed.field == "time_seconds") {
      acc.seconds_p50 = row.p50;
      acc.timed = row.count;
    }
  }

  const double bw_roof_gbs = machine.effective_bw_gbs();
  std::vector<RooflinePoint> points;
  for (const auto& [key, acc] : series) {
    // A placement needs counted launches with traffic and a timing;
    // partial series are skipped.
    if (acc.launches == 0 || acc.timed == 0 || acc.seconds_p50 <= 0)
      continue;
    if (acc.bytes <= 0 && acc.flops <= 0) continue;
    const gaia::obs::KernelSeriesName& name = names.at(key);
    RooflinePoint p;
    p.kernel = name.kernel;
    p.backend = name.backend;
    p.strategy = name.strategy;
    p.launches = acc.launches;
    p.bytes_per_launch = acc.bytes / static_cast<double>(acc.launches);
    p.flops_per_launch = acc.flops / static_cast<double>(acc.launches);
    p.intensity =
        p.bytes_per_launch > 0 ? p.flops_per_launch / p.bytes_per_launch : 0;
    p.seconds_p50 = acc.seconds_p50;
    p.achieved_gflops = p.flops_per_launch / acc.seconds_p50 / 1e9;
    p.achieved_gbs = p.bytes_per_launch / acc.seconds_p50 / 1e9;
    const double bw_ceiling = p.intensity * bw_roof_gbs;
    p.ceiling_gflops = machine.peak_gflops > 0
                           ? std::min(machine.peak_gflops, bw_ceiling)
                           : bw_ceiling;
    p.fraction_of_ceiling =
        p.ceiling_gflops > 0 ? p.achieved_gflops / p.ceiling_gflops : 0;
    p.memory_bound = p.intensity < ridge_intensity(machine);
    points.push_back(std::move(p));
  }
  std::sort(points.begin(), points.end(),
            [](const RooflinePoint& a, const RooflinePoint& b) {
              return std::tie(a.kernel, a.backend, a.strategy) <
                     std::tie(b.kernel, b.backend, b.strategy);
            });
  return points;
}

void publish_roofline_gauges(const std::vector<RooflinePoint>& points) {
  auto& reg = gaia::obs::MetricsRegistry::global();
  if (!reg.enabled()) return;
  for (const RooflinePoint& p : points) {
    const auto gauge = [&](const char* field, double value) {
      reg.gauge(gaia::obs::kernel_series_name(p.kernel, p.backend, p.strategy,
                                              field))
          .set(value);
    };
    gauge("roofline_intensity", p.intensity);
    gauge("roofline_achieved_gflops", p.achieved_gflops);
    gauge("roofline_achieved_gbs", p.achieved_gbs);
    gauge("roofline_fraction_of_ceiling", p.fraction_of_ceiling);
    gauge("roofline_memory_bound", p.memory_bound ? 1.0 : 0.0);
  }
}

std::string roofline_table(const std::vector<RooflinePoint>& points,
                           const RooflineMachine& machine) {
  if (points.empty()) return "";
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof line,
                "roofline vs %s (bw %.0f GB/s x %.2f, peak %.0f GFLOP/s, "
                "ridge %.3f FLOP/B)\n",
                machine.name.c_str(), machine.peak_bw_gbs,
                machine.bw_efficiency, machine.peak_gflops,
                ridge_intensity(machine));
  os << line;
  std::snprintf(line, sizeof line, "  %-12s %-8s %-10s %9s %10s %10s %8s %s\n",
                "kernel", "backend", "strategy", "I[F/B]", "GFLOP/s", "GB/s",
                "%ceil", "bound");
  os << line;
  for (const RooflinePoint& p : points) {
    std::snprintf(line, sizeof line,
                  "  %-12s %-8s %-10s %9.4f %10.3f %10.3f %7.1f%% %s\n",
                  p.kernel.c_str(), p.backend.c_str(), p.strategy.c_str(),
                  p.intensity, p.achieved_gflops, p.achieved_gbs,
                  100.0 * p.fraction_of_ceiling,
                  p.memory_bound ? "memory" : "compute");
    os << line;
  }
  return std::move(os).str();
}

}  // namespace gaia::metrics
