#include "obs/perf_counters.hpp"

#include <string_view>

#include "obs/metrics.hpp"

namespace gaia::obs {

std::string kernel_series_name(const std::string& kernel,
                               const std::string& backend,
                               const std::string& strategy,
                               const std::string& field) {
  std::string name;
  name.reserve(7 + kernel.size() + backend.size() + strategy.size() +
               field.size() + 4);
  name += "kernel.";
  name += kernel;
  name += '.';
  name += backend;
  name += '.';
  name += strategy;
  name += '.';
  name += field;
  return name;
}

bool parse_kernel_series(const std::string& name, KernelSeriesName& out) {
  // kernel.<k>.<b>.<s>.<field> — exactly five dot-separated segments,
  // the first being the literal "kernel" (none of the label values
  // contain dots).
  constexpr std::string_view kPrefix = "kernel.";
  if (name.rfind(kPrefix, 0) != 0) return false;
  const std::size_t k0 = kPrefix.size();
  const std::size_t d1 = name.find('.', k0);
  if (d1 == std::string::npos) return false;
  const std::size_t d2 = name.find('.', d1 + 1);
  if (d2 == std::string::npos) return false;
  const std::size_t d3 = name.find('.', d2 + 1);
  if (d3 == std::string::npos || name.find('.', d3 + 1) != std::string::npos)
    return false;
  out.kernel = name.substr(k0, d1 - k0);
  out.backend = name.substr(d1 + 1, d2 - d1 - 1);
  out.strategy = name.substr(d2 + 1, d3 - d2 - 1);
  out.field = name.substr(d3 + 1);
  return !out.kernel.empty() && !out.backend.empty() &&
         !out.strategy.empty() && !out.field.empty();
}

void record_kernel_sample(const KernelSample& s) {
  auto& reg = MetricsRegistry::global();
  if (!reg.enabled()) return;
  const auto field = [&](const char* f) {
    return kernel_series_name(s.kernel, s.backend, s.strategy, f);
  };
  reg.counter(field("launches")).add(1);
  reg.counter(field("bytes")).add(s.bytes);
  reg.counter(field("flops")).add(s.flops);
  reg.histogram(field("time_seconds")).record(s.seconds);
  if (s.seconds > 0)
    reg.gauge(field("bandwidth_bytes_per_s"))
        .set(static_cast<double>(s.bytes) / s.seconds);
}

}  // namespace gaia::obs
