#include "metrics/perf_baseline.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>
#include <utility>

#include "util/error.hpp"
#include "util/json.hpp"

namespace gaia::metrics {

const KernelTiming* PerfBaseline::find(const std::string& kernel,
                                       const std::string& backend,
                                       const std::string& strategy,
                                       const std::string& layout,
                                       const std::string& precision) const {
  for (const KernelTiming& t : kernels)
    if (t.kernel == kernel && t.backend == backend &&
        t.strategy == strategy && t.layout == layout &&
        t.precision == precision)
      return &t;
  return nullptr;
}

namespace {

/// The label members of a series, in their key order.
constexpr std::pair<std::string_view, std::string KernelTiming::*> kLabels[] =
    {{"kernel", &KernelTiming::kernel},
     {"backend", &KernelTiming::backend},
     {"strategy", &KernelTiming::strategy},
     {"layout", &KernelTiming::layout},
     {"precision", &KernelTiming::precision}};

KernelTiming parse_timing(const util::JsonValue& v) {
  if (!v.is_object()) throw Error("series is not an object");
  KernelTiming t;
  for (const auto& [key, value] : v.object) {
    const auto* label =
        std::find_if(std::begin(kLabels), std::end(kLabels),
                     [&key](const auto& kv) { return kv.first == key; });
    if (label != std::end(kLabels)) {
      if (!value.is_string())
        throw Error("series key '" + key + "' is not a string");
      t.*(label->second) = value.string;
    } else if (key == "median_seconds") {
      t.median_seconds = value.number_or_nan(key);
    } else if (key == "samples") {
      if (!value.is_number() || !(value.number >= 0))
        throw Error("series 'samples' is not a non-negative number");
      t.samples = static_cast<std::uint64_t>(value.number);
    } else {
      throw Error("unknown series key '" + key + "'");
    }
  }
  if (t.kernel.empty()) throw Error("series without a kernel");
  return t;
}

PerfBaseline walk_baseline(const util::JsonValue& doc) {
  if (!doc.is_object()) throw Error("document is not an object");
  PerfBaseline out;
  bool saw_version = false;
  for (const auto& [key, value] : doc.object) {
    if (key == "version") {
      if (!value.is_number() || value.number != PerfBaseline::kVersion)
        throw Error("unsupported version " + value.dump());
      saw_version = true;
    } else if (key == "name") {
      if (!value.is_string()) throw Error("'name' is not a string");
      out.name = value.string;
    } else if (key == "kernels") {
      if (!value.is_array()) throw Error("'kernels' is not an array");
      for (const util::JsonValue& series : value.array)
        out.kernels.push_back(parse_timing(series));
    } else {
      throw Error("unknown key '" + key + "'");
    }
  }
  if (!saw_version) throw Error("missing version");
  return out;
}

}  // namespace

std::string PerfBaseline::to_json() const {
  std::ostringstream os;
  os << "{\n  \"version\": " << kVersion
     << ",\n  \"name\": " << util::json_quote(name) << ",\n  \"kernels\": [";
  bool first = true;
  for (const KernelTiming& t : kernels) {
    os << (first ? "\n" : ",\n") << "    {";
    for (const auto& [key, field] : kLabels)
      os << '"' << key << "\": " << util::json_quote(t.*field) << ", ";
    os << "\"median_seconds\": " << util::json_number(t.median_seconds)
       << ", \"samples\": " << t.samples << '}';
    first = false;
  }
  os << "\n  ]\n}\n";
  return os.str();
}

PerfBaseline parse_baseline(const std::string& json) {
  try {
    return walk_baseline(util::parse_json(json));
  } catch (const Error& e) {
    throw Error(std::string("perf baseline: ") + e.what());
  }
}

PerfBaseline load_baseline(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  GAIA_CHECK(f.good(), "cannot open perf baseline: " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse_baseline(buf.str());
}

void save_baseline(const std::string& path, const PerfBaseline& baseline) {
  std::ofstream f(path, std::ios::trunc);
  GAIA_CHECK(f.good(), "cannot open perf baseline for writing: " + path);
  f << baseline.to_json();
  GAIA_CHECK(f.good(), "perf baseline write failed: " + path);
}

std::string GateReport::to_string() const {
  std::ostringstream os;
  const auto line = [&os](const char* tag, const GateFinding& f) {
    os << "  " << tag << ' ' << f.kernel << '/' << f.backend << '/'
       << f.strategy << '/' << f.layout << '/' << f.precision << ": "
       << f.old_seconds << "s -> " << f.new_seconds << "s";
    if (f.ratio > 0) os << " (x" << f.ratio << ')';
    os << '\n';
  };
  for (const GateFinding& f : regressions) line("REGRESSION", f);
  for (const GateFinding& f : missing) line("MISSING", f);
  for (const GateFinding& f : improvements) line("improvement", f);
  os << (pass ? "PASS" : "FAIL") << ": " << regressions.size()
     << " regression(s), " << missing.size() << " missing, "
     << improvements.size() << " improvement(s)\n";
  return os.str();
}

GateReport perf_gate(const PerfBaseline& base, const PerfBaseline& next,
                     const GateOptions& options) {
  GateReport report;
  for (const KernelTiming& old_t : base.kernels) {
    GateFinding f;
    f.kernel = old_t.kernel;
    f.backend = old_t.backend;
    f.strategy = old_t.strategy;
    f.layout = old_t.layout;
    f.precision = old_t.precision;
    f.old_seconds = old_t.median_seconds;
    const KernelTiming* new_t =
        next.find(old_t.kernel, old_t.backend, old_t.strategy, old_t.layout,
                  old_t.precision);
    if (new_t == nullptr) {
      report.missing.push_back(f);
      if (!options.allow_missing) report.pass = false;
      continue;
    }
    f.new_seconds = new_t->median_seconds;
    if (old_t.median_seconds > 0)
      f.ratio = new_t->median_seconds / old_t.median_seconds;
    if (f.ratio > 1.0 + options.tolerance) {
      report.regressions.push_back(f);
      report.pass = false;
    } else if (f.ratio > 0 && f.ratio < 1.0 / (1.0 + options.tolerance)) {
      report.improvements.push_back(f);
    }
  }
  return report;
}

}  // namespace gaia::metrics
