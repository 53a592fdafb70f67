#include "metrics/perf_baseline.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

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

void append_escaped(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

/// Minimal strict cursor over the baseline grammar (objects, arrays,
/// strings, numbers): one character of lookahead, no backtracking.
/// Baselines are written by our own tools; anything unexpected is an
/// error, not a guess.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  void consume(char c, const char* what) {
    skip_ws();
    GAIA_CHECK(pos_ < text_.size() && text_[pos_] == c,
               std::string("perf baseline: expected ") + what);
    ++pos_;
  }
  [[nodiscard]] bool peek(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }
  std::string parse_string() {
    consume('"', "string");
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) c = text_[pos_++];
      out.push_back(c);
    }
    consume('"', "closing quote");
    return out;
  }
  double parse_number() {
    skip_ws();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    GAIA_CHECK(end != start, "perf baseline: expected number");
    pos_ += static_cast<std::size_t>(end - start);
    return v;
  }
  [[nodiscard]] bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

KernelTiming parse_timing(JsonCursor& cur) {
  KernelTiming t;
  cur.consume('{', "'{'");
  bool first = true;
  while (!cur.peek('}')) {
    if (!first) cur.consume(',', "','");
    first = false;
    const std::string key = cur.parse_string();
    cur.consume(':', "':'");
    if (key == "kernel")
      t.kernel = cur.parse_string();
    else if (key == "backend")
      t.backend = cur.parse_string();
    else if (key == "strategy")
      t.strategy = cur.parse_string();
    else if (key == "layout")
      t.layout = cur.parse_string();
    else if (key == "precision")
      t.precision = cur.parse_string();
    else if (key == "median_seconds")
      t.median_seconds = cur.parse_number();
    else if (key == "samples")
      t.samples = static_cast<std::uint64_t>(cur.parse_number());
    else
      GAIA_CHECK(false, "perf baseline: unknown series key '" + key + "'");
  }
  cur.consume('}', "'}'");
  GAIA_CHECK(!t.kernel.empty(), "perf baseline: series without a kernel");
  return t;
}

}  // namespace

std::string PerfBaseline::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\n  \"version\": " << kVersion << ",\n  \"name\": ";
  append_escaped(os, name);
  os << ",\n  \"kernels\": [";
  bool first = true;
  for (const KernelTiming& t : kernels) {
    os << (first ? "\n" : ",\n") << "    {\"kernel\": ";
    append_escaped(os, t.kernel);
    os << ", \"backend\": ";
    append_escaped(os, t.backend);
    os << ", \"strategy\": ";
    append_escaped(os, t.strategy);
    os << ", \"layout\": ";
    append_escaped(os, t.layout);
    os << ", \"precision\": ";
    append_escaped(os, t.precision);
    os << ", \"median_seconds\": " << t.median_seconds
       << ", \"samples\": " << t.samples << '}';
    first = false;
  }
  os << "\n  ]\n}\n";
  return os.str();
}

PerfBaseline parse_baseline(const std::string& json) {
  JsonCursor cur(json);
  PerfBaseline out;
  bool saw_version = false;
  cur.consume('{', "'{'");
  bool first = true;
  while (!cur.peek('}')) {
    if (!first) cur.consume(',', "','");
    first = false;
    const std::string key = cur.parse_string();
    cur.consume(':', "':'");
    if (key == "version") {
      const int version = static_cast<int>(cur.parse_number());
      GAIA_CHECK(version == PerfBaseline::kVersion,
                 "perf baseline: unsupported version " +
                     std::to_string(version));
      saw_version = true;
    } else if (key == "name") {
      out.name = cur.parse_string();
    } else if (key == "kernels") {
      cur.consume('[', "'['");
      bool first_item = true;
      while (!cur.peek(']')) {
        if (!first_item) cur.consume(',', "','");
        first_item = false;
        out.kernels.push_back(parse_timing(cur));
      }
      cur.consume(']', "']'");
    } else {
      GAIA_CHECK(false, "perf baseline: unknown key '" + key + "'");
    }
  }
  cur.consume('}', "'}'");
  GAIA_CHECK(cur.at_end(), "perf baseline: trailing content");
  GAIA_CHECK(saw_version, "perf baseline: missing version");
  return out;
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
