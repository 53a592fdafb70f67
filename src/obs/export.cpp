#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <string_view>
#include <utility>

#include "obs/perf_counters.hpp"
#include "util/error.hpp"
#include "util/framed_file.hpp"

namespace gaia::obs {

namespace {

/// OpenMetrics metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Registry names
/// use dots as separators; everything else collapses to '_'.
std::string sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, 1, '_');
  return out;
}

/// A sample value as the OpenMetrics grammar spells it: `NaN`, `+Inf`
/// and `-Inf` when non-finite, 17 significant digits otherwise.
std::string fmt(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// OpenMetrics label-value escaping: backslash, double-quote and
/// line-feed must be escaped inside the quoted value (the spec's three
/// mandatory escapes); everything else passes through verbatim.
std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string labels_of(const KernelSeriesName& k) {
  return "kernel=\"" + escape_label_value(k.kernel) + "\",backend=\"" +
         escape_label_value(k.backend) + "\",strategy=\"" +
         escape_label_value(k.strategy) + "\"";
}

/// One exposition family: the `# TYPE` header plus its sample lines
/// (OpenMetrics requires all samples of a family to be contiguous, so
/// rows are bucketed by family before rendering).
struct Family {
  std::string type;  ///< "counter" | "gauge" | "summary"
  std::vector<std::string> samples;
};

void add_row(std::map<std::string, Family>& families, const MetricRow& row) {
  KernelSeriesName k;
  const bool kernel_series = parse_kernel_series(row.name, k);
  const std::string labels = kernel_series ? labels_of(k) : std::string();
  const std::string family_name =
      kernel_series ? "gaia_kernel_" + sanitize(k.field)
                    : "gaia_" + sanitize(row.name);
  Family& fam = families[family_name];
  const auto sample = [&](const std::string& suffix,
                          const std::string& extra_labels, double value) {
    std::string line = family_name + suffix;
    std::string all = labels;
    if (!extra_labels.empty()) {
      if (!all.empty()) all += ',';
      all += extra_labels;
    }
    if (!all.empty()) line += '{' + all + '}';
    line += ' ' + fmt(value);
    fam.samples.push_back(std::move(line));
  };
  if (row.type == "counter") {
    fam.type = "counter";
    sample("_total", "", row.sum);
  } else if (row.type == "gauge") {
    fam.type = "gauge";
    sample("", "", row.last);
  } else {  // histogram -> OpenMetrics summary
    fam.type = "summary";
    sample("", "quantile=\"0.5\"", row.p50);
    sample("", "quantile=\"0.95\"", row.p95);
    sample("", "quantile=\"0.99\"", row.p99);
    sample("_count", "", static_cast<double>(row.count));
    sample("_sum", "", row.sum);
  }
}

}  // namespace

std::string to_openmetrics(const std::vector<MetricRow>& rows) {
  std::map<std::string, Family> families;
  for (const MetricRow& row : rows) add_row(families, row);
  std::ostringstream os;
  for (const auto& [name, fam] : families) {
    os << "# TYPE " << name << ' ' << fam.type << '\n';
    for (const std::string& line : fam.samples) os << line << '\n';
  }
  os << "# EOF\n";
  return os.str();
}

std::string MetricsRegistry::openmetrics() const {
  return to_openmetrics(snapshot());
}

void MetricsRegistry::write_openmetrics(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  GAIA_CHECK(f.good(), "cannot open metrics output: " + path);
  f << openmetrics();
  GAIA_CHECK(f.good(), "metrics write failed: " + path);
}

const std::string* OpenMetricsSample::label(const std::string& key) const {
  for (const auto& [k, v] : labels)
    if (k == key) return &v;
  return nullptr;
}

std::optional<std::vector<OpenMetricsSample>> parse_openmetrics(
    const std::string& text) {
  std::vector<OpenMetricsSample> out;
  std::istringstream is(text);
  std::string line;
  bool saw_eof = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line == "# EOF") saw_eof = true;
      continue;
    }
    if (saw_eof) return std::nullopt;  // samples after the terminator
    OpenMetricsSample sample;
    std::size_t pos = line.find_first_of("{ ");
    if (pos == std::string::npos) return std::nullopt;
    sample.name = line.substr(0, pos);
    if (line[pos] == '{') {
      // Locate the closing brace outside any quoted label value ('}'
      // and ',' are legal inside values, and '"' may appear escaped).
      std::size_t close = std::string::npos;
      bool in_quotes = false;
      for (std::size_t c = pos + 1; c < line.size(); ++c) {
        const char ch = line[c];
        if (in_quotes) {
          if (ch == '\\')
            ++c;  // skip the escaped character
          else if (ch == '"')
            in_quotes = false;
        } else if (ch == '"') {
          in_quotes = true;
        } else if (ch == '}') {
          close = c;
          break;
        }
      }
      if (close == std::string::npos) return std::nullopt;
      std::string body = line.substr(pos + 1, close - pos - 1);
      std::size_t i = 0;
      while (i < body.size()) {
        const std::size_t eq = body.find("=\"", i);
        if (eq == std::string::npos) return std::nullopt;
        // Scan the quoted value unescaping \\, \" and \n (the label
        // escapes to_openmetrics emits); an unknown escape or an
        // unterminated value is malformed.
        std::string value;
        std::size_t j = eq + 2;
        bool closed = false;
        while (j < body.size()) {
          const char c = body[j];
          if (c == '"') {
            closed = true;
            ++j;
            break;
          }
          if (c == '\\') {
            if (j + 1 >= body.size()) return std::nullopt;
            const char esc = body[j + 1];
            if (esc == '\\')
              value.push_back('\\');
            else if (esc == '"')
              value.push_back('"');
            else if (esc == 'n')
              value.push_back('\n');
            else
              return std::nullopt;
            j += 2;
            continue;
          }
          value.push_back(c);
          ++j;
        }
        if (!closed) return std::nullopt;
        sample.labels.emplace_back(body.substr(i, eq - i), std::move(value));
        i = j;
        if (i < body.size()) {
          if (body[i] != ',') return std::nullopt;
          ++i;
        }
      }
      pos = close + 1;
    }
    while (pos < line.size() && line[pos] == ' ') ++pos;
    if (pos >= line.size()) return std::nullopt;
    // The value token: a finite number read whole, or one of the
    // grammar's three non-finite spellings (strtod's `nan`, `-nan` and
    // `inf` are not among them).
    const std::size_t value_end = std::min(line.find(' ', pos), line.size());
    const std::string token = line.substr(pos, value_end - pos);
    if (token == "NaN") {
      sample.value = std::numeric_limits<double>::quiet_NaN();
    } else if (token == "+Inf" || token == "-Inf") {
      sample.value = token[0] == '+' ? std::numeric_limits<double>::infinity()
                                     : -std::numeric_limits<double>::infinity();
    } else {
      char* parse_end = nullptr;
      sample.value = std::strtod(token.c_str(), &parse_end);
      if (token.empty() || parse_end != token.c_str() + token.size() ||
          !std::isfinite(sample.value))
        return std::nullopt;
    }
    out.push_back(std::move(sample));
  }
  if (!saw_eof) return std::nullopt;
  return out;
}

// ---------------------------------------------------------------------------
// Snapshot JSON
// ---------------------------------------------------------------------------

namespace {

/// The measurements of a MetricRow, in their key order.
constexpr std::pair<std::string_view, double MetricRow::*> kMeasurements[] = {
    {"sum", &MetricRow::sum}, {"min", &MetricRow::min},
    {"max", &MetricRow::max}, {"last", &MetricRow::last},
    {"p50", &MetricRow::p50}, {"p95", &MetricRow::p95},
    {"p99", &MetricRow::p99}};

/// Strict walk of a snapshot document; throws gaia::Error naming the
/// first violation.
std::vector<MetricRow> parse_snapshot(const std::string& text,
                                      SnapshotMeta* meta) {
  const util::JsonValue doc = util::parse_json(text);
  if (!doc.is_object()) throw Error("snapshot is not a JSON object");
  SnapshotMeta parsed_meta;
  std::vector<MetricRow> rows;
  bool saw_version = false;
  bool saw_metrics = false;
  for (const auto& [key, value] : doc.object) {
    if (key == "version") {
      if (!value.is_number() || value.number != kSnapshotVersion)
        throw Error("snapshot version is not " +
                    std::to_string(kSnapshotVersion));
      saw_version = true;
    } else if (key == "rank" || key == "ranks") {
      if (!value.is_number()) throw Error("'" + key + "' is not a number");
      (key == "rank" ? parsed_meta.rank : parsed_meta.ranks) =
          static_cast<int>(value.number);
    } else if (key == "complete") {
      if (!value.is_bool()) throw Error("'complete' is not a boolean");
      parsed_meta.complete = value.boolean;
    } else if (key == "metrics") {
      if (!value.is_array()) throw Error("'metrics' is not an array");
      saw_metrics = true;
      for (const util::JsonValue& row : value.array)
        rows.push_back(parse_metric_row(row));
    } else {
      throw Error("unknown snapshot key '" + key + "'");
    }
  }
  if (!saw_version || !saw_metrics)
    throw Error("snapshot lacks 'version' or 'metrics'");
  if (meta) *meta = parsed_meta;
  return rows;
}

constexpr const char* kSnapshotKind = "metrics snapshot";

struct GlobalSink {
  std::mutex mutex;
  std::string path;
  SnapshotMeta meta;
};

GlobalSink& sink() {
  static GlobalSink s;
  return s;
}

}  // namespace

std::string metric_row_json(const MetricRow& row) {
  std::string out = "{\"name\":" + util::json_quote(row.name) +
                    ",\"type\":" + util::json_quote(row.type) +
                    ",\"count\":" + std::to_string(row.count);
  for (const auto& [key, field] : kMeasurements) {
    out += ",\"";
    out += key;
    out += "\":" + util::json_number(row.*field);
  }
  out += '}';
  return out;
}

MetricRow parse_metric_row(const util::JsonValue& value) {
  if (!value.is_object()) throw Error("metric row is not an object");
  MetricRow row;
  for (const auto& [key, member] : value.object) {
    if (key == "name" || key == "type") {
      if (!member.is_string() || member.string.empty())
        throw Error("metric row '" + key + "' is not a non-empty string");
      (key == "name" ? row.name : row.type) = member.string;
    } else if (key == "count") {
      if (!member.is_number() || !(member.number >= 0))
        throw Error("metric row 'count' is not a non-negative number");
      row.count = static_cast<std::uint64_t>(member.number);
    } else {
      const auto* m = std::find_if(
          std::begin(kMeasurements), std::end(kMeasurements),
          [&key](const auto& kv) { return kv.first == key; });
      if (m == std::end(kMeasurements))
        throw Error("unknown metric row key '" + key + "'");
      row.*(m->second) = member.number_or_nan(key);
    }
  }
  if (row.name.empty() || row.type.empty())
    throw Error("metric row without a name or type");
  return row;
}

std::string snapshot_json(const std::vector<MetricRow>& rows,
                          const SnapshotMeta& meta) {
  std::string out = "{\"version\":" + std::to_string(kSnapshotVersion) +
                    ",\"rank\":" + std::to_string(meta.rank) +
                    ",\"ranks\":" + std::to_string(meta.ranks) +
                    ",\"complete\":" + (meta.complete ? "true" : "false") +
                    ",\"metrics\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i) out += ',';
    out += metric_row_json(rows[i]);
  }
  out += "]}";
  return out;
}

std::optional<std::vector<MetricRow>> parse_snapshot_json(
    const std::string& text, SnapshotMeta* meta) {
  try {
    return parse_snapshot(text, meta);
  } catch (const Error&) {
    return std::nullopt;
  }
}

void write_snapshot_file(const std::string& path,
                         const std::vector<MetricRow>& rows,
                         const SnapshotMeta& meta) {
  util::write_framed_file(path, snapshot_json(rows, meta), kSnapshotKind);
}

std::vector<MetricRow> read_snapshot_file(const std::string& path,
                                          SnapshotMeta* meta) {
  const std::string payload = util::read_framed_file(path, kSnapshotKind);
  try {
    return parse_snapshot(payload, meta);
  } catch (const Error& e) {
    throw Error("corrupt metrics snapshot '" + path + "': " + e.what());
  }
}

void set_global_snapshot_path(const std::string& path) {
  std::lock_guard<std::mutex> lock(sink().mutex);
  sink().path = path;
  sink().meta = SnapshotMeta{};
}

std::string global_snapshot_path() {
  std::lock_guard<std::mutex> lock(sink().mutex);
  return sink().path;
}

void set_global_snapshot_meta(const SnapshotMeta& meta) {
  std::lock_guard<std::mutex> lock(sink().mutex);
  sink().meta = meta;
}

void flush_global_snapshot() {
  std::string path;
  SnapshotMeta meta;
  {
    std::lock_guard<std::mutex> lock(sink().mutex);
    if (sink().path.empty()) return;
    path = sink().path;
    meta = sink().meta;
  }
  try {
    write_snapshot_file(path, MetricsRegistry::global().snapshot(), meta);
  } catch (const std::exception& e) {
    std::cerr << "metrics snapshot flush failed: " << e.what() << '\n';
  }
}

}  // namespace gaia::obs
