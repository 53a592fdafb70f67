#include "obs/export.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>

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

std::string fmt(double v) {
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
    char* parse_end = nullptr;
    sample.value = std::strtod(line.c_str() + pos, &parse_end);
    if (parse_end == line.c_str() + pos) return std::nullopt;
    out.push_back(std::move(sample));
  }
  if (!saw_eof) return std::nullopt;
  return out;
}

// ---------------------------------------------------------------------------
// Snapshot JSON
// ---------------------------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Strict cursor over the snapshot's own JSON subset (objects, arrays,
/// strings, numbers and booleans; one character of lookahead). The
/// framing already guarantees the bytes are what we wrote; this guards
/// logical corruption and version skew.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool peek(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }
  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }
  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        c = text_[pos_++];
        if (c != '"' && c != '\\') return false;
      }
      out.push_back(c);
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }
  bool parse_number(double& out) {
    skip_ws();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    out = std::strtod(start, &end);
    if (end == start) return false;
    pos_ += static_cast<std::size_t>(end - start);
    return true;
  }
  bool parse_bool(bool& out) {
    skip_ws();
    if (text_.compare(pos_, 4, "true") == 0) {
      out = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out = false;
      pos_ += 5;
      return true;
    }
    return false;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

bool parse_metric_object(JsonCursor& cur, MetricRow& row) {
  if (!cur.consume('{')) return false;
  bool first = true;
  while (!cur.peek('}')) {
    if (!first && !cur.consume(',')) return false;
    first = false;
    std::string key;
    if (!cur.parse_string(key) || !cur.consume(':')) return false;
    double num = 0;
    if (key == "name") {
      if (!cur.parse_string(row.name)) return false;
    } else if (key == "type") {
      if (!cur.parse_string(row.type)) return false;
    } else if (key == "count") {
      if (!cur.parse_number(num) || num < 0) return false;
      row.count = static_cast<std::uint64_t>(num);
    } else if (key == "sum") {
      if (!cur.parse_number(row.sum)) return false;
    } else if (key == "min") {
      if (!cur.parse_number(row.min)) return false;
    } else if (key == "max") {
      if (!cur.parse_number(row.max)) return false;
    } else if (key == "last") {
      if (!cur.parse_number(row.last)) return false;
    } else if (key == "p50") {
      if (!cur.parse_number(row.p50)) return false;
    } else if (key == "p95") {
      if (!cur.parse_number(row.p95)) return false;
    } else if (key == "p99") {
      if (!cur.parse_number(row.p99)) return false;
    } else {
      return false;  // unknown key: strict
    }
  }
  return cur.consume('}') && !row.name.empty() && !row.type.empty();
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

std::string snapshot_json(const std::vector<MetricRow>& rows,
                          const SnapshotMeta& meta) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"version\":" << kSnapshotVersion << ",\"rank\":" << meta.rank
     << ",\"ranks\":" << meta.ranks << ",\"complete\":"
     << (meta.complete ? "true" : "false") << ",\"metrics\":[";
  bool first = true;
  for (const MetricRow& r : rows) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(r.name) << "\",\"type\":\"" << r.type
       << "\",\"count\":" << r.count << ",\"sum\":" << r.sum
       << ",\"min\":" << r.min << ",\"max\":" << r.max
       << ",\"last\":" << r.last << ",\"p50\":" << r.p50
       << ",\"p95\":" << r.p95 << ",\"p99\":" << r.p99 << '}';
  }
  os << "]}";
  return os.str();
}

std::optional<std::vector<MetricRow>> parse_snapshot_json(
    const std::string& text, SnapshotMeta* meta) {
  JsonCursor cur(text);
  if (!cur.consume('{')) return std::nullopt;
  std::optional<double> version;
  SnapshotMeta parsed_meta;
  std::vector<MetricRow> rows;
  bool saw_metrics = false;
  bool first = true;
  while (!cur.peek('}')) {
    if (!first && !cur.consume(',')) return std::nullopt;
    first = false;
    std::string key;
    if (!cur.parse_string(key) || !cur.consume(':')) return std::nullopt;
    double num = 0;
    if (key == "version") {
      if (!cur.parse_number(num)) return std::nullopt;
      version = num;
    } else if (key == "rank") {
      if (!cur.parse_number(num)) return std::nullopt;
      parsed_meta.rank = static_cast<int>(num);
    } else if (key == "ranks") {
      if (!cur.parse_number(num)) return std::nullopt;
      parsed_meta.ranks = static_cast<int>(num);
    } else if (key == "complete") {
      if (!cur.parse_bool(parsed_meta.complete)) return std::nullopt;
    } else if (key == "metrics") {
      if (!cur.consume('[')) return std::nullopt;
      saw_metrics = true;
      bool first_row = true;
      while (!cur.peek(']')) {
        if (!first_row && !cur.consume(',')) return std::nullopt;
        first_row = false;
        MetricRow row;
        if (!parse_metric_object(cur, row)) return std::nullopt;
        rows.push_back(std::move(row));
      }
      if (!cur.consume(']')) return std::nullopt;
    } else {
      return std::nullopt;
    }
  }
  if (!cur.consume('}') || !cur.at_end()) return std::nullopt;
  if (!version || static_cast<int>(*version) != kSnapshotVersion ||
      !saw_metrics)
    return std::nullopt;
  if (meta) *meta = parsed_meta;
  return rows;
}

void write_snapshot_file(const std::string& path,
                         const std::vector<MetricRow>& rows,
                         const SnapshotMeta& meta) {
  util::write_framed_file(path, snapshot_json(rows, meta), kSnapshotKind);
}

std::vector<MetricRow> read_snapshot_file(const std::string& path,
                                          SnapshotMeta* meta) {
  const std::string payload = util::read_framed_file(path, kSnapshotKind);
  auto rows = parse_snapshot_json(payload, meta);
  GAIA_CHECK(rows.has_value(), "corrupt metrics snapshot '" + path +
                                   "': framed payload is not a version-" +
                                   std::to_string(kSnapshotVersion) +
                                   " snapshot");
  return std::move(*rows);
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
