#include "tuning/tuning_cache.hpp"

#include <bit>
#include <cctype>
#include <sstream>

#include "obs/metrics.hpp"
#include "resilience/checkpoint.hpp"
#include "util/error.hpp"

namespace gaia::tuning {

using backends::BackendKind;
using backends::KernelConfig;
using backends::KernelId;

ShapeBucket bucket_for(std::int64_t rows, std::int64_t cols) {
  const auto log2_floor = [](std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v < 1 ? 1 : v);
    return static_cast<std::int32_t>(std::bit_width(u) - 1);
  };
  return {log2_floor(rows), log2_floor(cols)};
}

std::string to_string(const ShapeBucket& bucket) {
  return "2^" + std::to_string(bucket.rows_log2) + " rows x 2^" +
         std::to_string(bucket.cols_log2) + " cols";
}

void TuningCache::put(BackendKind backend, ShapeBucket bucket,
                      KernelId kernel, KernelConfig config) {
  backends::validate_kernel_config(config, "TuningCache::put");
  entries_[make_key(backend, bucket, kernel)] = config;
}

std::optional<KernelConfig> TuningCache::find(BackendKind backend,
                                              ShapeBucket bucket,
                                              KernelId kernel) const {
  const auto it = entries_.find(make_key(backend, bucket, kernel));
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

int TuningCache::apply(BackendKind backend, ShapeBucket bucket,
                       backends::TuningTable& table) const {
  int applied = 0;
  for (KernelId id : backends::all_kernels()) {
    if (const auto cfg = find(backend, bucket, id)) {
      table.set(id, *cfg);
      ++applied;
    }
  }
  return applied;
}

bool TuningCache::complete_for(BackendKind backend, ShapeBucket bucket) const {
  for (KernelId id : backends::all_kernels()) {
    if (!find(backend, bucket, id)) return false;
  }
  return true;
}

std::string TuningCache::to_json() const {
  std::ostringstream os;
  os << "{\"version\":" << kSchemaVersion << ",\"entries\":[";
  bool first = true;
  for (const auto& [key, cfg] : entries_) {
    const auto& [backend, rows_log2, cols_log2, kernel] = key;
    if (!first) os << ',';
    first = false;
    os << "{\"backend\":\""
       << backends::to_string(static_cast<BackendKind>(backend))
       << "\",\"rows_log2\":" << rows_log2
       << ",\"cols_log2\":" << cols_log2 << ",\"kernel\":\""
       << backends::to_string(static_cast<KernelId>(kernel))
       << "\",\"blocks\":" << cfg.blocks << ",\"threads\":" << cfg.threads
       << '}';
  }
  os << "]}";
  return os.str();
}

namespace {

/// Minimal strict parser for the cache's own JSON subset: one top-level
/// object, one array of flat objects, values are strings or integers.
/// Any deviation fails the parse (the framing already guarantees the
/// bytes are what we wrote; this guards logical corruption and version
/// skew).
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
      const char c = text_[pos_++];
      if (c == '\\' || static_cast<unsigned char>(c) < 0x20) return false;
      out.push_back(c);
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }
  bool parse_int(std::int64_t& out) {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t digits = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (pos_ == digits) return false;
    out = std::stoll(text_.substr(start, pos_ - start));
    return true;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

struct RawEntry {
  std::string backend;
  std::string kernel;
  std::int64_t rows_log2 = 0;
  std::int64_t cols_log2 = 0;
  std::int64_t blocks = 0;
  std::int64_t threads = 0;
};

bool parse_entry(JsonCursor& cur, RawEntry& entry) {
  if (!cur.consume('{')) return false;
  bool first = true;
  while (!cur.peek('}')) {
    if (!first && !cur.consume(',')) return false;
    first = false;
    std::string key;
    if (!cur.parse_string(key) || !cur.consume(':')) return false;
    if (key == "backend") {
      if (!cur.parse_string(entry.backend)) return false;
    } else if (key == "kernel") {
      if (!cur.parse_string(entry.kernel)) return false;
    } else if (key == "rows_log2") {
      if (!cur.parse_int(entry.rows_log2)) return false;
    } else if (key == "cols_log2") {
      if (!cur.parse_int(entry.cols_log2)) return false;
    } else if (key == "blocks") {
      if (!cur.parse_int(entry.blocks)) return false;
    } else if (key == "threads") {
      if (!cur.parse_int(entry.threads)) return false;
    } else {
      return false;  // unknown key: strict
    }
  }
  return cur.consume('}');
}

void note_version_miss() {
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    static obs::Counter& misses = reg.counter("tuning.cache.version_miss");
    misses.add(1);
  }
}

}  // namespace

std::optional<TuningCache> TuningCache::parse_json(const std::string& text,
                                                   ParseStatus* status) {
  const auto fail = [&](ParseStatus why) -> std::optional<TuningCache> {
    if (status) *status = why;
    return std::nullopt;
  };
  JsonCursor cur(text);
  if (!cur.consume('{')) return fail(ParseStatus::kMalformed);
  std::optional<std::int64_t> version;
  bool saw_entries = false;
  TuningCache cache;
  bool first = true;
  while (!cur.peek('}')) {
    if (!first && !cur.consume(',')) return fail(ParseStatus::kMalformed);
    first = false;
    std::string key;
    if (!cur.parse_string(key) || !cur.consume(':'))
      return fail(ParseStatus::kMalformed);
    if (key == "version") {
      std::int64_t v = 0;
      if (!cur.parse_int(v)) return fail(ParseStatus::kMalformed);
      version = v;
      // An honest file of another schema version is a clean miss, not
      // corruption — report it as such without trusting its entries
      // (v1 predates the strategy axis, v2 the layout axis, v3 the
      // precision axis, v4 still carries the layout axis, v5 the
      // strategy axis and v6 the precision axis).
      if (v != kSchemaVersion) return fail(ParseStatus::kVersionMismatch);
    } else if (key == "entries") {
      saw_entries = true;
      if (!cur.consume('[')) return fail(ParseStatus::kMalformed);
      bool first_entry = true;
      while (!cur.peek(']')) {
        if (!first_entry && !cur.consume(','))
          return fail(ParseStatus::kMalformed);
        first_entry = false;
        RawEntry raw;
        if (!parse_entry(cur, raw)) return fail(ParseStatus::kMalformed);
        const auto backend = backends::parse_backend(raw.backend);
        const auto kernel = backends::parse_kernel_id(raw.kernel);
        if (!backend || !kernel) return fail(ParseStatus::kMalformed);
        if (raw.rows_log2 < 0 || raw.rows_log2 > 62 || raw.cols_log2 < 0 ||
            raw.cols_log2 > 62)
          return fail(ParseStatus::kMalformed);
        const KernelConfig cfg{static_cast<std::int32_t>(raw.blocks),
                               static_cast<std::int32_t>(raw.threads)};
        if (!backends::is_valid_kernel_config(cfg))
          return fail(ParseStatus::kMalformed);
        cache.put(*backend,
                  {static_cast<std::int32_t>(raw.rows_log2),
                   static_cast<std::int32_t>(raw.cols_log2)},
                  *kernel, cfg);
      }
      if (!cur.consume(']')) return fail(ParseStatus::kMalformed);
    } else {
      return fail(ParseStatus::kMalformed);
    }
  }
  if (!cur.consume('}') || !cur.at_end())
    return fail(ParseStatus::kMalformed);
  if (version != kSchemaVersion || !saw_entries)
    return fail(ParseStatus::kMalformed);  // both required
  if (status) *status = ParseStatus::kOk;
  return cache;
}

bool TuningCache::load(const std::string& path) {
  entries_.clear();
  std::string payload;
  try {
    payload = resilience::read_framed_file(path);
  } catch (const Error&) {
    return false;  // missing, truncated or corrupt: behave as empty
  }
  ParseStatus status = ParseStatus::kMalformed;
  auto parsed = parse_json(payload, &status);
  if (!parsed) {
    if (status == ParseStatus::kVersionMismatch) note_version_miss();
    return false;
  }
  entries_ = std::move(parsed->entries_);
  return true;
}

void TuningCache::save(const std::string& path) const {
  resilience::write_framed_file(path, to_json());
}

}  // namespace gaia::tuning
