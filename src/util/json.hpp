/// \file json.hpp
/// \brief Minimal strict JSON document parser (RFC 8259 subset).
///
/// The repo's sealed formats (metrics snapshot, perf baseline) use
/// purpose-built cursor parsers because their schemas are fixed. Trace
/// documents are different: span `args` objects carry arbitrary keys and
/// nesting, so the trace merger and the critical-path analyzer need a
/// generic value tree. This is that tree — a strict recursive-descent
/// parser that rejects trailing garbage, bare control characters and
/// malformed escapes with a positioned `gaia::Error`, never a silent
/// partial parse (a torn trace must fail loudly, see obs/trace_merge).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace gaia::util {

/// One JSON value. Object member order is preserved (trace events are
/// re-rendered after a merge and should stay diffable against their
/// source files).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup (first match); nullptr when absent or when
  /// this value is not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Member as a number; `fallback` when absent or not numeric.
  [[nodiscard]] double number_or(const std::string& key,
                                 double fallback) const;

  /// Renders the value back to compact JSON (strings escaped, non-finite
  /// numbers clamped to 0 — JSON has no inf/nan).
  [[nodiscard]] std::string dump() const;
};

/// Parses exactly one JSON document. Throws gaia::Error (with the byte
/// offset of the problem) on malformed input, including trailing
/// non-whitespace after the document.
[[nodiscard]] JsonValue parse_json(const std::string& text);

}  // namespace gaia::util
