/// \file json.hpp
/// \brief The repo's one JSON codec: a strict parser and the two writer
/// primitives every JSON document is spelled with.
///
/// Every JSON reader (traces, metrics snapshots, postmortem bundles, perf
/// baselines) is `parse_json` plus a schema walk over the value tree.
/// The parser is strict recursive descent: trailing garbage, bare
/// control characters, malformed escapes and nesting deeper than
/// `kJsonMaxDepth` fail with a positioned `gaia::Error`, never a silent
/// partial parse (a torn trace must fail loudly, see obs/trace_merge).
///
/// Every JSON writer keeps its own document layout but spells its
/// strings with `json_quote` and its numbers with `json_number`, so the
/// escaping rule and the number rule live here only. Writers stream
/// (a trace can hold 1M events); only re-rendered trees use `dump`.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gaia::util {

/// Deepest array/object nesting `parse_json` accepts. A trace nests 4
/// levels and a postmortem bundle 3; the bound keeps a hostile input
/// from recursing the parser off its stack.
inline constexpr int kJsonMaxDepth = 256;

/// `s` as a JSON string literal, quotes included. `"` and `\` are
/// escaped, \b \f \n \r \t use their short forms, other bytes below 0x20
/// become \u00xx, and every other byte (UTF-8 included) passes through.
[[nodiscard]] std::string json_quote(std::string_view s);

/// `v` as a JSON number: the shortest %g text (15 to 17 significant
/// digits) that parses back to the same double, so integral values
/// below 1e15 print as integers. NaN and ±inf are written as `null`:
/// JSON cannot spell them, and 0 would be a false reading (an arnorm
/// of 0 means LSQR converged). Readers take `null` back as NaN.
[[nodiscard]] std::string json_number(double v);

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

  /// This value read back as `json_number` wrote it: a number as itself,
  /// `null` as NaN. Throws gaia::Error naming `key` for any other kind.
  [[nodiscard]] double number_or_nan(std::string_view key) const;

  /// Renders the value back to compact JSON through `json_quote` and
  /// `json_number`.
  [[nodiscard]] std::string dump() const;
};

/// Parses exactly one JSON document. Throws gaia::Error (with the byte
/// offset of the problem) on malformed input, including trailing
/// non-whitespace after the document and nesting past `kJsonMaxDepth`.
[[nodiscard]] JsonValue parse_json(const std::string& text);

}  // namespace gaia::util
