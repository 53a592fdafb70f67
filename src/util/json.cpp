#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/error.hpp"

namespace gaia::util {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw Error("JSON parse error at byte " + std::to_string(pos_) + ": " +
                why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void literal(const char* word, std::size_t n) {
    if (text_.compare(pos_, n, word) != 0)
      fail(std::string("bad literal (expected ") + word + ")");
    pos_ += n;
  }

  /// `depth` counts the arrays and objects enclosing this value.
  JsonValue parse_value(int depth) {
    const char c = peek();
    if ((c == '{' || c == '[') && depth == kJsonMaxDepth)
      fail("nesting deeper than " + std::to_string(kJsonMaxDepth) +
           " levels");
    JsonValue v;
    switch (c) {
      case '{':
        return parse_object(depth + 1);
      case '[':
        return parse_array(depth + 1);
      case '"':
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      case 't':
        literal("true", 4);
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      case 'f':
        literal("false", 5);
        v.kind = JsonValue::Kind::kBool;
        v.boolean = false;
        return v;
      case 'n':
        literal("null", 4);
        return v;
      default:
        return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      if (peek() != '"') fail("object key must be a string");
      std::string key = parse_string();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value(depth));
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value(depth));
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("bare control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode the BMP codepoint (the recorder only escapes
          // control characters, but accept the full range).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape character");
      }
    }
    fail("unterminated string");
  }

  JsonValue parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
      return pos_ > before;
    };
    const std::size_t int_start = pos_;
    if (!digits()) fail("malformed number");
    // JSON forbids leading zeros: "0" is fine, "01" is not.
    if (pos_ - int_start > 1 && text_[int_start] == '0')
      fail("malformed number (leading zero)");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("malformed number (no fraction digits)");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!digits()) fail("malformed number (no exponent digits)");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(text_.c_str() + start, nullptr);
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  // to_chars/from_chars: locale-free, and several times cheaper than a
  // stream (the solver formats span args even with tracing off).
  char buf[32];
  char* end = buf;
  for (const int digits : {15, 16, 17}) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        digits)
              .ptr;
    double back = 0;
    std::from_chars(buf, end, back);
    if (back == v) break;
  }
  return {buf, end};
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v && v->is_number() ? v->number : fallback;
}

double JsonValue::number_or_nan(std::string_view key) const {
  if (is_number()) return number;
  if (is_null()) return std::numeric_limits<double>::quiet_NaN();
  throw Error("JSON member '" + std::string(key) +
              "' is not a number or null");
}

std::string JsonValue::dump() const {
  switch (kind) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return boolean ? "true" : "false";
    case Kind::kNumber:
      return json_number(number);
    case Kind::kString:
      return json_quote(string);
    case Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i) out += ',';
        out += array[i].dump();
      }
      return out + ']';
    }
    case Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < object.size(); ++i) {
        if (i) out += ',';
        out += json_quote(object[i].first) + ':' + object[i].second.dump();
      }
      return out + '}';
    }
  }
  return "null";  // unreachable
}

JsonValue parse_json(const std::string& text) {
  Parser parser(text);
  return parser.parse_document();
}

}  // namespace gaia::util
