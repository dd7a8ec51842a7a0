// Minimal JSON support: an escaping string writer for the telemetry
// exporters and a validating recursive-descent parser used by tests (and
// any tool that wants to read metrics.json / trace.json back).
//
// The parser builds a full document tree; it is meant for small
// machine-readable artifacts, not for streaming gigabyte traces. Numbers
// are stored as double, which is exact for the integer counters we emit
// up to 2^53 — far beyond anything the simulator produces.
#pragma once

#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace dnnd::util::json {

/// Writes `s` as a JSON string literal (quotes + escapes).
inline void write_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

class Value;
using Array = std::vector<Value>;
/// std::map keeps member iteration deterministic for test assertions.
using Object = std::map<std::string, Value, std::less<>>;

class Value {
 public:
  using Storage =
      std::variant<std::nullptr_t, bool, double, std::string, Array, Object>;

  Value() : storage_(nullptr) {}
  Value(Storage storage) : storage_(std::move(storage)) {}

  [[nodiscard]] bool is_object() const { return holds<Object>(); }

  [[nodiscard]] bool as_bool() const { return get<bool>(); }
  [[nodiscard]] double as_number() const { return get<double>(); }
  [[nodiscard]] const std::string& as_string() const {
    return get<std::string>();
  }
  [[nodiscard]] const Array& as_array() const { return get<Array>(); }
  [[nodiscard]] const Object& as_object() const { return get<Object>(); }

  /// Object member access; throws on missing key or non-object.
  [[nodiscard]] const Value& at(std::string_view key) const {
    const auto& obj = as_object();
    const auto it = obj.find(key);
    if (it == obj.end()) {
      throw std::out_of_range("json: missing key '" + std::string(key) + "'");
    }
    return it->second;
  }
  [[nodiscard]] bool contains(std::string_view key) const {
    return is_object() && as_object().find(key) != as_object().end();
  }

 private:
  template <typename T>
  [[nodiscard]] bool holds() const {
    return std::holds_alternative<T>(storage_);
  }
  template <typename T>
  [[nodiscard]] const T& get() const {
    if (!holds<T>()) throw std::runtime_error("json: wrong value type");
    return std::get<T>(storage_);
  }

  Storage storage_;
};

namespace detail {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
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

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value(nullptr);
      default: return Value(parse_number());
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      obj.emplace(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    return Value(std::move(obj));
  }

  Value parse_array() {
    expect('[');
    Array arr;
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    return Value(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape digit");
            }
            // ASCII-only emitter; non-ASCII escapes round-trip as '?'.
            out += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("expected number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("expected fraction digits");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail("expected exponent digits");
    }
    return std::stod(std::string(text_.substr(start, pos_ - start)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// Parses a complete JSON document; throws std::runtime_error on malformed
/// input (including trailing garbage).
[[nodiscard]] inline Value parse(std::string_view text) {
  return detail::Parser(text).parse_document();
}

}  // namespace dnnd::util::json
