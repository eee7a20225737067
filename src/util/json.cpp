#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace ostro::util {
namespace {

/// Deepest array/object nesting the parser accepts.  The descent recurses
/// once per level, so without a limit one hostile line of brackets
/// overflows the stack; past it parsing fails like any malformed input.
constexpr std::size_t kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) +
                    ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  [[nodiscard]] char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        ++depth_;
        Json nested = c == '{' ? parse_object() : parse_array();
        --depth_;
        return nested;
      }
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject object;
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    for (;;) {
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      expect(':');
      object[std::move(key)] = parse_value();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Json(std::move(object));
      }
      fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    JsonArray array;
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    for (;;) {
      array.push_back(parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Json(std::move(array));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': append_unicode_escape(out); break;
          default: fail("invalid escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out.push_back(c);
      }
    }
    fail("unterminated string");
  }

  void append_unicode_escape(std::string& out) {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code += static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code += static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code += static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    // UTF-8 encode a BMP code point (surrogate pairs are rejected; the Heat
    // templates this parser serves are ASCII).
    if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate pairs unsupported");
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
  }

  Json parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    double value = 0.0;
    const auto* first = text_.data() + start;
    const auto* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || end != last) fail("malformed number");
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // arrays and objects currently open
};

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double d) {
  if (std::nearbyint(d) == d && std::abs(d) < 1e15) {
    out += std::to_string(static_cast<long long>(d));
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
  }
}

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

bool Json::as_bool() const {
  if (!is_bool()) throw JsonError("not a bool");
  return bool_;
}

double Json::as_number() const {
  if (!is_number()) throw JsonError("not a number");
  return number_;
}

std::int64_t Json::as_int() const {
  const double d = as_number();
  const double r = std::nearbyint(d);
  if (r != d || std::abs(d) > 9.2e18) throw JsonError("not an integer");
  return static_cast<std::int64_t>(r);
}

const std::string& Json::as_string() const {
  if (!is_string()) throw JsonError("not a string");
  return string_;
}

const JsonArray& Json::as_array() const {
  if (!is_array()) throw JsonError("not an array");
  return array_;
}

const JsonObject& Json::as_object() const {
  if (!is_object()) throw JsonError("not an object");
  return object_;
}

JsonArray& Json::as_array() {
  if (!is_array()) throw JsonError("not an array");
  return array_;
}

JsonObject& Json::as_object() {
  if (!is_object()) throw JsonError("not an object");
  return object_;
}

const Json& Json::at(const std::string& key) const {
  const auto& object = as_object();
  const auto it = object.find(key);
  if (it == object.end()) throw JsonError("missing key: " + key);
  return it->second;
}

bool Json::contains(const std::string& key) const noexcept {
  return is_object() && object_.find(key) != object_.end();
}

const Json& Json::get_or(const std::string& key,
                         const Json& fallback) const noexcept {
  if (!is_object()) return fallback;
  const auto it = object_.find(key);
  return it == object_.end() ? fallback : it->second;
}

double Json::number_or(const std::string& key, double fallback) const {
  if (!contains(key)) return fallback;
  return at(key).as_number();
}

std::string Json::string_or(const std::string& key, std::string fallback) const {
  if (!contains(key)) return fallback;
  return at(key).as_string();
}

const Json& Json::at(std::size_t index) const {
  const auto& array = as_array();
  if (index >= array.size()) throw JsonError("array index out of range");
  return array[index];
}

std::size_t Json::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  throw JsonError("size() on non-container");
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline_indent = [&](int d) {
    if (indent > 0) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
    case JsonType::kNull: out += "null"; break;
    case JsonType::kBool: out += bool_ ? "true" : "false"; break;
    case JsonType::kNumber: append_number(out, number_); break;
    case JsonType::kString: append_escaped(out, string_); break;
    case JsonType::kArray: {
      out.push_back('[');
      bool first = true;
      for (const auto& element : array_) {
        if (!first) out.push_back(',');
        first = false;
        newline_indent(depth + 1);
        element.dump_to(out, indent, depth + 1);
      }
      if (!array_.empty()) newline_indent(depth);
      out.push_back(']');
      break;
    }
    case JsonType::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out.push_back(',');
        first = false;
        newline_indent(depth + 1);
        append_escaped(out, key);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        value.dump_to(out, indent, depth + 1);
      }
      if (!object_.empty()) newline_indent(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0, 0);
  return out;
}

std::string Json::pretty() const {
  std::string out;
  dump_to(out, 2, 0);
  return out;
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case JsonType::kNull: return true;
    case JsonType::kBool: return a.bool_ == b.bool_;
    case JsonType::kNumber: return a.number_ == b.number_;
    case JsonType::kString: return a.string_ == b.string_;
    case JsonType::kArray: return a.array_ == b.array_;
    case JsonType::kObject: return a.object_ == b.object_;
  }
  return false;
}

}  // namespace ostro::util
