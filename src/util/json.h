// Minimal JSON document model, parser and printer.
//
// Used for the QoS-enhanced Heat templates (src/openstack) and for CSV/JSON
// output from the benchmark harness.  Implemented here rather than pulling a
// third-party dependency; supports the full JSON grammar except for \u
// surrogate pairs outside the BMP (sufficient for templates, which are
// ASCII).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ostro::util {

class Json;

using JsonArray = std::vector<Json>;
// std::map keeps object keys ordered, which makes printed output stable.
using JsonObject = std::map<std::string, Json>;

enum class JsonType { kNull, kBool, kNumber, kString, kArray, kObject };

/// Raised on malformed documents (parse) and type mismatches (accessors).
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Immutable-ish JSON value with checked accessors.
class Json {
 public:
  Json() noexcept : type_(JsonType::kNull) {}
  Json(std::nullptr_t) noexcept : type_(JsonType::kNull) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) noexcept : type_(JsonType::kBool), bool_(b) {}  // NOLINT(google-explicit-constructor)
  Json(double d) noexcept : type_(JsonType::kNumber), number_(d) {}  // NOLINT(google-explicit-constructor)
  Json(int i) noexcept : type_(JsonType::kNumber), number_(i) {}  // NOLINT(google-explicit-constructor)
  Json(std::int64_t i) noexcept  // NOLINT(google-explicit-constructor)
      : type_(JsonType::kNumber), number_(static_cast<double>(i)) {}
  Json(std::string s)  // NOLINT(google-explicit-constructor)
      : type_(JsonType::kString), string_(std::move(s)) {}
  Json(const char* s) : type_(JsonType::kString), string_(s) {}  // NOLINT(google-explicit-constructor)
  Json(JsonArray a)  // NOLINT(google-explicit-constructor)
      : type_(JsonType::kArray), array_(std::move(a)) {}
  Json(JsonObject o)  // NOLINT(google-explicit-constructor)
      : type_(JsonType::kObject), object_(std::move(o)) {}

  /// Parses a complete document; trailing non-whitespace is an error, and
  /// so is nesting more than 256 arrays and objects deep.
  [[nodiscard]] static Json parse(std::string_view text);

  [[nodiscard]] JsonType type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == JsonType::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == JsonType::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return type_ == JsonType::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return type_ == JsonType::kString; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == JsonType::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == JsonType::kObject; }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::int64_t as_int() const;  ///< number, checked integral
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;
  [[nodiscard]] JsonArray& as_array();
  [[nodiscard]] JsonObject& as_object();

  /// Object member access; throws JsonError when absent or not an object.
  [[nodiscard]] const Json& at(const std::string& key) const;
  /// True when this is an object containing `key`.
  [[nodiscard]] bool contains(const std::string& key) const noexcept;
  /// Member if present, otherwise `fallback`.
  [[nodiscard]] const Json& get_or(const std::string& key,
                                   const Json& fallback) const noexcept;
  /// Convenience typed getters with defaults (object contexts).
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      std::string fallback) const;

  /// Array element access; throws JsonError when out of range / not array.
  [[nodiscard]] const Json& at(std::size_t index) const;
  [[nodiscard]] std::size_t size() const;  ///< array or object element count

  /// Compact single-line serialization.
  [[nodiscard]] std::string dump() const;
  /// Pretty serialization with 2-space indent.
  [[nodiscard]] std::string pretty() const;

  friend bool operator==(const Json& a, const Json& b);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  JsonType type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  JsonArray array_;
  JsonObject object_;
};

}  // namespace ostro::util
