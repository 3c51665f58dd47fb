// Minimal JSON value model + recursive-descent parser.
//
// The observability layer emits several JSON artifacts (Chrome trace_event
// files, flight-recorder bundles, bench rows). This parser exists so the
// layer can *validate its own output* — exporter tests and `vfpga_cli trace
// --validate` parse what was rendered instead of trusting it — without
// pulling a third-party dependency into the tree. It accepts strict JSON
// (RFC 8259): no comments, no trailing commas.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace vfpga::obs {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : v_(nullptr) {}
  JsonValue(std::nullptr_t) : v_(nullptr) {}
  JsonValue(bool b) : v_(b) {}
  JsonValue(double d) : v_(d) {}
  JsonValue(std::string s) : v_(std::move(s)) {}
  JsonValue(Array a) : v_(std::move(a)) {}
  JsonValue(Object o) : v_(std::move(o)) {}

  bool isNull() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool isBool() const { return std::holds_alternative<bool>(v_); }
  bool isNumber() const { return std::holds_alternative<double>(v_); }
  bool isString() const { return std::holds_alternative<std::string>(v_); }
  bool isArray() const { return std::holds_alternative<Array>(v_); }
  bool isObject() const { return std::holds_alternative<Object>(v_); }

  bool asBool() const { return get<bool>("bool"); }
  double asNumber() const { return get<double>("number"); }
  const std::string& asString() const { return get<std::string>("string"); }
  const Array& asArray() const { return get<Array>("array"); }
  const Object& asObject() const { return get<Object>("object"); }

  /// Object member access; throws JsonError when absent or not an object.
  const JsonValue& at(const std::string& key) const;
  /// True when this is an object holding `key`.
  bool has(const std::string& key) const;

  /// Parses a complete JSON document (throws JsonError on any syntax
  /// error or trailing garbage).
  static JsonValue parse(std::string_view text);

 private:
  template <typename T>
  const T& get(const char* what) const {
    if (const T* p = std::get_if<T>(&v_)) return *p;
    throw JsonError(std::string("JSON value is not a ") + what);
  }

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Escapes a string for embedding inside a JSON string literal (no quotes
/// added). Shared by every renderer in the observability layer.
std::string jsonEscape(std::string_view s);

/// Shortest-round-trip rendering of a double, with +Inf, -Inf and NaN
/// spelled as Prometheus does: deterministic across runs, no locale
/// dependence. Shared by every renderer in the observability layer.
std::string formatDouble(double v);

}  // namespace vfpga::obs
