// Minimal JSON value, writer and parser.
//
// Oak's client→server performance reports are "HAR-like" (paper §5,
// Implementation): a small JSON document per page load. We need byte-accurate
// serialization (Fig. 15 measures report sizes) and a parser for the server
// side, so we implement a small self-contained JSON library rather than
// depending on anything external.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace oak::util {

class Json;
using JsonArray = std::vector<Json>;
// std::map keeps key order deterministic, which keeps serialized report
// bytes (and therefore Fig. 15) reproducible across runs and platforms.
using JsonObject = std::map<std::string, Json>;

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Maximum container nesting accepted by both JSON decoders (the DOM parser
// below and the streaming scanner in util/json_stream.h). Adversarial
// reports like "[[[[..." otherwise recurse or grow the container stack
// without bound; real Oak reports nest 3 deep. Both decoders enforce the
// same limit so they agree on what is malformed.
inline constexpr std::size_t kMaxJsonDepth = 96;

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::uint64_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  // Checked accessors: throw JsonError on type mismatch.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;
  JsonArray& as_array();
  JsonObject& as_object();

  // Object member lookup; throws if not an object or key missing.
  const Json& at(const std::string& key) const;
  // Optional lookup: nullptr when absent (or not an object).
  const Json* find(const std::string& key) const;
  // Mutable object access (creates members; converts null to object).
  Json& operator[](const std::string& key);

  // Compact serialization (no whitespace) — the wire format of reports.
  // Both forms are a walk through util::JsonWriter (util/json_stream.h).
  std::string dump() const;
  // Pretty serialization for logs and golden files.
  std::string dump_pretty(int indent = 2) const;

  static Json parse(const std::string& text);

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

// Escape a string per JSON rules (quotes not included).
std::string json_escape(const std::string& s);
// Same, appended to `out` (util::JsonWriter's string escape).
void json_escape_into(std::string& out, std::string_view s);

}  // namespace oak::util
