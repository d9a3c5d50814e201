#include "util/json.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/json_stream.h"

namespace oak::util {

bool Json::as_bool() const {
  if (!is_bool()) throw JsonError("json: not a bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (!is_number()) throw JsonError("json: not a number");
  return std::get<double>(value_);
}

std::int64_t Json::as_int() const {
  return static_cast<std::int64_t>(std::llround(as_number()));
}

const std::string& Json::as_string() const {
  if (!is_string()) throw JsonError("json: not a string");
  return std::get<std::string>(value_);
}

const JsonArray& Json::as_array() const {
  if (!is_array()) throw JsonError("json: not an array");
  return std::get<JsonArray>(value_);
}

const JsonObject& Json::as_object() const {
  if (!is_object()) throw JsonError("json: not an object");
  return std::get<JsonObject>(value_);
}

JsonArray& Json::as_array() {
  if (!is_array()) throw JsonError("json: not an array");
  return std::get<JsonArray>(value_);
}

JsonObject& Json::as_object() {
  if (!is_object()) throw JsonError("json: not an object");
  return std::get<JsonObject>(value_);
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) throw JsonError("json: missing key '" + key + "'");
  return it->second;
}

const Json* Json::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto& obj = std::get<JsonObject>(value_);
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = JsonObject{};
  return as_object()[key];
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  json_escape_into(out, s);
  return out;
}

void json_escape_into(std::string& out, std::string_view s) {
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw JsonError("json parse error at offset " + std::to_string(pos_) +
                    ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{': return object();
      case '[': return array();
      case '"': return Json(string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("bad literal");
      default: return number();
    }
  }

  void enter() {
    if (++depth_ > kMaxJsonDepth) fail("nesting too deep");
  }

  Json object() {
    expect('{');
    enter();
    JsonObject o;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return Json(std::move(o));
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      o[std::move(key)] = value();
      skip_ws();
      char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        --depth_;
        return Json(std::move(o));
      }
      fail("expected ',' or '}'");
    }
  }

  Json array() {
    expect('[');
    enter();
    JsonArray a;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return Json(std::move(a));
    }
    while (true) {
      a.push_back(value());
      skip_ws();
      char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        --depth_;
        return Json(std::move(a));
      }
      fail("expected ',' or ']'");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        char e = text_[pos_++];
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
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= unsigned(h - '0');
              else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
              else fail("bad hex digit in \\u escape");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs are not needed by
            // our report format, which is ASCII, but handle them anyway).
            if (code >= 0xD800 && code <= 0xDBFF && pos_ + 6 <= text_.size() &&
                text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
              pos_ += 2;
              unsigned lo = 0;
              for (int i = 0; i < 4; ++i) {
                char h = text_[pos_++];
                lo <<= 4;
                if (h >= '0' && h <= '9') lo |= unsigned(h - '0');
                else if (h >= 'a' && h <= 'f') lo |= unsigned(h - 'a' + 10);
                else if (h >= 'A' && h <= 'F') lo |= unsigned(h - 'A' + 10);
                else fail("bad hex digit in \\u escape");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
            }
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else if (code < 0x10000) {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xF0 | (code >> 18));
              out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  Json number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    double d = 0.0;
    auto res = std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (res.ec == std::errc::result_out_of_range) fail("non-finite number");
    if (res.ec != std::errc{}) fail("bad number");
    if (!std::isfinite(d)) fail("non-finite number");
    return Json(d);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

std::string Json::dump() const { return dump_pretty(0); }

std::string Json::dump_pretty(int indent) const {
  JsonWriter w(nullptr, indent);
  w.value(*this);
  return w.take();
}

Json Json::parse(const std::string& text) { return Parser(text).parse(); }

}  // namespace oak::util
