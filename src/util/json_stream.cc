#include "util/json_stream.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace oak::util {

void JsonScanner::fail(const std::string& why) const {
  throw JsonError("json parse error at offset " + std::to_string(pos_) +
                  ": " + why);
}

void JsonScanner::skip_ws() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
}

char JsonScanner::peek() {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void JsonScanner::expect(char c) {
  if (peek() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

bool JsonScanner::consume_literal(const char* lit) {
  std::size_t n = std::char_traits<char>::length(lit);
  if (text_.compare(pos_, n, lit) == 0) {
    pos_ += n;
    return true;
  }
  return false;
}

void JsonScanner::push(bool is_object) {
  if (depth_ >= kMaxJsonDepth) fail("nesting too deep");
  stack_[depth_++] = is_object;
  mode_ = is_object ? Mode::kObjFirstKey : Mode::kArrFirstValue;
}

JsonScanner::Mode JsonScanner::after_value() const {
  if (depth_ == 0) return Mode::kDone;
  return stack_[depth_ - 1] ? Mode::kObjCommaOrEnd : Mode::kArrCommaOrEnd;
}

JsonEvent JsonScanner::pop(char close) {
  expect(close);
  --depth_;
  mode_ = after_value();
  return close == '}' ? JsonEvent::kEndObject : JsonEvent::kEndArray;
}

JsonEvent JsonScanner::value_start() {
  skip_ws();
  char c = peek();
  switch (c) {
    case '{':
      ++pos_;
      push(/*is_object=*/true);
      return JsonEvent::kBeginObject;
    case '[':
      ++pos_;
      push(/*is_object=*/false);
      return JsonEvent::kBeginArray;
    case '"':
      mode_ = after_value();
      return scan_string(JsonEvent::kString);
    case 't':
      if (consume_literal("true")) {
        boolean_ = true;
        mode_ = after_value();
        return JsonEvent::kBool;
      }
      fail("bad literal");
    case 'f':
      if (consume_literal("false")) {
        boolean_ = false;
        mode_ = after_value();
        return JsonEvent::kBool;
      }
      fail("bad literal");
    case 'n':
      if (consume_literal("null")) {
        mode_ = after_value();
        return JsonEvent::kNull;
      }
      fail("bad literal");
    default:
      mode_ = after_value();
      return scan_number();
  }
}

unsigned JsonScanner::decode_hex4() {
  unsigned code = 0;
  for (int i = 0; i < 4; ++i) {
    char h = text_[pos_++];
    code <<= 4;
    if (h >= '0' && h <= '9') code |= unsigned(h - '0');
    else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
    else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
    else fail("bad hex digit in \\u escape");
  }
  return code;
}

JsonEvent JsonScanner::scan_string(JsonEvent ev) {
  expect('"');
  const std::size_t body = pos_;
  // Fast path: memchr to the closing quote; if no backslash intervenes the
  // token is a view into the input and nothing is copied. Strings are the
  // bulk of a report's bytes, so this is the scanner's hottest loop.
  const char* base = text_.data();
  const char* quote = static_cast<const char*>(
      std::memchr(base + body, '"', text_.size() - body));
  if (quote == nullptr) {
    pos_ = text_.size();
    fail("unterminated string");
  }
  const std::size_t qpos = static_cast<std::size_t>(quote - base);
  const void* backslash = std::memchr(base + body, '\\', qpos - body);
  if (backslash == nullptr) {
    token_ = text_.substr(body, qpos - body);
    escaped_ = false;
    pos_ = qpos + 1;
    return ev;
  }
  pos_ = static_cast<std::size_t>(static_cast<const char*>(backslash) - base);

  // Slow path: copy the clean prefix, then decode escapes exactly as the
  // DOM parser does (same escapes, same \u and surrogate-pair handling,
  // same failure points).
  scratch_.assign(text_.data() + body, pos_ - body);
  escaped_ = true;
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    char c = text_[pos_++];
    if (c == '"') {
      token_ = scratch_;
      return ev;
    }
    if (c != '\\') {
      scratch_ += c;
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    char e = text_[pos_++];
    switch (e) {
      case '"': scratch_ += '"'; break;
      case '\\': scratch_ += '\\'; break;
      case '/': scratch_ += '/'; break;
      case 'b': scratch_ += '\b'; break;
      case 'f': scratch_ += '\f'; break;
      case 'n': scratch_ += '\n'; break;
      case 'r': scratch_ += '\r'; break;
      case 't': scratch_ += '\t'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) fail("bad \\u escape");
        unsigned code = decode_hex4();
        if (code >= 0xD800 && code <= 0xDBFF && pos_ + 6 <= text_.size() &&
            text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
          pos_ += 2;
          unsigned lo = decode_hex4();
          code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
        }
        if (code < 0x80) {
          scratch_ += static_cast<char>(code);
        } else if (code < 0x800) {
          scratch_ += static_cast<char>(0xC0 | (code >> 6));
          scratch_ += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
          scratch_ += static_cast<char>(0xE0 | (code >> 12));
          scratch_ += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          scratch_ += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          scratch_ += static_cast<char>(0xF0 | (code >> 18));
          scratch_ += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
          scratch_ += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          scratch_ += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default: fail("bad escape");
    }
  }
}

JsonEvent JsonScanner::scan_number() {
  const std::size_t start = pos_;
  if (peek() == '-') ++pos_;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (!((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-')) {
      break;
    }
    ++pos_;
  }
  if (pos_ == start) fail("expected value");
  double d = 0.0;
  auto res = std::from_chars(text_.data() + start, text_.data() + pos_, d);
  if (res.ec == std::errc::result_out_of_range) fail("non-finite number");
  if (res.ec != std::errc{}) fail("bad number");
  if (!std::isfinite(d)) fail("non-finite number");
  number_ = d;
  token_ = text_.substr(start, pos_ - start);
  return JsonEvent::kNumber;
}

JsonEvent JsonScanner::next() {
  switch (mode_) {
    case Mode::kTopValue:
      return value_start();
    case Mode::kObjFirstKey:
      skip_ws();
      if (peek() == '}') return pop('}');
      mode_ = Mode::kObjValue;
      return scan_string(JsonEvent::kKey);
    case Mode::kObjKey:
      skip_ws();
      mode_ = Mode::kObjValue;
      return scan_string(JsonEvent::kKey);
    case Mode::kObjValue:
      skip_ws();
      expect(':');
      return value_start();
    case Mode::kObjCommaOrEnd: {
      skip_ws();
      char c = peek();
      if (c == ',') {
        ++pos_;
        skip_ws();
        mode_ = Mode::kObjValue;
        return scan_string(JsonEvent::kKey);
      }
      if (c == '}') return pop('}');
      fail("expected ',' or '}'");
    }
    case Mode::kArrFirstValue:
      skip_ws();
      if (peek() == ']') return pop(']');
      return value_start();
    case Mode::kArrValue:
      return value_start();
    case Mode::kArrCommaOrEnd: {
      skip_ws();
      char c = peek();
      if (c == ',') {
        ++pos_;
        mode_ = Mode::kArrValue;
        return value_start();
      }
      if (c == ']') return pop(']');
      fail("expected ',' or ']'");
    }
    case Mode::kDone:
      skip_ws();
      if (pos_ != text_.size()) fail("trailing characters");
      return JsonEvent::kEnd;
  }
  fail("scanner state corrupted");  // unreachable
}

void JsonScanner::skip_value() {
  const std::size_t base = depth_;
  JsonEvent e = next();
  if (e == JsonEvent::kBeginObject || e == JsonEvent::kBeginArray) {
    while (depth_ > base) next();
  }
}

namespace {

// dump()'s number format: integral values as %lld, others as %.12g,
// NaN/Inf as null.
void write_number(std::string& out, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    out += "null";  // JSON has no NaN/Inf; reports never produce them.
    return;
  }
  // Integral values print without a fractional part for compactness.
  if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out += buf;
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", d);
  out += buf;
}

}  // namespace

void JsonWriter::newline(std::size_t depth) {
  if (indent_ <= 0) return;
  buf_ += '\n';
  buf_.append(std::size_t(indent_) * depth, ' ');
}

void JsonWriter::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (nonempty_.empty()) return;
  if (nonempty_.back()) buf_ += ',';
  nonempty_.back() = true;
  newline(nonempty_.size());
}

void JsonWriter::open(char c) {
  before_value();
  buf_ += c;
  nonempty_.push_back(false);
}

void JsonWriter::close(char c) {
  const bool had_elements = nonempty_.back();
  nonempty_.pop_back();
  if (had_elements) newline(nonempty_.size());
  buf_ += c;
  if (f_ != nullptr && buf_.size() >= kChunk) flush();
}

void JsonWriter::key(std::string_view k) {
  before_value();
  buf_ += '"';
  json_escape_into(buf_, k);
  buf_ += indent_ > 0 ? "\": " : "\":";
  after_key_ = true;
}

void JsonWriter::string(std::string_view s) {
  before_value();
  buf_ += '"';
  json_escape_into(buf_, s);
  buf_ += '"';
}

void JsonWriter::number(double d) {
  before_value();
  write_number(buf_, d);
}

void JsonWriter::boolean(bool b) {
  before_value();
  buf_ += b ? "true" : "false";
}

void JsonWriter::null() {
  before_value();
  buf_ += "null";
}

void JsonWriter::value(const Json& j) {
  if (j.is_null()) {
    null();
  } else if (j.is_bool()) {
    boolean(j.as_bool());
  } else if (j.is_number()) {
    number(j.as_number());
  } else if (j.is_string()) {
    string(j.as_string());
  } else if (j.is_array()) {
    begin_array();
    for (const Json& e : j.as_array()) value(e);
    end_array();
  } else {
    begin_object();
    for (const auto& [k, v] : j.as_object()) {
      key(k);
      value(v);
    }
    end_object();
  }
}

bool JsonWriter::flush() {
  if (f_ == nullptr || buf_.empty()) return ok_;
  ok_ = ok_ && std::fwrite(buf_.data(), 1, buf_.size(), f_) == buf_.size();
  flushed_ += buf_.size();
  buf_.clear();
  return ok_;
}

JsonEvent JsonReader::peek() {
  if (!peeked_) {
    ev_ = s_.next();
    peeked_ = true;
  }
  return ev_;
}

JsonEvent JsonReader::take() {
  const JsonEvent e = peek();
  peeked_ = false;
  return e;
}

void JsonReader::fail(const std::string& why) const {
  throw JsonError("json: " + why + " at offset " +
                  std::to_string(s_.offset()));
}

void JsonReader::expect(JsonEvent e, const char* what) {
  if (take() != e) fail(std::string("expected ") + what);
}

bool JsonReader::has(std::string_view name) {
  while (peek() == JsonEvent::kKey) {
    const std::string_view key = s_.text();
    if (key == name) {
      take();
      return true;
    }
    if (key > name) return false;
    take();
    skip();
  }
  return false;
}

void JsonReader::want(std::string_view name) {
  if (!has(name)) fail("missing key '" + std::string(name) + "'");
}

bool JsonReader::next_key(std::string_view& name) {
  if (peek() != JsonEvent::kKey) return false;
  name = s_.text();
  take();
  return true;
}

bool JsonReader::more() {
  if (peek() != JsonEvent::kEndArray) return true;
  take();
  return false;
}

void JsonReader::end_object() {
  while (peek() == JsonEvent::kKey) {
    take();
    skip();
  }
  expect(JsonEvent::kEndObject, "'}'");
}

double JsonReader::number() {
  expect(JsonEvent::kNumber, "a number");
  return s_.number();
}

std::int64_t JsonReader::integer() { return std::llround(number()); }

bool JsonReader::boolean() {
  expect(JsonEvent::kBool, "a bool");
  return s_.boolean();
}

std::string JsonReader::string() {
  expect(JsonEvent::kString, "a string");
  return std::string(s_.text());
}

void JsonReader::skip() {
  const JsonEvent e = take();
  if (e != JsonEvent::kBeginObject && e != JsonEvent::kBeginArray) return;
  const std::size_t outer = s_.depth() - 1;
  while (s_.depth() > outer) s_.next();
}

}  // namespace oak::util
