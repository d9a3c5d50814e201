// Streaming (SAX-style) JSON scanner — the zero-copy half of report
// ingestion.
//
// util::Json::parse materializes a DOM: a std::map node per object member, a
// heap std::string per key, a Json variant per value. For Oak's report
// ingestion (one HAR-like document per page load, dozens-to-hundreds of
// entries) that DOM is allocated, copied into browser::PerfReport, and
// thrown away — per-report allocation, not locking, is the ingest ceiling
// after the sharded serving plane (DESIGN.md §6/§7).
//
// JsonScanner walks the raw byte buffer and emits events over
// std::string_view tokens. Strings without escapes are views straight into
// the input; escaped strings are decoded once into an internal scratch
// buffer (valid until the next event). Nothing else allocates.
//
// The scanner is lexically bit-compatible with the DOM parser: identical
// number scanning (including the liberal token scan + std::from_chars
// prefix parse), identical escape and surrogate handling, and the same
// hardening limits (util::kMaxJsonDepth, non-finite rejection) — so the two
// decoders accept and reject exactly the same byte strings. The DOM path is
// kept as a differential-testing oracle for this contract
// (tests/report_decoder_test.cc).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "util/json.h"

namespace oak::util {

enum class JsonEvent {
  kBeginObject,
  kEndObject,
  kBeginArray,
  kEndArray,
  kKey,     // object member name; payload in text()
  kString,  // payload in text()
  kNumber,  // payload in number()
  kBool,    // payload in boolean()
  kNull,
  kEnd,  // whole document consumed (trailing bytes already rejected)
};

class JsonScanner {
 public:
  explicit JsonScanner(std::string_view text) : text_(text) {}

  // Advance to the next event. Throws JsonError on malformed input, exactly
  // where Json::parse would. After kEnd, further calls keep returning kEnd.
  JsonEvent next();

  // Payload of the last kKey/kString event: decoded bytes. A view into the
  // input buffer when the string had no escapes, otherwise into an internal
  // scratch buffer that is overwritten by the next string-bearing event.
  std::string_view text() const { return token_; }
  // True when the last kKey/kString payload was escape-decoded into the
  // scratch buffer (i.e. text() does NOT point into the input and will be
  // invalidated by the next string-bearing event).
  bool string_escaped() const { return escaped_; }
  // Payload of the last kNumber event.
  double number() const { return number_; }
  // Payload of the last kBool event.
  bool boolean() const { return boolean_; }

  // Consume one whole value (scalar or full container subtree) from a
  // position where a value is expected, validating it like any other input.
  // Used to skip unknown report fields without materializing them.
  void skip_value();

  // Current byte offset (diagnostics).
  std::size_t offset() const { return pos_; }
  // Current container nesting depth (0 at top level).
  std::size_t depth() const { return depth_; }

 private:
  enum class Mode : unsigned char {
    kTopValue,      // expecting the single top-level value
    kObjFirstKey,   // just after '{' — key or '}'
    kObjKey,        // after ',' in an object — key required
    kObjValue,      // after a key — ':' then value
    kObjCommaOrEnd, // after a value in an object
    kArrFirstValue, // just after '[' — value or ']'
    kArrValue,      // after ',' in an array — value required
    kArrCommaOrEnd, // after a value in an array
    kDone,
  };

  [[noreturn]] void fail(const std::string& why) const;
  void skip_ws();
  char peek();
  void expect(char c);
  bool consume_literal(const char* lit);

  JsonEvent value_start();   // dispatch on the first byte of a value
  JsonEvent scan_string(JsonEvent ev);  // kKey or kString
  JsonEvent scan_number();
  void push(bool is_object);
  JsonEvent pop(char close);
  // Mode after a completed value, given the (already updated) stack top.
  Mode after_value() const;
  unsigned decode_hex4();

  std::string_view text_;
  std::size_t pos_ = 0;
  Mode mode_ = Mode::kTopValue;
  // Container stack; true = object. Depth is bounded by kMaxJsonDepth, so a
  // fixed array keeps the scanner allocation-free.
  bool stack_[kMaxJsonDepth];
  std::size_t depth_ = 0;

  std::string_view token_;
  double number_ = 0.0;
  bool boolean_ = false;
  bool escaped_ = false;
  std::string scratch_;  // decoded escaped strings live here
};

// Minimal callback interface over the scanner, for consumers that prefer
// push-style events to the pull API.
class JsonSink {
 public:
  virtual ~JsonSink() = default;
  virtual void on_begin_object() {}
  virtual void on_end_object() {}
  virtual void on_begin_array() {}
  virtual void on_end_array() {}
  virtual void on_key(std::string_view) {}
  virtual void on_string(std::string_view) {}
  virtual void on_number(double) {}
  virtual void on_bool(bool) {}
  virtual void on_null() {}
};

// Drive `sink` over one complete JSON document. Throws JsonError exactly
// where Json::parse would.
void scan_json(std::string_view text, JsonSink& sink);

}  // namespace oak::util
