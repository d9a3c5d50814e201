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
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

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

// The writing half, and the one JSON serializer: Json::dump() and
// dump_pretty() are a DOM walk through it (value()), and streaming callers
// emit token by token with the same bytes, provided they emit each
// object's members in JsonObject (byte-wise std::string) key order. Commas,
// colons and indentation are placed for the caller. Without a file the
// document accumulates in memory (take()); with one, it is written through
// in 64 KiB chunks, so a document of any size costs one buffer.
class JsonWriter {
 public:
  // `indent` > 0 lays the document out as dump_pretty(indent) does.
  explicit JsonWriter(std::FILE* f = nullptr, int indent = 0)
      : f_(f), indent_(indent) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }
  void key(std::string_view k);
  void string(std::string_view s);
  void number(double d);
  void boolean(bool b);
  void null();
  void value(const Json& j);  // a whole DOM value
  // key() then the value.
  void member(std::string_view k, double d) {
    key(k);
    number(d);
  }
  void member(std::string_view k, std::string_view s) {
    key(k);
    string(s);
  }

  // Writes the buffered bytes to the file. False once any write failed.
  bool flush();
  // Bytes emitted so far, flushed or not.
  std::uint64_t bytes() const { return flushed_ + buf_.size(); }
  // The document (in-memory mode).
  std::string take() { return std::move(buf_); }

 private:
  void before_value();
  void newline(std::size_t depth);
  void open(char c);
  void close(char c);

  static constexpr std::size_t kChunk = 64 * 1024;
  std::FILE* f_ = nullptr;
  int indent_ = 0;
  std::string buf_;
  std::uint64_t flushed_ = 0;
  bool ok_ = true;
  bool after_key_ = false;
  // One entry per open container: whether it has an element yet.
  std::vector<bool> nonempty_;
};

// Typed pull reading over the scanner, for documents whose object members
// come in JsonObject (byte-wise key) order — everything Json::dump() and
// JsonWriter write. A decoder names the members it wants in that order, so
// it mirrors its writer line by line: has() and the named readers skip
// unknown members that sort before the wanted one and report a wanted one
// that is absent. Errors are JsonError naming the byte offset; nesting is
// bounded by the scanner's kMaxJsonDepth.
class JsonReader {
 public:
  explicit JsonReader(std::string_view doc) : s_(doc) {}

  // Advances to member `name` of the open object: true when present (its
  // value comes next), false when absent.
  bool has(std::string_view name);
  // has(), or throws naming the missing member.
  void want(std::string_view name);
  // The next member name of the open object, whatever it is; false when
  // none is left. Valid until the next string is read.
  bool next_key(std::string_view& name);
  // Inside an open array: true while an element follows; false, having
  // consumed the ']', at its end.
  bool more();

  void begin_object() { expect(JsonEvent::kBeginObject, "an object"); }
  // Skips the members left, then consumes the '}'.
  void end_object();
  void begin_array() { expect(JsonEvent::kBeginArray, "an array"); }
  double number();
  // A number rounded to the nearest integer, as Json::as_int reads it.
  std::int64_t integer();
  bool boolean();
  std::string string();
  void skip();  // one whole value
  // The document must end here.
  void end() { expect(JsonEvent::kEnd, "the end of the document"); }

  // want(name), then its value.
  double number(std::string_view name) {
    want(name);
    return number();
  }
  std::int64_t integer(std::string_view name) {
    want(name);
    return integer();
  }
  bool boolean(std::string_view name) {
    want(name);
    return boolean();
  }
  std::string string(std::string_view name) {
    want(name);
    return string();
  }

  std::size_t offset() const { return s_.offset(); }
  [[noreturn]] void fail(const std::string& why) const;

 private:
  JsonEvent peek();
  JsonEvent take();
  void expect(JsonEvent e, const char* what);

  JsonScanner s_;
  JsonEvent ev_ = JsonEvent::kEnd;
  bool peeked_ = false;
};

}  // namespace oak::util
