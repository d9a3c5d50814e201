#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/json_stream.h"

namespace oak::util {
namespace {

// Flatten a document into a readable event trace for whole-document checks.
std::string trace(std::string_view doc) {
  JsonScanner s(doc);
  std::string out;
  for (;;) {
    switch (s.next()) {
      case JsonEvent::kBeginObject: out += "{"; break;
      case JsonEvent::kEndObject: out += "}"; break;
      case JsonEvent::kBeginArray: out += "["; break;
      case JsonEvent::kEndArray: out += "]"; break;
      case JsonEvent::kKey:
        out += "K(" + std::string(s.text()) + ")";
        break;
      case JsonEvent::kString:
        out += "S(" + std::string(s.text()) + ")";
        break;
      case JsonEvent::kNumber:
        out += "N(" + std::to_string(s.number()) + ")";
        break;
      case JsonEvent::kBool: out += s.boolean() ? "T" : "F"; break;
      case JsonEvent::kNull: out += "0"; break;
      case JsonEvent::kEnd: return out;
    }
  }
}

TEST(JsonScanner, ScalarDocuments) {
  EXPECT_EQ(trace("42"), "N(42.000000)");
  EXPECT_EQ(trace("\"hi\""), "S(hi)");
  EXPECT_EQ(trace("true"), "T");
  EXPECT_EQ(trace("false"), "F");
  EXPECT_EQ(trace("null"), "0");
}

TEST(JsonScanner, NestedDocument) {
  EXPECT_EQ(trace(R"({"a":[1,{"b":"c"}],"d":null})"),
            "{K(a)[N(1.000000){K(b)S(c)}]K(d)0}");
}

TEST(JsonScanner, EmptyContainers) {
  EXPECT_EQ(trace("{}"), "{}");
  EXPECT_EQ(trace("[]"), "[]");
  EXPECT_EQ(trace(R"({"a":{},"b":[]})"), "{K(a){}K(b)[]}");
}

TEST(JsonScanner, EndIsSticky) {
  JsonScanner s("1");
  EXPECT_EQ(s.next(), JsonEvent::kNumber);
  EXPECT_EQ(s.next(), JsonEvent::kEnd);
  EXPECT_EQ(s.next(), JsonEvent::kEnd);
}

TEST(JsonScanner, UnescapedStringsAreViewsIntoInput) {
  const std::string doc = R"({"key":"value"})";
  JsonScanner s(doc);
  ASSERT_EQ(s.next(), JsonEvent::kBeginObject);
  ASSERT_EQ(s.next(), JsonEvent::kKey);
  EXPECT_FALSE(s.string_escaped());
  EXPECT_GE(s.text().data(), doc.data());
  EXPECT_LT(s.text().data(), doc.data() + doc.size());
  ASSERT_EQ(s.next(), JsonEvent::kString);
  EXPECT_FALSE(s.string_escaped());
  EXPECT_EQ(s.text(), "value");
  EXPECT_GE(s.text().data(), doc.data());
  EXPECT_LT(s.text().data(), doc.data() + doc.size());
}

TEST(JsonScanner, EscapedStringsDecodeIntoScratch) {
  const std::string doc = R"(["a\nb","tab\tend","q\"q","u\u0041\u00e9"])";
  JsonScanner s(doc);
  ASSERT_EQ(s.next(), JsonEvent::kBeginArray);
  ASSERT_EQ(s.next(), JsonEvent::kString);
  EXPECT_TRUE(s.string_escaped());
  EXPECT_EQ(s.text(), "a\nb");
  // Decoded payload must NOT alias the input buffer.
  EXPECT_TRUE(s.text().data() < doc.data() ||
              s.text().data() >= doc.data() + doc.size());
  ASSERT_EQ(s.next(), JsonEvent::kString);
  EXPECT_EQ(s.text(), "tab\tend");
  ASSERT_EQ(s.next(), JsonEvent::kString);
  EXPECT_EQ(s.text(), "q\"q");
  ASSERT_EQ(s.next(), JsonEvent::kString);
  EXPECT_EQ(s.text(), "uA\xc3\xa9");  // \u0041='A', \u00e9=é in UTF-8
  ASSERT_EQ(s.next(), JsonEvent::kEndArray);
  ASSERT_EQ(s.next(), JsonEvent::kEnd);
}

TEST(JsonScanner, SurrogatePairDecodes) {
  JsonScanner s(R"("\ud83d\ude00")");  // U+1F600
  ASSERT_EQ(s.next(), JsonEvent::kString);
  EXPECT_EQ(s.text(), "\xf0\x9f\x98\x80");
}

TEST(JsonScanner, SkipValueSkipsWholeSubtrees) {
  JsonScanner s(R"({"skip":[{"deep":[1,2,{"x":null}]},"s"],"keep":7})");
  ASSERT_EQ(s.next(), JsonEvent::kBeginObject);
  ASSERT_EQ(s.next(), JsonEvent::kKey);
  EXPECT_EQ(s.text(), "skip");
  s.skip_value();
  ASSERT_EQ(s.next(), JsonEvent::kKey);
  EXPECT_EQ(s.text(), "keep");
  ASSERT_EQ(s.next(), JsonEvent::kNumber);
  EXPECT_EQ(s.number(), 7.0);
  ASSERT_EQ(s.next(), JsonEvent::kEndObject);
  ASSERT_EQ(s.next(), JsonEvent::kEnd);
}

TEST(JsonScanner, SkipValueValidates) {
  JsonScanner s(R"({"skip":[1,)");
  ASSERT_EQ(s.next(), JsonEvent::kBeginObject);
  ASSERT_EQ(s.next(), JsonEvent::kKey);
  EXPECT_THROW(s.skip_value(), JsonError);
}

TEST(JsonScanner, DepthTracksNesting) {
  JsonScanner s(R"([[{"a":[]}]])");
  EXPECT_EQ(s.depth(), 0u);
  s.next();  // [
  EXPECT_EQ(s.depth(), 1u);
  s.next();  // [
  s.next();  // {
  EXPECT_EQ(s.depth(), 3u);
  s.next();  // key
  s.next();  // [
  EXPECT_EQ(s.depth(), 4u);
  s.next();  // ]
  s.next();  // }
  EXPECT_EQ(s.depth(), 2u);
}

// --- Hardening limits, mirrored between scanner and DOM parser.

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + "1" + std::string(depth, ']');
}

TEST(JsonScanner, DepthLimitMatchesDomParser) {
  const std::string ok = nested_arrays(kMaxJsonDepth);
  const std::string too_deep = nested_arrays(kMaxJsonDepth + 1);
  EXPECT_NO_THROW(trace(ok));
  EXPECT_NO_THROW(Json::parse(ok));
  EXPECT_THROW(trace(too_deep), JsonError);
  EXPECT_THROW(Json::parse(too_deep), JsonError);
}

TEST(JsonScanner, RejectsNonFiniteNumbersLikeDomParser) {
  for (const char* doc : {"1e999", "-1e999", "[1e400]"}) {
    EXPECT_THROW(trace(doc), JsonError) << doc;
    EXPECT_THROW(Json::parse(doc), JsonError) << doc;
  }
}

TEST(JsonScanner, ErrorsMirrorDomParser) {
  // Every malformed document the DOM parser rejects must be rejected by the
  // scanner too (and vice versa for these accept cases).
  const char* bad[] = {
      "",       "{",       "[",         "{\"a\"}",  "{\"a\":}",
      "[1,]",   "{,}",     "tru",       "nul",      "\"unterminated",
      "\"\\q\"", "\"\\u12\"", "[1 2]",  "{\"a\":1,}", "1 trailing",
      "[]]",    "\x01",
  };
  for (const char* doc : bad) {
    EXPECT_THROW(trace(doc), JsonError) << doc;
    EXPECT_THROW(Json::parse(doc), JsonError) << doc;
  }
  const char* good[] = {
      "  1  ", "[1+2]",  // from_chars prefix parse quirk, kept bit-compatible
      R"({"a":1,"a":2})", "-0.5e2", "\"\\u0000\"",
      // The DOM parser is lenient about lone/dangling surrogates; the
      // scanner mirrors that too — agreement, not strictness, is the
      // contract.
      "\"\\ud800\"", "\"\\ud83d\\u0041\"",
  };
  for (const char* doc : good) {
    EXPECT_NO_THROW(trace(doc)) << doc;
    EXPECT_NO_THROW(Json::parse(doc)) << doc;
  }
}

// --- JsonWriter: the one serializer (dump() walks the DOM through it).

std::string random_string(std::mt19937& rng) {
  // Plain, escaped, control and UTF-8 bytes.
  static const std::vector<std::string> pieces = {
      "a", "Z", "9", " ", "\"", "\\", "/", "\n", "\t", "\x01", "\x1f",
      "\x7f", "\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80", "10", "2"};
  std::string out;
  for (unsigned n = rng() % 6; n > 0; --n) out += pieces[rng() % pieces.size()];
  return out;
}

double random_number(std::mt19937& rng) {
  switch (rng() % 7) {
    case 0: return double(int(rng() % 2001) - 1000);
    case 1: return double(rng()) * 1e6;  // integral, past %lld's cutoff
    case 2: return (double(rng()) - 2e9) / 7.0;
    case 3: return std::ldexp(double(rng() % 1000 + 1), -int(rng() % 60));
    case 4: return 1e300 * double(rng() % 10);
    case 5: return -0.0;
    default: return double(rng()) / double(rng() % 1000 + 1);
  }
}

Json random_json(std::mt19937& rng, int depth) {
  const unsigned kind = depth >= 4 ? rng() % 3 : rng() % 5;
  switch (kind) {
    case 0: return Json(random_number(rng));
    case 1: return Json(random_string(rng));
    case 2: return rng() % 2 ? Json(rng() % 2 == 0) : Json(random_number(rng));
    case 3: {
      JsonArray a;
      for (unsigned n = rng() % 5; n > 0; --n) {
        a.push_back(random_json(rng, depth + 1));
      }
      return Json(std::move(a));
    }
    default: {
      JsonObject o;
      for (unsigned n = rng() % 5; n > 0; --n) {
        o[random_string(rng)] = random_json(rng, depth + 1);
      }
      return Json(std::move(o));
    }
  }
}

TEST(JsonWriter, RandomDocumentsAreParseDumpFixedPoints) {
  std::mt19937 rng(24);
  for (int i = 0; i < 2000; ++i) {
    const std::string bytes = random_json(rng, 0).dump();
    ASSERT_EQ(Json::parse(bytes).dump(), bytes) << i;
  }
}

// Token-by-token emission is byte-identical to dump() of the same DOM.
TEST(JsonWriter, StreamedTokensMatchDump) {
  JsonWriter w;
  w.begin_object();
  w.member("a", 1.5);
  w.key("b");
  w.begin_array();
  w.boolean(false);
  w.null();
  w.string("q\"\\\x01\xc3\xa9");
  w.begin_object();
  w.end_object();
  w.end_array();
  w.member("c", 12345678901234567.0);
  w.end_object();
  JsonObject o;
  o["a"] = 1.5;
  o["b"] = JsonArray{Json(false), Json(), Json("q\"\\\x01\xc3\xa9"),
                     Json(JsonObject{})};
  o["c"] = 12345678901234567.0;
  EXPECT_EQ(w.take(), Json(o).dump());
}

TEST(JsonWriter, PrettyLayout) {
  const Json doc = Json::parse(R"({"a":[1,{}],"b":{"c":"x"},"d":[]})");
  EXPECT_EQ(doc.dump_pretty(2),
            "{\n  \"a\": [\n    1,\n    {}\n  ],\n  \"b\": {\n"
            "    \"c\": \"x\"\n  },\n  \"d\": []\n}");
  EXPECT_EQ(Json(JsonArray{}).dump_pretty(2), "[]");
  EXPECT_EQ(Json(7).dump_pretty(2), "7");
}

TEST(JsonWriter, NonFiniteNumbersWriteNull) {
  JsonWriter w;
  w.begin_array();
  w.number(std::nan(""));
  w.number(INFINITY);
  w.number(1.5);
  w.end_array();
  EXPECT_EQ(w.take(), "[null,null,1.5]");
}

TEST(JsonWriter, FileModeWritesThroughInChunks) {
  std::mt19937 rng(7);
  JsonArray big;
  for (std::size_t size = 0; size < 300 * 1024;) {
    big.push_back(random_json(rng, 1));
    size += big.back().dump().size() + 1;
  }
  const std::string want = Json(big).dump();
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  JsonWriter w(f);
  w.value(Json(big));
  ASSERT_TRUE(w.flush());
  EXPECT_EQ(w.bytes(), want.size());
  std::string got(want.size(), '\0');
  std::rewind(f);
  ASSERT_EQ(std::fread(got.data(), 1, got.size(), f), got.size());
  std::fclose(f);
  EXPECT_EQ(got, want);
}

// --- JsonReader: members in JsonObject order, named by the decoder.

TEST(JsonReader, ReadsNamedMembersAndSkipsUnknownOnes) {
  const std::string doc = Json::parse(
      R"({"a":1,"b":[{"x":[[1]]},2],"c":"s","e":{"k":1,"z":true},"f":[3,4]})")
      .dump();
  JsonReader r(doc);
  r.begin_object();
  EXPECT_EQ(r.integer("a"), 1);
  EXPECT_EQ(r.string("c"), "s");  // "b" skipped, nested containers and all
  EXPECT_FALSE(r.has("d"));       // absent: the reader stays on "e"
  r.want("e");
  r.begin_object();
  std::string_view key;
  ASSERT_TRUE(r.next_key(key));
  EXPECT_EQ(key, "k");
  EXPECT_EQ(r.number(), 1.0);
  r.end_object();  // skips "z"
  r.want("f");
  r.begin_array();
  std::vector<std::int64_t> f;
  while (r.more()) f.push_back(r.integer());
  EXPECT_EQ(f, (std::vector<std::int64_t>{3, 4}));
  EXPECT_FALSE(r.has("g"));
  r.end_object();
  r.end();
}

TEST(JsonReader, ErrorsNameWhatAndWhere) {
  auto message = [](const std::string& doc, auto&& read) {
    JsonReader r(doc);
    try {
      read(r);
    } catch (const JsonError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_NE(message(R"({"b":1})",
                    [](JsonReader& r) {
                      r.begin_object();
                      r.want("c");
                    })
                .find("missing key 'c'"),
            std::string::npos);
  EXPECT_NE(message(R"({"a":"1"})",
                    [](JsonReader& r) {
                      r.begin_object();
                      r.number("a");
                    })
                .find("expected a number at offset"),
            std::string::npos);
  EXPECT_NE(message(R"({"a":1} x)",
                    [](JsonReader& r) {
                      r.begin_object();
                      r.end_object();
                      r.end();
                    })
                .find("trailing characters"),
            std::string::npos);
  const std::string deep = "{\"a\":" + std::string(kMaxJsonDepth, '[') +
                           std::string(kMaxJsonDepth, ']') + "}";
  EXPECT_NE(message(deep,
                    [](JsonReader& r) {
                      r.begin_object();
                      r.end_object();
                    })
                .find("nesting too deep"),
            std::string::npos);
}

}  // namespace
}  // namespace oak::util
