// RequestParser under friendly and hostile input: framing strictness,
// incremental feeds, pipelining, and the cap → status mapping the fuzz
// harness (bench/wire_fuzz) later gates at scale.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "wire/parser.h"

namespace oak::wire {
namespace {

using State = RequestParser::State;

State feed_all(RequestParser& p, const std::string& bytes) {
  return p.feed(bytes);
}

TEST(WireParser, SimpleGetParsesAllFields) {
  RequestParser p;
  ASSERT_EQ(feed_all(p,
                     "GET /index.html?tab=2 HTTP/1.1\r\n"
                     "Host: Busy.COM:8080\r\n"
                     "Accept: */*\r\n\r\n"),
            State::kComplete);
  const WireRequest& r = p.request();
  EXPECT_EQ(r.method_text, "GET");
  ASSERT_TRUE(r.method.has_value());
  EXPECT_EQ(*r.method, http::Method::kGet);
  EXPECT_EQ(r.target, "/index.html?tab=2");
  EXPECT_EQ(r.path, "/index.html");
  EXPECT_EQ(r.query, "tab=2");
  EXPECT_EQ(r.host, "busy.com");  // lowercased, port stripped
  EXPECT_EQ(r.minor_version, 1);
  EXPECT_TRUE(r.keep_alive);
  EXPECT_EQ(r.body, "");
}

TEST(WireParser, ByteAtATimeFeedReachesSameResult) {
  const std::string wire =
      "POST /oak/report HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhello";
  RequestParser p;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    ASSERT_EQ(p.feed(wire.substr(i, 1)), State::kNeedMore) << "at byte " << i;
  }
  ASSERT_EQ(p.feed(wire.substr(wire.size() - 1)), State::kComplete);
  EXPECT_EQ(p.request().body, "hello");
  EXPECT_EQ(*p.request().method, http::Method::kPost);
}

TEST(WireParser, PipelinedRequestsResetReparsesResidue) {
  RequestParser p;
  ASSERT_EQ(feed_all(p,
                     "GET /a HTTP/1.1\r\nHost: h\r\n\r\n"
                     "GET /b HTTP/1.1\r\nHost: h\r\n\r\n"),
            State::kComplete);
  EXPECT_EQ(p.request().path, "/a");
  p.reset();
  ASSERT_EQ(p.state(), State::kComplete);  // residue re-parsed immediately
  EXPECT_EQ(p.request().path, "/b");
  p.reset();
  EXPECT_EQ(p.state(), State::kNeedMore);
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(WireParser, UnknownMethodTokenCompletesWithoutEnum) {
  RequestParser p;
  ASSERT_EQ(feed_all(p, "BREW /pot HTTP/1.1\r\nHost: h\r\n\r\n"),
            State::kComplete);
  EXPECT_FALSE(p.request().method.has_value());  // router answers 405
  EXPECT_EQ(p.request().method_text, "BREW");
}

TEST(WireParser, MethodsAreCaseSensitive) {
  RequestParser p;
  ASSERT_EQ(feed_all(p, "get / HTTP/1.1\r\nHost: h\r\n\r\n"),
            State::kComplete);
  EXPECT_FALSE(p.request().method.has_value());
}

TEST(WireParser, KeepAliveDefaultsByVersionAndConnectionOverrides) {
  struct Case {
    const char* wire;
    bool keep;
  };
  const Case cases[] = {
      {"GET / HTTP/1.1\r\nHost: h\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n", false},
      {"GET / HTTP/1.0\r\n\r\n", false},
      {"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nHost: h\r\nConnection: x, Close\r\n\r\n", false},
  };
  for (const Case& c : cases) {
    RequestParser p;
    ASSERT_EQ(feed_all(p, c.wire), State::kComplete) << c.wire;
    EXPECT_EQ(p.request().keep_alive, c.keep) << c.wire;
  }
}

// --- Malformed framing: every case must land in kError with the right
// status, and the parser must stay terminal afterwards.

struct BadCase {
  const char* label;
  std::string wire;
  int status;
};

// gtest lists each case's parameter in the test name. Without a printer it
// dumps the struct's raw bytes, pointers and padding included, so the names
// changed from one build to the next.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.label; }

class WireParserBad : public ::testing::TestWithParam<BadCase> {};

TEST_P(WireParserBad, RejectsWithStatus) {
  const BadCase& c = GetParam();
  RequestParser p;
  ASSERT_EQ(p.feed(c.wire), State::kError) << c.label;
  EXPECT_EQ(p.error().status, c.status) << c.label;
  // Terminal: further bytes cannot resurrect the connection.
  EXPECT_EQ(p.feed("GET / HTTP/1.1\r\nHost: h\r\n\r\n"), State::kError);
}

INSTANTIATE_TEST_SUITE_P(
    Framing, WireParserBad,
    ::testing::Values(
        BadCase{"bare lf", "GET / HTTP/1.1\nHost: h\r\n\r\n", 400},
        BadCase{"stray cr", "GET / HTTP/1.1\r\nHo\rst: h\r\n\r\n", 400},
        BadCase{"obs fold", "GET / HTTP/1.1\r\nHost: h\r\n folded\r\n\r\n",
                400},
        BadCase{"space before colon",
                "GET / HTTP/1.1\r\nHost : h\r\n\r\n", 400},
        BadCase{"no colon", "GET / HTTP/1.1\r\nHost h\r\n\r\n", 400},
        BadCase{"three-part line missing",
                "GET /index.html\r\nHost: h\r\n\r\n", 400},
        BadCase{"double space", "GET  / HTTP/1.1\r\nHost: h\r\n\r\n", 400},
        BadCase{"relative target", "GET index HTTP/1.1\r\nHost: h\r\n\r\n",
                400},
        BadCase{"http2 version", "GET / HTTP/2.0\r\nHost: h\r\n\r\n", 400},
        BadCase{"http09 version", "GET / HTTP/0.9\r\nHost: h\r\n\r\n", 400},
        BadCase{"missing host", "GET / HTTP/1.1\r\n\r\n", 400},
        BadCase{"duplicate host",
                "GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n", 400},
        BadCase{"bad host port", "GET / HTTP/1.1\r\nHost: a:http\r\n\r\n",
                400},
        BadCase{"control in value",
                std::string("GET / HTTP/1.1\r\nHost: h\r\nX: a\x01b\r\n\r\n"),
                400},
        BadCase{"nul in target",
                std::string("GET /\0x HTTP/1.1\r\nHost: h\r\n\r\n", 29), 400}),
    [](const auto& info) {
      std::string name = info.param.label;
      for (char& ch : name) {
        if (ch == ' ' || ch == '-') ch = '_';
      }
      return name;
    });

INSTANTIATE_TEST_SUITE_P(
    Smuggling, WireParserBad,
    ::testing::Values(
        BadCase{"transfer encoding chunked",
                "POST /r HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: "
                "chunked\r\n\r\n0\r\n\r\n",
                400},
        BadCase{"te plus cl",
                "POST /r HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: "
                "chunked\r\nContent-Length: 4\r\n\r\nbody",
                400},
        BadCase{"duplicate cl",
                "POST /r HTTP/1.1\r\nHost: h\r\nContent-Length: "
                "4\r\nContent-Length: 4\r\n\r\nbody",
                400},
        BadCase{"signed cl",
                "POST /r HTTP/1.1\r\nHost: h\r\nContent-Length: +4\r\n\r\n",
                400},
        BadCase{"comma cl",
                "POST /r HTTP/1.1\r\nHost: h\r\nContent-Length: 4,4\r\n\r\n",
                400},
        BadCase{"hex cl",
                "POST /r HTTP/1.1\r\nHost: h\r\nContent-Length: 0x4\r\n\r\n",
                400},
        BadCase{"overflow cl",
                "POST /r HTTP/1.1\r\nHost: h\r\nContent-Length: "
                "99999999999999999999999\r\n\r\n",
                400}),
    [](const auto& info) {
      std::string name = info.param.label;
      for (char& ch : name) {
        if (ch == ' ' || ch == '-') ch = '_';
      }
      return name;
    });

TEST(WireParser, CapRequestLine414) {
  ParserLimits lim;
  lim.max_request_line = 64;
  RequestParser p(lim);
  // The cap must fire on the unterminated prefix — no CRLF ever arrives.
  EXPECT_EQ(p.feed("GET /" + std::string(128, 'a')), State::kError);
  EXPECT_EQ(p.error().status, 414);
}

TEST(WireParser, CapHeaderBytes431) {
  ParserLimits lim;
  lim.max_header_bytes = 128;
  RequestParser p(lim);
  ASSERT_EQ(p.feed("GET / HTTP/1.1\r\n"), State::kNeedMore);
  EXPECT_EQ(p.feed("X: " + std::string(256, 'v')), State::kError);
  EXPECT_EQ(p.error().status, 431);
}

TEST(WireParser, CapHeaderCount431) {
  ParserLimits lim;
  lim.max_header_count = 4;
  RequestParser p(lim);
  std::string wire = "GET / HTTP/1.1\r\nHost: h\r\n";
  for (int i = 0; i < 8; ++i) {
    wire += "X" + std::to_string(i) + ": v\r\n";
  }
  wire += "\r\n";
  ASSERT_EQ(p.feed(wire), State::kError);
  EXPECT_EQ(p.error().status, 431);
}

TEST(WireParser, CapBody413) {
  ParserLimits lim;
  lim.max_body_bytes = 16;
  RequestParser p(lim);
  ASSERT_EQ(
      p.feed("POST /r HTTP/1.1\r\nHost: h\r\nContent-Length: 1000\r\n\r\n"),
      State::kError);
  EXPECT_EQ(p.error().status, 413);
}

TEST(WireParser, LeadingEmptyLinesSkipped) {
  RequestParser p;
  ASSERT_EQ(p.feed("\r\n\r\nGET / HTTP/1.1\r\nHost: h\r\n\r\n"),
            State::kComplete);
  EXPECT_EQ(p.request().path, "/");
}

TEST(WireParser, SplitHeaderLineAcrossFeeds) {
  // A header split mid-name across feeds must parse identically.
  RequestParser p;
  ASSERT_EQ(p.feed("GET / HTTP/1.1\r\nHo"), State::kNeedMore);
  ASSERT_EQ(p.feed("st: busy.com\r\nX-Lon"), State::kNeedMore);
  ASSERT_EQ(p.feed("g: v\r\n\r\n"), State::kComplete);
  EXPECT_EQ(p.request().host, "busy.com");
  EXPECT_EQ(p.request().headers.get("X-Long").value_or(""), "v");
}

TEST(WireParser, ToHttpMapsMethodUrlAndBody) {
  RequestParser p;
  ASSERT_EQ(p.feed("POST /oak/report HTTP/1.1\r\nHost: busy.com\r\n"
                   "Content-Length: 2\r\n\r\nok"),
            State::kComplete);
  http::Request req = p.request().to_http("10.1.2.3");
  EXPECT_EQ(req.method, http::Method::kPost);
  EXPECT_EQ(req.url.host, "busy.com");
  EXPECT_EQ(req.url.path, "/oak/report");
  EXPECT_EQ(req.body, "ok");
  EXPECT_EQ(req.client_ip, "10.1.2.3");
}

TEST(WireParser, BufferedCountsResidue) {
  RequestParser p;
  ASSERT_EQ(p.feed("GET / HTTP/1.1\r\nHost: h\r\n\r\nGET"),
            State::kComplete);
  EXPECT_EQ(p.buffered(), 3u);
}

}  // namespace
}  // namespace oak::wire
