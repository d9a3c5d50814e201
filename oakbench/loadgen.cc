// oakbench_load: the load generator of the oakbench end-to-end benchmark.
//
//   oakbench_load --write-rules DIR
//       writes rules-0.txt and rules-1.txt (core/rule_parser format).
//   oakbench_load --port P --server-pid PID --workload W --seed S
//                 --seconds T --trace 0|1 --out DIR [workload knobs]
//       drives a running oakbench_server and prints one JSON line.
//   oakbench_load --port P --time-swaps N --rules-dir DIR
//       times N admin rule swaps and prints one JSON line.
//
// One process: `--conns` load connections, one thread each, pinned one
// per CPU, plus one short-lived admin connection at a time from the main
// thread. Every user belongs to one connection, so each user's requests
// reach the server in order. Phases:
//
//   warm       untimed: (serve) every user's first reports, then rounds of
//              the workload mix until the memo hit ratio and the hot-user
//              count stop changing; then a compaction
//   closed     a third of a fixed count of requests, in equal bursts with
//              a window of requests in flight on every connection
//   swap       churn: one rule swap, so the fixed phase starts cold
//   fixed      open loop at the fixed offered rate, in one-second windows,
//              in two parts with another third of the bursts between them;
//              latency is timed from each request's scheduled send time
//   closed     the last third of the bursts; max_rps comes from the burst
//              rates
//   tail       an explicit compaction, then a fixed count of requests, so
//              the journal suffix a restart replays has a fixed size
//
// Then it checks the outputs. ingest and serve: the server's report,
// modified-page and activation counters must equal those of an in-process
// single-threaded OakServer fed the same per-user sequences. churn: the
// reports acknowledged must equal the reports ingested, and the rule set
// must equal the last one PUT. A traced run then replays a sample of the
// users' requests through an in-process replica, timing the layers.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "browser/browser.h"
#include "browser/report_decoder.h"
#include "common.h"
#include "core/durability.h"
#include "core/grouping.h"
#include "core/rule_parser.h"
#include "core/sharded_server.h"
#include "core/violator.h"
#include "trace.h"
#include "util/json.h"
#include "util/rng.h"
#include "wire/client.h"
#include "wire/parser.h"

namespace {

using namespace oak;
using oakbench::arg;
using oakbench::Tracer;

std::int64_t now_ns() { return Tracer::now_ns(); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Median of the smaller half of the values: the figure with the least
// interference from the host's other tenants, which only ever add time.
double calm_low(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return median(std::vector<double>(v.begin(), v.begin() + (v.size() + 1) / 2));
}

// Nearest-rank percentile (p in [0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * double(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---------------------------------------------------------------------------
// Workload and inputs.

struct Workload {
  std::string name;
  double rate = 1000.0;          // offered requests/s in the fixed phase
  std::size_t users = 2000;      // returning population
  double report_share = 0.9;     // reports among returning-user requests
  double first_visit_share = 0;  // cookie-less first visits
  int warm_reports = 0;          // untimed reports per user before warm-up
  std::size_t closed_requests = 30000;  // sent in the closed-loop phase
  bool swap_rules = false;       // swap the rule set after warm-up
};

enum Kind : std::uint8_t { kPage = 0, kReport = 1, kFirstVisit = 2 };

struct Req {
  Kind kind = kPage;
  std::uint32_t user = 0;  // index into Inputs::users (first visits: ordinal)
  std::uint32_t body = 0;  // index into the user's vantage-point pool
};

struct User {
  std::string uid;
  std::uint32_t vp = 0;
  std::uint32_t cursor = 0;  // next body; touched only by the owning conn
};

struct Inputs {
  std::string host;
  std::string page_path;
  std::string report_path;
  // Serialized reports of browser loads, one list per vantage point.
  std::vector<std::vector<std::string>> pool;
  std::vector<User> users;
  std::size_t report_bytes_median = 0;
};

// Browser loads of the site from every vantage point, at seed-dependent
// times of day (the network's congestion weather depends on the time),
// against the default pages. A user keeps one vantage point and cycles through its
// loads.
Inputs make_inputs(oakbench::Web& web, const Workload& wl, std::uint64_t seed,
                   std::size_t loads_per_vp) {
  Inputs in;
  in.host = web.host();
  in.page_path = web.index_path();
  in.report_path = core::OakConfig{}.report_path;
  web.site->oak->config().enabled = false;

  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  const auto& clients = web.scenario.clients();
  std::vector<std::size_t> sizes;
  for (std::size_t v = 0; v < clients.size(); ++v) {
    browser::BrowserConfig bc;
    bc.use_cache = false;
    bc.send_report = false;
    browser::Browser b(web.universe(), clients[v].client, bc);
    std::vector<std::string> bodies;
    for (std::size_t k = 0; k < loads_per_vp; ++k) {
      // Every vantage point covers each day of the two-week horizon; the
      // seed picks the time of day.
      const double t = double((k + v) % 14) * 86400.0 +
                       double(rng.uniform_int(0, 86399));
      browser::LoadResult res = b.load(web.site->site->index_url(), t);
      bodies.push_back(res.report.serialize());
      sizes.push_back(bodies.back().size());
    }
    in.pool.push_back(std::move(bodies));
  }
  std::sort(sizes.begin(), sizes.end());
  in.report_bytes_median = sizes[sizes.size() / 2];

  in.users.resize(wl.users);
  for (std::size_t u = 0; u < wl.users; ++u) {
    in.users[u].uid = "s" + std::to_string(seed) + "-" + std::to_string(u);
    in.users[u].vp = std::uint32_t(rng.uniform_int(0, clients.size() - 1));
    in.users[u].cursor = std::uint32_t(rng.uniform_int(0, loads_per_vp - 1));
  }
  return in;
}

// The request mix of one connection: its own users, its own random stream.
class Stream {
 public:
  Stream(const Workload& wl, Inputs& in, std::size_t conn, std::size_t conns,
         std::uint64_t seed)
      : wl_(wl), in_(in), rng_(seed * 1000003ull + conn + 1) {
    for (std::size_t u = conn; u < in.users.size(); u += conns) {
      own_.push_back(std::uint32_t(u));
    }
  }

  Req report(std::uint32_t u) {
    User& usr = in_.users[u];
    const std::uint32_t b = usr.cursor++ % std::uint32_t(in_.pool[usr.vp].size());
    return Req{kReport, u, b};
  }

  Req next() {
    if (wl_.first_visit_share > 0 && rng_.chance(wl_.first_visit_share)) {
      return Req{kFirstVisit, first_visits_++, 0};
    }
    const std::uint32_t u = own_[rng_.uniform_int(0, own_.size() - 1)];
    if (rng_.chance(wl_.report_share)) return report(u);
    return Req{kPage, u, 0};
  }

  const std::vector<std::uint32_t>& own() const { return own_; }

 private:
  const Workload& wl_;
  Inputs& in_;
  util::Rng rng_;
  std::vector<std::uint32_t> own_;
  std::uint32_t first_visits_ = 0;
};

void append_request(std::string& out, const Inputs& in, const Req& r) {
  if (r.kind == kReport) {
    const User& u = in.users[r.user];
    const std::string& body = in.pool[u.vp][r.body];
    out += "POST ";
    out += in.report_path;
    out += " HTTP/1.1\r\nHost: ";
    out += in.host;
    out += "\r\nCookie: oak_uid=";
    out += u.uid;
    out += "\r\nContent-Type: application/json\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\n\r\n";
    out += body;
    return;
  }
  out += "GET ";
  out += in.page_path;
  out += " HTTP/1.1\r\nHost: ";
  out += in.host;
  if (r.kind == kPage) {
    out += "\r\nCookie: oak_uid=";
    out += in.users[r.user].uid;
  }
  out += "\r\n\r\n";
}

// ---------------------------------------------------------------------------
// One load connection: non-blocking, pipelined, responses in FIFO order.

struct Phase {
  bool open = false;            // open loop at `interval_ns`, else closed
  std::int64_t interval_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = INT64_MAX;  // open loop: stop sending at this time
  std::size_t max_requests = SIZE_MAX;
  std::size_t window = 8;           // closed loop: requests in flight
  bool record = false;              // keep latency samples
  std::int64_t window_ns = INT64_MAX;  // open loop: measurement windows
  const std::vector<Req>* script = nullptr;  // fixed request list
};

struct Sample {
  Kind kind;
  int window;     // measurement window of the scheduled send
  double lat_ms;  // scheduled send → response
  double rtt_us;  // actual send → response
};

struct PhaseOut {
  std::size_t sent = 0, ok = 0, failed = 0;
  std::size_t lost = 0;    // in flight on a connection that died
  int bad_status = 0;      // last non-2xx status seen
  std::size_t reports_ok = 0;
  std::vector<Sample> samples;
  std::vector<double> lag_us;  // open loop: how late each send went out
  std::vector<int> lag_window;
};

// Connections are replaced after these ages. wire::TimerWheel::cancel()
// erases an id's generation, so a deadline filed before a cancel matches
// the generation of the next one armed and fires early: a keep-alive
// connection that stays busy for the 5 s header deadline is answered 408
// and closed with requests in flight (see oakbench/README.md).
constexpr std::int64_t kRotateAgeNs = 3'000'000'000;
constexpr std::int64_t kMaxConnAgeNs = 4'500'000'000;

// The open loop sleeps until this long before a send is due, then polls.
constexpr std::int64_t kSpinNs = 150'000;

class LoadConn {
 public:
  LoadConn(std::uint16_t port, Inputs& in) : port_(port), in_(in) {}
  ~LoadConn() { close_fd(); }
  LoadConn(const LoadConn&) = delete;
  LoadConn& operator=(const LoadConn&) = delete;

  // Every request ever sent on this connection and whether it got a 2xx,
  // index-aligned (the correctness reference replays these).
  std::vector<Req> log;
  std::vector<std::uint8_t> ok_log;

  PhaseOut run(const Phase& ph, Stream& stream) {
    PhaseOut out;
    std::size_t script_pos = 0;
    std::int64_t next_due = ph.start_ns;
    bool sending = true;
    std::int64_t last_progress = now_ns();
    while (true) {
      const std::int64_t now = now_ns();
      if (fd_ < 0 && !connect_fd()) {
        fail_inflight(out);
        if (now > ph.end_ns || !sending) break;
        ::usleep(1000);
        continue;
      }
      // A connection is replaced once it is kRotateAge old, at the first
      // moment it has nothing in flight. The open loop keeps sending on it
      // until kMaxConnAge; the closed loop, whose window never empties,
      // stops sending at once and drains.
      const std::int64_t age = now - opened_ns_;
      const bool rotate = age >= kRotateAgeNs;
      const bool aged = rotate && (!ph.open || age >= kMaxConnAgeNs);
      // 1. Enqueue what is due.
      while (sending && !aged) {
        if (out.sent >= ph.max_requests ||
            (ph.script && script_pos >= ph.script->size())) {
          sending = false;
          break;
        }
        std::int64_t due = now;
        if (ph.open) {
          if (next_due >= ph.end_ns) {
            sending = false;
            break;
          }
          if (next_due > now) break;
          due = next_due;
          next_due += ph.interval_ns;
          // A send held back while the connection was being replaced
          // counts from when the new one opened.
          out.lag_us.push_back(double(now - std::max(due, opened_ns_)) / 1e3);
          out.lag_window.push_back(int((due - ph.start_ns) / ph.window_ns));
        } else if (inflight_.size() >= ph.window) {
          break;
        }
        const Req r = ph.script ? (*ph.script)[script_pos++] : stream.next();
        append_request(outbuf_, in_, r);
        inflight_.push_back(Inflight{r, due, now});
        log.push_back(r);
        ok_log.push_back(0);
        ++out.sent;
      }
      // 2. Write what we can.
      if (!flush()) {
        fail_inflight(out);
        continue;
      }
      if (!sending && inflight_.empty()) break;
      if (rotate && inflight_.empty() && outpos_ >= outbuf_.size()) {
        close_fd();
        continue;
      }
      // 3. Wait for input, output room or the next due time; the last
      // kSpinNs before a send are spent polling without sleeping.
      pollfd pfd{fd_, POLLIN, 0};
      if (outpos_ < outbuf_.size()) pfd.events |= POLLOUT;
      std::int64_t wait_ns = 50'000'000;
      if (sending && ph.open && !aged) {
        wait_ns = std::max<std::int64_t>(0, next_due - now - kSpinNs);
      }
      timespec ts{time_t(wait_ns / 1'000'000'000), long(wait_ns % 1'000'000'000)};
      const int n = ::ppoll(&pfd, 1, &ts, nullptr);
      if (n > 0 && (pfd.revents & (POLLIN | POLLERR | POLLHUP))) {
        if (!read_responses(ph, out)) {
          fail_inflight(out);
          continue;
        }
        last_progress = now_ns();
      }
      if (!inflight_.empty() && now_ns() - last_progress > 10'000'000'000) {
        fail_inflight(out);  // 10 s without a response: give up on them
        last_progress = now_ns();
      }
    }
    return out;
  }

 private:
  struct Inflight {
    Req req;
    std::int64_t due_ns;
    std::int64_t sent_ns;
  };

  bool connect_fd() {
    opened_ns_ = now_ns();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port_);
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      close_fd();
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    return true;
  }

  void close_fd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  // Requests in flight on a dead connection count as failed; the next
  // loop iteration reconnects.
  void fail_inflight(PhaseOut& out) {
    out.failed += inflight_.size();
    out.lost += inflight_.size();
    inflight_.clear();
    outbuf_.clear();
    outpos_ = 0;
    inbuf_.clear();
    inpos_ = 0;
    close_fd();
  }

  bool flush() {
    while (outpos_ < outbuf_.size()) {
      const ssize_t w = ::send(fd_, outbuf_.data() + outpos_,
                               outbuf_.size() - outpos_, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      outpos_ += std::size_t(w);
    }
    outbuf_.clear();
    outpos_ = 0;
    return true;
  }

  bool read_responses(const Phase& ph, PhaseOut& out) {
    char buf[65536];
    while (true) {
      const ssize_t r = ::recv(fd_, buf, sizeof buf, 0);
      if (r == 0) return false;
      if (r < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return false;
      }
      inbuf_.append(buf, std::size_t(r));
    }
    const std::int64_t now = now_ns();
    while (true) {
      const std::size_t head_end = inbuf_.find("\r\n\r\n", inpos_);
      if (head_end == std::string::npos) break;
      const std::string_view head(inbuf_.data() + inpos_, head_end - inpos_);
      std::size_t len = 0;
      const std::size_t cl = head.find("Content-Length: ");
      if (cl != std::string_view::npos) {
        len = std::size_t(std::strtoull(head.data() + cl + 16, nullptr, 10));
      }
      if (inbuf_.size() < head_end + 4 + len) break;
      const int status = head.size() > 12 ? std::atoi(head.data() + 9) : 0;
      inpos_ = head_end + 4 + len;
      if (inflight_.empty()) return false;  // unsolicited response
      const Inflight f = inflight_.front();
      inflight_.pop_front();
      const bool ok = status >= 200 && status < 300;
      ok_log[log.size() - inflight_.size() - 1] = ok ? 1 : 0;
      if (ok) {
        ++out.ok;
        if (f.req.kind == kReport) ++out.reports_ok;
      } else {
        ++out.failed;
        out.bad_status = status;
      }
      if (ph.record) {
        out.samples.push_back(
            Sample{f.req.kind, int((f.due_ns - ph.start_ns) / ph.window_ns),
                   double(now - f.due_ns) / 1e6, double(now - f.sent_ns) / 1e3});
      }
    }
    if (inpos_ > 0 && inpos_ * 2 >= inbuf_.size()) {
      inbuf_.erase(0, inpos_);
      inpos_ = 0;
    }
    return true;
  }

  std::uint16_t port_;
  Inputs& in_;
  int fd_ = -1;
  std::int64_t opened_ns_ = 0;
  std::string outbuf_;
  std::size_t outpos_ = 0;
  std::string inbuf_;
  std::size_t inpos_ = 0;
  std::deque<Inflight> inflight_;
};

// Run one phase on every connection, one thread each, and merge.
// The calling thread runs `meanwhile` (admin work) before joining.
PhaseOut run_phase(std::vector<std::unique_ptr<LoadConn>>& conns,
                   std::vector<Stream>& streams, Phase ph,
                   const std::vector<std::vector<Req>>* scripts = nullptr,
                   const std::function<void()>& meanwhile = nullptr) {
  std::vector<PhaseOut> outs(conns.size());
  std::vector<int> cpus;
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int i = 0; i < CPU_SETSIZE; ++i) {
      if (CPU_ISSET(i, &set)) cpus.push_back(i);
    }
  }
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c, ph]() mutable {
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      // One CPU of the process's set per connection thread.
      if (!cpus.empty()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[c % cpus.size()], &one);
        ::sched_setaffinity(0, sizeof one, &one);
      }
      if (scripts) ph.script = &(*scripts)[c];
      outs[c] = conns[c]->run(ph, streams[c]);
    });
  }
  if (meanwhile) meanwhile();
  for (auto& t : threads) t.join();
  PhaseOut all;
  for (auto& o : outs) {
    all.sent += o.sent;
    all.ok += o.ok;
    all.failed += o.failed;
    all.lost += o.lost;
    if (o.bad_status) all.bad_status = o.bad_status;
    all.reports_ok += o.reports_ok;
    all.samples.insert(all.samples.end(), o.samples.begin(), o.samples.end());
    all.lag_us.insert(all.lag_us.end(), o.lag_us.begin(), o.lag_us.end());
    all.lag_window.insert(all.lag_window.end(), o.lag_window.begin(),
                          o.lag_window.end());
  }
  return all;
}

// ---------------------------------------------------------------------------
// Admin connection and server-side probes.

// One short-lived connection per admin request (see kMaxConnAgeNs).
class Admin {
 public:
  explicit Admin(std::uint16_t port) : port_(port) {}

  // `ms`, when given, receives the request's latency, connect excluded.
  std::optional<wire::ClientResponse> request(const std::string& method,
                                              const std::string& target,
                                              const std::string& body = "",
                                              double* ms = nullptr) {
    wire::BlockingClient cli;
    if (!cli.connect("127.0.0.1", port_, 60.0)) return std::nullopt;
    const std::int64_t t0 = now_ns();
    auto r = cli.request(method, target, {{"Host", "admin"}}, body);
    if (ms != nullptr) *ms = double(now_ns() - t0) / 1e6;
    return r;
  }

  util::Json metrics() {
    auto r = request("GET", "/metrics.json");
    if (!r || r->status != 200) throw std::runtime_error("metrics scrape failed");
    return util::Json::parse(r->body);
  }

 private:
  std::uint16_t port_;
};

double counter(const util::Json& m, const std::string& name) {
  const util::Json* c = m.at("counters").find(name);
  return c ? c->as_number() : 0.0;
}
double gauge(const util::Json& m, const std::string& name) {
  const util::Json* g = m.at("gauges").find(name);
  return g ? g->as_number() : 0.0;
}
double hist(const util::Json& m, const std::string& name,
            const std::string& field) {
  const util::Json* h = m.at("histograms").find(name);
  return h ? h->at(field).as_number() : 0.0;
}

// utime + stime of a process, in seconds.
double cpu_seconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string s((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  const std::size_t rp = s.rfind(')');
  if (rp == std::string::npos) return 0.0;
  std::istringstream rest(s.substr(rp + 2));
  std::string field;
  double ut = 0, st = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) ut = std::stod(field);
    if (i == 15) st = std::stod(field);
  }
  return (ut + st) / double(::sysconf(_SC_CLK_TCK));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Rule files compare by content, not by the ids the server assigned.
std::string normalized_rules(const std::string& text) {
  std::vector<core::Rule> rules = core::parse_rules(text);
  for (auto& r : rules) r.id = 0;
  return core::format_rules(rules);
}

// ---------------------------------------------------------------------------
// Correctness reference: a single-threaded OakServer fed every acknowledged
// request, connection by connection (each user lives on one connection, so
// its sequence is preserved).

struct RefCounts {
  double reports = 0, modified = 0, activations = 0;
};

http::Request to_request(const Inputs& in, const Req& r) {
  http::Request req =
      r.kind == kReport
          ? http::Request::post("http://" + in.host + in.report_path,
                                in.pool[in.users[r.user].vp][r.body])
          : http::Request::get("http://" + in.host + in.page_path);
  if (r.kind != kFirstVisit) {
    req.headers.set("Cookie", std::string(http::kOakUserCookie) + "=" +
                                  in.users[r.user].uid);
  }
  req.client_ip = "127.0.0.1";
  return req;
}

RefCounts reference_counts(oakbench::Web& web, const Inputs& in,
                           const std::string& rules_text,
                           const std::vector<std::unique_ptr<LoadConn>>& conns) {
  core::OakServer ref(web.universe(), web.host(), oakbench::oak_config(0, ""));
  ref.add_rules(core::parse_rules(rules_text));
  double now = 1.0;
  for (const auto& c : conns) {
    for (std::size_t i = 0; i < c->log.size(); ++i) {
      if (!c->ok_log[i]) continue;
      ref.handle(to_request(in, c->log[i]), now);
      now += 1e-3;
    }
  }
  const obs::MetricsSnapshot s = ref.metrics_snapshot();
  return RefCounts{double(s.counter("oak_reports_ingested_total")),
                   double(s.counter("oak_pages_modified_total")),
                   double(s.counter("oak_rule_activations_total"))};
}

// ---------------------------------------------------------------------------
// In-process replay: a sample of the users' acknowledged requests, in the
// order the connections sent them, through a replica ShardedOakServer
// (journal on). Run once untraced and once traced, to price the tracing.
//
// Traced, each request is a tree of spans:
//
//   replay.request
//     wire.parse             RequestParser over the request's bytes
//     sharded.handle         handle_for_user, plus the lookup it starts with
//       user_store.lookup    the shard's TieredUserStore::find (fault-in
//                            included), made just before handle_for_user,
//                            which then finds the profile hot
//       browser.decode       the increments of the shard's own stage timers
//       grouping.group       over the call (OakServer's ingest/serve
//       violator.detect      histograms), laid end to end after the lookup:
//       matcher.match        their lengths are measured by the server, their
//       modifier.apply       places inside the handle span are not
//     durability.append      the record handle journaled, appended again to
//                            a journal file of the benchmark's own
//
// so the handle span's self time is the part of handle_for_user no stage
// timer covers: queue and lock hand-off, profile creation, expiry, policy
// bookkeeping and the journal append.

// The traced replay keeps every kReplayEvery-th user.
constexpr std::size_t kReplayEvery = 4;

// OakServer's stage timers and the span each becomes.
constexpr const char* kStages[][2] = {
    {"oak_ingest_decode_seconds", "browser.decode"},
    {"oak_ingest_group_seconds", "grouping.group"},
    {"oak_ingest_detect_seconds", "violator.detect"},
    {"oak_ingest_match_seconds", "matcher.match"},
    {"oak_serve_modify_seconds", "modifier.apply"},
};
constexpr std::size_t kNumStages = std::size(kStages);

struct ReplayOut {
  double wall_s = 0;  // summed over the replayed requests, shadow appends out
  std::size_t requests = 0;
  std::map<std::string, double> layers;  // traced only
};

ReplayOut replay(oakbench::Web& web, const Inputs& in, std::size_t hot_capacity,
                 const std::string (&rule_text)[2], const std::string& dir,
                 const std::vector<std::unique_ptr<LoadConn>>& conns,
                 const std::vector<std::size_t>& swap_points, Tracer* tr) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fs::create_directories(dir);
  const core::OakConfig cfg = oakbench::oak_config(
      std::max<std::size_t>(1, hot_capacity / kReplayEvery), dir + "/journal");
  core::ShardedOakServer srv(web.universe(), web.host(), cfg, oakbench::kShards);
  const std::vector<core::Rule> rules[2] = {core::parse_rules(rule_text[0]),
                                            core::parse_rules(rule_text[1])};
  int active_set = 0;
  srv.add_rules(rules[0]);
  auto swap_rules = [&] {
    active_set ^= 1;
    for (const auto& r : srv.rules()) srv.remove_rule(r.id, 0.0);
    srv.add_rules(rules[active_set]);
  };

  std::unique_ptr<durability::Journal> shadow;
  // Per shard and stage: the timer and its last-read sum and count.
  struct Stage {
    obs::Histogram* h = nullptr;
    double sum = 0;
    std::uint64_t count = 0;
  };
  std::vector<std::array<Stage, kNumStages>> stages(oakbench::kShards);
  std::uint32_t n_request = 0, n_parse = 0, n_handle = 0, n_lookup = 0,
                n_append = 0, n_swap = 0, n_stage[kNumStages] = {};
  if (tr != nullptr) {
    shadow = std::make_unique<durability::Journal>(
        dir + "/shadow.wal", durability::PosixFile::open_append(dir + "/shadow.wal"),
        0);
    for (std::size_t sh = 0; sh < oakbench::kShards; ++sh) {
      for (std::size_t k = 0; k < kNumStages; ++k) {
        stages[sh][k].h = &srv.shard(sh).metrics_registry().histogram(kStages[k][0]);
        const obs::HistogramSnapshot snap = stages[sh][k].h->snapshot();
        stages[sh][k].sum = snap.sum;
        stages[sh][k].count = snap.count();
      }
    }
    n_request = tr->name("replay.request");
    n_parse = tr->name("wire.parse");
    n_handle = tr->name("sharded.handle");
    n_lookup = tr->name("user_store.lookup");
    n_append = tr->name("durability.append");
    n_swap = tr->name("rules.swap");
    for (std::size_t k = 0; k < kNumStages; ++k) n_stage[k] = tr->name(kStages[k][1]);
  }

  wire::RequestParser parser;
  std::string raw;
  std::size_t longest = 0;
  for (const auto& c : conns) longest = std::max(longest, c->log.size());
  std::size_t global = 0, next_swap = 0;
  std::int64_t wall_ns = 0;
  double now = 1.0;
  ReplayOut out;
  // Interleave the connections' logs round-robin, as they reached the
  // server; keep every kReplayEvery-th user (and first visit).
  for (std::size_t i = 0; i < longest; ++i) {
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (i >= conns[c]->log.size()) continue;
      ++global;
      while (next_swap < swap_points.size() && global >= swap_points[next_swap]) {
        swap_rules();
        ++next_swap;
      }
      const Req& r = conns[c]->log[i];
      if (!conns[c]->ok_log[i] || r.user % kReplayEvery != 0) continue;
      now += 1e-3;
      ++out.requests;
      raw.clear();
      append_request(raw, in, r);
      std::string uid = r.kind == kFirstVisit ? "" : in.users[r.user].uid;
      const std::int64_t t0 = now_ns();
      if (tr == nullptr) {
        parser.reset();
        parser.feed(raw);
        srv.handle_for_user(parser.take_request().to_http("127.0.0.1"), now, uid);
        wall_ns += now_ns() - t0;
        continue;
      }

      const std::uint64_t trace = global;
      const std::int32_t root = tr->begin(n_request, trace);
      http::Request req;
      {
        oakbench::ScopedSpan sp(*tr, n_parse, trace, root);
        parser.reset();
        parser.feed(raw);
        req = parser.take_request().to_http("127.0.0.1");
      }
      const std::int32_t handle = tr->begin(n_handle, trace, root);
      std::int64_t at = tr->spans()[handle].start_ns;
      if (!uid.empty()) {
        oakbench::ScopedSpan sp(*tr, n_lookup, trace, handle);
        srv.shard(srv.shard_for(uid)).user_store().find(uid, now, false);
      }
      if (!uid.empty()) at = tr->spans().back().end_ns;
      const http::Response resp = srv.handle_for_user(req, now, uid);
      tr->end(handle);
      if (uid.empty()) {
        // The id the replica minted.
        if (auto sc = resp.headers.get("Set-Cookie")) {
          uid = sc->substr(sc->find('=') + 1);
          uid = uid.substr(0, uid.find(';'));
        }
      }
      for (std::size_t k = 0; k < kNumStages; ++k) {
        Stage& st = stages[srv.shard_for(uid)][k];
        const obs::HistogramSnapshot snap = st.h->snapshot();
        if (snap.count() != st.count) {
          const auto len = std::int64_t((snap.sum - st.sum) * 1e9);
          tr->add(n_stage[k], trace, handle, at, at + len);
          at += len;
        }
        st.sum = snap.sum;
        st.count = snap.count();
      }
      // The shadow append is work handle_for_user already did: it is timed
      // but left out of the replay's wall time.
      const std::int64_t a0 = now_ns();
      {
        oakbench::ScopedSpan sp(*tr, n_append, trace, root);
        durability::RequestRecordView rec;
        rec.seq = global;
        rec.now = now;
        rec.post = r.kind == kReport;
        rec.uid = uid;
        rec.client_ip = req.client_ip;
        rec.path = req.url.path;
        rec.body = req.body;
        shadow->append_request(rec);
      }
      const std::int64_t a1 = now_ns();
      tr->end(root);
      wall_ns += (now_ns() - t0) - (a1 - a0);
    }
  }
  out.wall_s = double(wall_ns) / 1e9;
  if (tr == nullptr) return out;

  // Rule swaps on the replica's final state: remove every rule, add the
  // other set, as PUT /admin/rules does.
  for (int k = 0; k < 5; ++k) {
    oakbench::ScopedSpan sp(*tr, n_swap, global + 1 + std::uint64_t(k));
    swap_rules();
  }

  const auto self = tr->self_us_by_name();
  const auto dur = tr->duration_us_by_name();
  auto med = [&](const std::map<std::string, std::vector<double>>& m,
                 const char* name) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : median(it->second);
  };
  auto sum = [&](const std::map<std::string, std::vector<double>>& m,
                 const char* name) {
    double s = 0;
    if (auto it = m.find(name); it != m.end()) {
      for (double v : it->second) s += v;
    }
    return s;
  };
  auto& L = out.layers;
  L["wire.parse_us"] = med(self, "wire.parse");
  L["sharded.handle_us"] = med(dur, "sharded.handle");
  const double handle_total = sum(dur, "sharded.handle");
  L["sharded.unaccounted_share"] =
      handle_total > 0 ? sum(self, "sharded.handle") / handle_total : 0.0;
  for (std::size_t k = 0; k < kNumStages; ++k) {
    L[std::string(kStages[k][1]) + "_us"] = med(self, kStages[k][1]);
  }
  L["user_store.lookup_us"] = med(self, "user_store.lookup");
  L["durability.append_us"] = med(self, "durability.append");
  L["rules.swap_ms"] = med(dur, "rules.swap") / 1e3;
  std::size_t decisions = 0;
  for (int t = 0; t <= int(core::DecisionType::kRaceWinner); ++t) {
    decisions += srv.decision_count(core::DecisionType(t));
  }
  L["decision_log.records_per_req"] =
      out.requests ? double(decisions) / double(out.requests) : 0.0;
  return out;
}

// Violators per report, averaged over the reports acknowledged. Decode,
// group and detect are pure functions of the report body, so each body of
// the pool is analysed once.
double violators_per_report(const Inputs& in, const core::OakConfig& cfg,
                            const std::vector<std::unique_ptr<LoadConn>>& conns) {
  std::vector<std::vector<double>> count(in.pool.size());
  for (std::size_t v = 0; v < in.pool.size(); ++v) {
    for (const std::string& body : in.pool[v]) {
      util::StringArena arena;
      browser::ReportView view;
      browser::decode_report_view(body, arena, view);
      const core::DetectionResult det = core::detect_violators(
          core::group_by_server(view, cfg.detector.small_threshold_bytes),
          cfg.detector);
      count[v].push_back(double(det.violators.size()));
    }
  }
  double total = 0, reports = 0;
  for (const auto& c : conns) {
    for (std::size_t i = 0; i < c->log.size(); ++i) {
      const Req& r = c->log[i];
      if (!c->ok_log[i] || r.kind != kReport) continue;
      total += count[in.users[r.user].vp][r.body];
      reports += 1;
    }
  }
  return reports > 0 ? total / reports : 0.0;
}

int write_rules(const std::string& dir) {
  oakbench::Web web;
  std::filesystem::create_directories(dir);
  for (int set = 0; set < 2; ++set) {
    std::ofstream out(dir + "/rules-" + std::to_string(set) + ".txt");
    out << oakbench::rule_file(web, set);
    if (!out) return 1;
  }
  std::printf("{\"ok\":true}\n");
  return 0;
}

// JSON number/object writer for the one result line.
std::string jnum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
  return buf;
}
std::string jobj(const std::map<std::string, double>& m) {
  std::string s = "{";
  for (const auto& [k, v] : m) {
    if (s.size() > 1) s += ',';
    s += "\"" + k + "\":" + jnum(v);
  }
  return s + "}";
}

int time_swaps(std::uint16_t port, const std::string& rules_dir, int n) {
  Admin admin(port);
  const std::string text[2] = {read_file(rules_dir + "/rules-0.txt"),
                               read_file(rules_dir + "/rules-1.txt")};
  std::vector<double> ms;
  bool ok = true;
  for (int i = 0; i < n; ++i) {
    // Spaced out, so the median does not sample one moment of the host.
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(80));
    double t = 0;
    auto r = admin.request("PUT", "/admin/rules", text[(i + 1) % 2], &t);
    ms.push_back(t);
    ok = ok && r && r->status == 201;
  }
  std::string log;
  for (double t : ms) {
    log += ' ';
    log += jnum(std::round(t * 100) / 100);
  }
  std::fprintf(stderr, "oakbench_load: rule swaps (ms):%s\n", log.c_str());
  std::printf("{\"ok\":%s,\"rule_put_ms\":%.6f}\n", ok ? "true" : "false",
              calm_low(ms));
  return ok ? 0 : 1;
}

int run_load(int argc, char** argv) {
  Workload wl;
  wl.name = arg(argc, argv, "workload", "");
  wl.rate = std::stod(arg(argc, argv, "rate", "1000"));
  wl.users = std::stoul(arg(argc, argv, "users", "2000"));
  wl.report_share = std::stod(arg(argc, argv, "report-share", "0.9"));
  wl.first_visit_share = std::stod(arg(argc, argv, "first-visit-share", "0"));
  wl.warm_reports = std::stoi(arg(argc, argv, "warm-reports", "0"));
  wl.closed_requests = std::stoul(arg(argc, argv, "closed-requests", "30000"));
  wl.swap_rules = arg(argc, argv, "swap-rules", "0") == "1";
  const std::uint64_t seed = std::stoull(arg(argc, argv, "seed", "1"));
  const double seconds = std::stod(arg(argc, argv, "seconds", "10"));
  const bool traced = arg(argc, argv, "trace", "0") == "1";
  const auto port = std::uint16_t(std::stoi(arg(argc, argv, "port", "0")));
  const int pid = std::stoi(arg(argc, argv, "server-pid", "0"));
  const std::string out_dir = arg(argc, argv, "out", ".");
  const std::string rules_dir = arg(argc, argv, "rules-dir", out_dir);
  const std::size_t nconns = std::stoul(arg(argc, argv, "conns", "3"));
  const std::size_t hot_capacity =
      std::stoul(arg(argc, argv, "hot-capacity", "2000"));
  constexpr std::size_t kWindowInFlight = 8;  // closed loop, per connection
  constexpr std::size_t kTailPerConn = 300;
  if (port == 0 || pid == 0 || wl.name.empty()) {
    std::fprintf(stderr, "oakbench_load: --port, --server-pid and --workload "
                         "are required\n");
    return 2;
  }

  std::int64_t mark_ns = now_ns();
  auto mark = [&](const char* step) {
    const std::int64_t t = now_ns();
    std::fprintf(stderr, "oakbench_load: %s %.2f s\n", step,
                 double(t - mark_ns) / 1e9);
    mark_ns = t;
  };
  oakbench::Web web;
  Inputs in = make_inputs(web, wl, seed, 16);
  mark("inputs");
  const std::string rule_text[2] = {read_file(rules_dir + "/rules-0.txt"),
                                    read_file(rules_dir + "/rules-1.txt")};
  Admin admin(port);
  std::vector<std::unique_ptr<LoadConn>> conns;
  std::vector<Stream> streams;
  for (std::size_t c = 0; c < nconns; ++c) {
    conns.push_back(std::make_unique<LoadConn>(port, in));
    streams.emplace_back(wl, in, c, nconns, seed);
  }
  std::size_t attempted = 0, failed = 0, reports_acked = 0, lost = 0;
  int bad_status = 0;
  auto tally = [&](const PhaseOut& o) {
    attempted += o.sent;
    failed += o.failed;
    lost += o.lost;
    if (o.bad_status) bad_status = o.bad_status;
    reports_acked += o.reports_ok;
  };
  Phase closed;
  closed.window = kWindowInFlight;

  // --- Warm-up (untimed).
  if (wl.warm_reports > 0) {
    std::vector<std::vector<Req>> scripts(nconns);
    for (std::size_t c = 0; c < nconns; ++c) {
      for (int k = 0; k < wl.warm_reports; ++k) {
        for (std::uint32_t u : streams[c].own()) {
          scripts[c].push_back(streams[c].report(u));
        }
      }
    }
    tally(run_phase(conns, streams, closed, &scripts));
  }
  util::Json m = admin.metrics();
  double prev_ratio = -1, prev_hot = -1;
  int rounds = 0;
  bool stable = false;
  constexpr int kMaxWarmRounds = 40;
  const std::size_t round_reqs =
      std::max<std::size_t>(300, std::size_t(wl.rate / double(nconns)));
  while (rounds < kMaxWarmRounds && !stable) {
    Phase ph = closed;
    ph.max_requests = round_reqs;
    tally(run_phase(conns, streams, ph));
    const util::Json m2 = admin.metrics();
    const double hits = counter(m2, "oak_match_memo_hits_total") -
                        counter(m, "oak_match_memo_hits_total");
    const double misses = counter(m2, "oak_match_memo_misses_total") -
                          counter(m, "oak_match_memo_misses_total");
    const double ratio = hits + misses > 0 ? hits / (hits + misses) : 1.0;
    const double hot = gauge(m2, "oak_users_hot");
    ++rounds;
    stable = rounds >= 2 && std::fabs(ratio - prev_ratio) < 0.01 &&
             std::fabs(hot - prev_hot) <= 0.01 * std::max(hot, 1.0);
    prev_ratio = ratio;
    prev_hot = hot;
    m = m2;
  }

  mark("warm-up");
  // Every run enters the measured phases on a fresh snapshot, so journal
  // size and compaction points do not depend on how long warm-up took.
  {
    auto r = admin.request("POST", "/admin/compact");
    if (!r || r->status != 200) throw std::runtime_error("compaction failed");
  }

  // --- Closed loop: a fixed count of requests, so every run leaves the same
  // state behind, in kBursts equal bursts: a third before the fixed phase,
  // a third in its middle and a third after it, so they sample the host
  // over most of the run. max_rps is the rate of the fastest burst. The
  // host's other tenants only ever slow a burst down (the best of several
  // runs, as in min-of-N timing).
  constexpr int kBursts = 12;
  constexpr int kSegments = 2;  // parts of the fixed phase
  std::vector<double> burst_rps;
  auto run_bursts = [&](int n) {
    for (int b = 0; b < n; ++b) {
      Phase ph = closed;
      ph.max_requests = wl.closed_requests / kBursts / nconns;
      const std::int64_t t0 = now_ns();
      const PhaseOut o = run_phase(conns, streams, ph);
      tally(o);
      burst_rps.push_back(double(o.ok) / (double(now_ns() - t0) / 1e9));
    }
  };
  run_bursts(kBursts / (kSegments + 1));
  mark("closed");

  // churn: one rule swap between warm-up and the fixed phase, so the fixed
  // phase starts on a cold matcher memo.
  std::vector<std::size_t> swap_points;  // requests sent before each swap
  int last_set = 0;
  bool puts_ok = true;
  if (wl.swap_rules) {
    last_set = 1;
    std::size_t sent = 0;
    for (const auto& c : conns) sent += c->log.size();
    swap_points.push_back(sent);
    auto r = admin.request("PUT", "/admin/rules", rule_text[last_set]);
    puts_ok = r && r->status == 201;
  }

  // --- Fixed-rate phase (open loop), cut into kWindows windows by
  // scheduled send time; each end-to-end figure is the median over the
  // windows in which the host interfered least. It runs in kSegments parts
  // with a group of bursts between them.
  constexpr int kWindows = 14;
  constexpr double kMaxLagUs = 1000;
  const double fixed_s = seconds * 0.7;
  Phase fixed;
  fixed.open = true;
  fixed.record = true;
  fixed.interval_ns = std::int64_t(1e9 * double(nconns) / wl.rate);
  fixed.window_ns = std::int64_t(fixed_s * 1e9 / kWindows);
  std::vector<double> cpu(kWindows);  // server CPU seconds per window
  PhaseOut fx;
  for (int seg = 0; seg < kSegments; ++seg) {
    const int first = seg * kWindows / kSegments;
    const int n = (seg + 1) * kWindows / kSegments - first;
    fixed.start_ns = now_ns() + 20'000'000;
    fixed.end_ns = fixed.start_ns + n * fixed.window_ns;
    PhaseOut o = run_phase(conns, streams, fixed, nullptr, [&] {
      double prev = 0;
      for (int k = 0; k <= n; ++k) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            fixed.start_ns + k * fixed.window_ns - now_ns()));
        const double c = cpu_seconds(pid);
        if (k > 0) cpu[first + k - 1] = c - prev;
        prev = c;
      }
    });
    tally(o);
    fx.sent += o.sent;
    for (Sample& smp : o.samples) {
      smp.window += first;
      fx.samples.push_back(smp);
    }
    for (std::size_t i = 0; i < o.lag_us.size(); ++i) {
      fx.lag_us.push_back(o.lag_us[i]);
      fx.lag_window.push_back(o.lag_window[i] + first);
    }
    mark("fixed");
    run_bursts(kBursts / (kSegments + 1));
    mark("closed");
  }
  std::string burst_log;
  for (double r : burst_rps) {
    burst_log += ' ';
    burst_log += jnum(std::round(r));
  }
  std::fprintf(stderr, "oakbench_load: burst rates:%s\n", burst_log.c_str());
  const double max_rps = *std::max_element(burst_rps.begin(), burst_rps.end());
  // --- Tail: compaction, then a fixed count of requests.
  double compact_ms = 0;
  auto comp = admin.request("POST", "/admin/compact", "", &compact_ms);
  {
    Phase ph = closed;
    ph.max_requests = kTailPerConn;
    tally(run_phase(conns, streams, ph));
  }
  const util::Json m_end = admin.metrics();

  mark("tail");
  // --- Correctness.
  std::string why;
  const double ingested = counter(m_end, "oak_reports_ingested_total");
  if (wl.first_visit_share > 0 || wl.swap_rules) {
    // The reference knows neither the ids the server mints nor when a swap
    // landed between the connections' requests; check what the server owes
    // its clients instead.
    if (double(reports_acked) != ingested) {
      why += "acknowledged reports " + std::to_string(reports_acked) +
             " != ingested " + jnum(ingested) + "; ";
    }
  } else {
    const RefCounts ref = reference_counts(web, in, rule_text[0], conns);
    auto check = [&](const char* name, double want) {
      const double got = counter(m_end, name);
      if (got != want) {
        why += std::string(name) + " " + jnum(got) + " != reference " +
               jnum(want) + "; ";
      }
    };
    check("oak_reports_ingested_total", ref.reports);
    check("oak_pages_modified_total", ref.modified);
    check("oak_rule_activations_total", ref.activations);
  }
  if (wl.swap_rules) {
    auto got = admin.request("GET", "/admin/rules");
    if (!puts_ok || !got || got->status != 200 ||
        normalized_rules(got->body) != normalized_rules(rule_text[last_set])) {
      why += "final rule set differs from the last PUT; ";
    }
  }
  if (!comp || comp->status != 200) why += "compaction failed; ";
  const bool correct = why.empty();

  mark("checks");
  // --- Validity and window choice. A window in which the generator's
  // median send was over kMaxLagUs late is one where it fell behind; a run
  // with such windows in the majority is invalid. The host's other
  // tenants delay the generator and the server alike, so the send lag also
  // ranks the windows by how much the host interfered: the figures come
  // from the calmer half.
  std::vector<std::vector<double>> lag_w(kWindows);
  for (std::size_t i = 0; i < fx.lag_us.size(); ++i) {
    lag_w[std::min(fx.lag_window[i], kWindows - 1)].push_back(fx.lag_us[i]);
  }
  struct Win {
    std::vector<double> page, report;
    double lag_p90 = 0;
  };
  std::vector<Win> win(kWindows);
  std::vector<double> rtt;
  for (const Sample& smp : fx.samples) {
    Win& w = win[std::min(smp.window, kWindows - 1)];
    (smp.kind == kReport ? w.report : w.page).push_back(smp.lat_ms);
    rtt.push_back(smp.rtt_us);
  }
  int behind = 0;
  std::vector<int> order(kWindows);
  std::string lags;
  for (int k = 0; k < kWindows; ++k) {
    order[k] = k;
    win[k].lag_p90 = percentile(lag_w[k], 0.90);
    behind += percentile(lag_w[k], 0.50) > kMaxLagUs;
    lags += " " + jnum(std::round(win[k].lag_p90));
  }
  std::fprintf(stderr, "oakbench_load: send lag p90 per window (us):%s\n",
               lags.c_str());
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return win[a].lag_p90 < win[b].lag_p90;
  });
  std::map<std::string, std::vector<double>> per_window;
  double cpu_used = 0, reqs_used = 0;
  for (int i = 0; i < kWindows / 2; ++i) {
    const int k = order[i];
    per_window["page_p50_ms"].push_back(percentile(win[k].page, 0.50));
    per_window["page_p90_ms"].push_back(percentile(win[k].page, 0.90));
    per_window["report_p50_ms"].push_back(percentile(win[k].report, 0.50));
    per_window["report_p90_ms"].push_back(percentile(win[k].report, 0.90));
    // CPU time comes in clock ticks; summed over the windows used.
    cpu_used += cpu[k];
    reqs_used += double(win[k].page.size() + win[k].report.size());
  }
  const double lag_p99 = percentile(fx.lag_us, 0.99);
  std::string invalid;
  if (behind * 2 > kWindows) {
    invalid = "generator fell behind in " + std::to_string(behind) + " of " +
              std::to_string(kWindows) + " windows (send lag p99 " +
              jnum(lag_p99) + " us)";
  } else if (!stable) {
    invalid = "warm-up did not settle in " + std::to_string(rounds) + " rounds";
  }

  std::map<std::string, double> e2e;
  for (const auto& [k, v] : per_window) e2e[k] = median(v);
  e2e["cpu_us_per_req"] = reqs_used > 0 ? cpu_used * 1e6 / reqs_used : 0;
  e2e["max_rps"] = max_rps;
  e2e["ok_frac"] = attempted ? 1.0 - double(failed) / double(attempted) : 0;

  std::map<std::string, double> info;
  info["lag_p50_us"] = percentile(fx.lag_us, 0.50);
  info["lag_p99_us"] = lag_p99;
  info["warm_rounds"] = rounds;
  info["fixed_requests"] = double(fx.sent);
  info["windows_behind"] = behind;
  info["reports_ingested"] = ingested;
  info["report_bytes_median"] = double(in.report_bytes_median);
  info["failed_lost"] = double(lost);
  info["failed_last_status"] = bad_status;

  std::map<std::string, double> layers;
  if (traced) {
    const double reqs = counter(m_end, "oak_requests_total");
    const double resp = counter(m_end, "oak_wire_responses_2xx_total") +
                        counter(m_end, "oak_wire_responses_4xx_total") +
                        counter(m_end, "oak_wire_responses_5xx_total");
    const double wire_reqs = counter(m_end, "oak_wire_requests_total");
    const double hits = counter(m_end, "oak_match_memo_hits_total");
    const double misses = counter(m_end, "oak_match_memo_misses_total");
    const double served = counter(m_end, "oak_pages_served_total");
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    layers["wire.writev_per_resp"] =
        ratio(counter(m_end, "oak_wire_writev_calls_total"), resp);
    layers["wire.shed_frac"] =
        ratio(counter(m_end, "oak_wire_shed_conn_cap_total") +
                  counter(m_end, "oak_wire_shed_dispatch_total") +
                  counter(m_end, "oak_wire_shed_backpressure_total"),
              wire_reqs);
    layers["sharded.contention_frac"] =
        ratio(counter(m_end, "oak_shard_contentions_total"), reqs);
    layers["sharded.batch_mean"] = hist(m_end, "oak_ingest_batch_size", "mean");
    layers["violator.violators_per_report"] =
        violators_per_report(in, oakbench::oak_config(0, ""), conns);
    // Every rule × violator probe consults the memo once.
    layers["matcher.probes_per_report"] = ratio(hits + misses, ingested);
    layers["matcher.memo_hit_ratio"] = ratio(hits, hits + misses);
    layers["matcher.invalidations"] =
        counter(m_end, "oak_match_invalidations_total");
    layers["policy.activations_per_kreport"] =
        1e3 * ratio(counter(m_end, "oak_rule_activations_total"), ingested);
    layers["modifier.modified_ratio"] =
        ratio(counter(m_end, "oak_pages_modified_total"), served);
    layers["durability.bytes_per_req"] =
        ratio(hist(m_end, "oak_journal_append_bytes", "sum"), reqs);
    layers["durability.compactions"] =
        counter(m_end, "oak_journal_compactions_total");
    layers["durability.compact_ms"] = compact_ms;
    layers["user_store.faultin_frac"] =
        ratio(counter(m_end, "oak_user_faultins_total"), reqs);
    layers["user_store.demotions_per_kreq"] =
        1e3 * ratio(counter(m_end, "oak_user_demotions_total"), reqs);
    layers["loadgen.lag_p99_us"] = lag_p99;

    // The replay, untraced and then traced, on replicas of their own.
    const ReplayOut plain = replay(web, in, hot_capacity, rule_text,
                                   out_dir + "/replay", conns, swap_points, nullptr);
    Tracer tr;
    const ReplayOut rep = replay(web, in, hot_capacity, rule_text,
                                 out_dir + "/replay", conns, swap_points, &tr);
    std::filesystem::remove_all(out_dir + "/replay");
    for (const auto& [k, v] : rep.layers) layers[k] = v;
    layers["wire.outside_us"] = median(rtt) - rep.layers.at("sharded.handle_us");
    layers["trace.replay_rps_untraced"] = ratio(double(plain.requests), plain.wall_s);
    layers["trace.replay_rps_traced"] = ratio(double(rep.requests), rep.wall_s);
    layers["trace.overhead_frac"] =
        plain.wall_s > 0 ? rep.wall_s / plain.wall_s - 1.0 : 0.0;
    const std::string spans_path = out_dir + "/spans-" + wl.name + "-" +
                                   std::to_string(seed) + ".jsonl";
    if (!tr.write_jsonl(spans_path)) {
      std::fprintf(stderr, "oakbench_load: cannot write %s\n", spans_path.c_str());
    }
    mark("replay");
  }

  std::printf("{\"correct\":%s,\"why\":\"%s\",\"invalid\":\"%s\","
              "\"attempted\":%zu,\"failed\":%zu,\"e2e\":%s,\"layers\":%s,"
              "\"info\":%s}\n",
              correct ? "true" : "false", util::json_escape(why).c_str(),
              util::json_escape(invalid).c_str(), attempted, failed,
              jobj(e2e).c_str(), jobj(layers).c_str(), jobj(info).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (std::string d = arg(argc, argv, "write-rules", ""); !d.empty()) {
      return write_rules(d);
    }
    const auto port = std::uint16_t(std::stoi(arg(argc, argv, "port", "0")));
    const std::string rules_dir = arg(argc, argv, "rules-dir", ".");
    if (std::string n = arg(argc, argv, "time-swaps", ""); !n.empty()) {
      return time_swaps(port, rules_dir, std::stoi(n));
    }
    return run_load(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oakbench_load: %s\n", e.what());
    return 1;
  }
}
