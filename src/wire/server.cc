#include "wire/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/rule_parser.h"
#include "http/cookies.h"

namespace oak::wire {

namespace {

// epoll user-data sentinels; connection ids start above them.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kEventFdTag = 1;   // per-loop completions wakeup
constexpr std::uint64_t kDrainFdTag = 2;   // shared drain wakeup (oneshot)
constexpr std::uint64_t kFirstConnId = 3;

// Timer kinds carried in Conn::timer_kind (one armed deadline per conn).
constexpr int kTimerNone = 0;
constexpr int kTimerHeader = 1;
constexpr int kTimerIdle = 2;
constexpr int kTimerWrite = 3;

// Pipelined-output bounds: phase 1 of pump() stops answering buffered
// requests once this much response data is queued, so a peer that
// pipelines thousands of requests and never reads can't make us buffer
// unbounded output.
constexpr std::size_t kSoftOutCap = 64 * 1024;
// iovec fan-in per sendmsg call; responses beyond this wait for the next.
constexpr std::size_t kMaxIov = 64;

void bump(obs::Counter* c, std::uint64_t n = 1) {
  if (c) c->inc(n);
}

bool iequal(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    char x = a[i], y = b[i];
    if (x >= 'A' && x <= 'Z') x = static_cast<char>(x - 'A' + 'a');
    if (y >= 'A' && y <= 'Z') y = static_cast<char>(y - 'A' + 'a');
    if (x != y) return false;
  }
  return true;
}

// The SIGTERM handler can only touch async-signal-safe state: one atomic
// flag plus an eventfd write to kick the epoll loops. One server per
// process owns the handler (install_signal_drain documents this).
std::atomic<std::atomic<bool>*> g_drain_flag{nullptr};
std::atomic<int> g_drain_fd{-1};

extern "C" void oak_wire_drain_handler(int) {
  if (auto* flag = g_drain_flag.load(std::memory_order_relaxed)) {
    flag->store(true, std::memory_order_release);
  }
  const int fd = g_drain_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t r = ::write(fd, &one, sizeof one);
  }
}

}  // namespace

// One event loop: its own SO_REUSEPORT listener, epoll set, completion
// queue, timer wheel and connection table. Everything here except
// `completions`/`cmu` (workers push) and `event_fd` (workers kick) is
// touched only by the loop's own thread.
struct Server::Loop {
  std::size_t index = 0;
  int listen_fd = -1;
  int epoll_fd = -1;
  int event_fd = -1;  // worker completions wakeup
  std::thread thread;

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::uint64_t next_conn_id = kFirstConnId;
  TimerWheel wheel{0.05};

  bool drain_started = false;
  double drain_started_at = 0.0;
  // Items this loop dispatched to the worker pool whose completion it has
  // not yet consumed (or discarded against a closed conn). Loop-thread
  // only: incremented at dispatch, decremented at consumption.
  std::size_t outstanding = 0;

  // Completion queue: workers → this loop.
  std::mutex cmu;
  std::vector<CompletionItem> completions;

  // Per-loop instruments (oak_wire_loop_<i>_*); null when metrics are off.
  obs::Counter* obs_accepts = nullptr;
  obs::Gauge* obs_conns = nullptr;
  obs::Histogram* obs_lag = nullptr;
};

// Per-connection state, owned by one loop's thread. Responses queue in
// `outq` (pipelined peers get theirs in request order) and flush together
// through one sendmsg/writev call.
struct Server::Conn {
  Loop* loop = nullptr;
  std::uint64_t id = 0;
  int fd = -1;
  std::string client_ip;
  RequestParser parser;
  std::deque<std::string> outq;  // serialized responses awaiting write
  std::size_t out_off = 0;       // write offset into outq.front()
  std::size_t out_bytes = 0;     // unwritten bytes across outq
  bool want_read = true;         // current epoll interest
  bool want_write = false;
  bool dispatched = false;    // a request is with the worker pool
  bool close_after_write = false;
  bool read_eof = false;      // peer half-closed (shutdown(SHUT_WR))
  int timer_kind = kTimerNone;
  double req_start = -1.0;  // wall start of the in-progress request

  explicit Conn(const ParserLimits& limits) : parser(limits) {}
};

Server::Server(core::ShardedOakServer& oak, WireConfig cfg)
    : oak_(oak),
      cfg_(std::move(cfg)),
      report_path_(oak.config().report_path),
      epoch_(std::chrono::steady_clock::now()) {
  if (cfg_.worker_threads == 0) cfg_.worker_threads = 1;
  if (cfg_.metrics) {
    obs_.accepted = &metrics_.counter("oak_wire_conns_accepted_total");
    obs_.closed = &metrics_.counter("oak_wire_conns_closed_total");
    obs_.requests = &metrics_.counter("oak_wire_requests_total");
    obs_.resp_2xx = &metrics_.counter("oak_wire_responses_2xx_total");
    obs_.resp_4xx = &metrics_.counter("oak_wire_responses_4xx_total");
    obs_.resp_5xx = &metrics_.counter("oak_wire_responses_5xx_total");
    obs_.parse_errors = &metrics_.counter("oak_wire_parse_errors_total");
    obs_.shed_conns = &metrics_.counter("oak_wire_shed_conn_cap_total");
    obs_.shed_dispatch = &metrics_.counter("oak_wire_shed_dispatch_total");
    obs_.timeout_header = &metrics_.counter("oak_wire_timeout_header_total");
    obs_.timeout_idle = &metrics_.counter("oak_wire_timeout_idle_total");
    obs_.timeout_write = &metrics_.counter("oak_wire_timeout_write_total");
    obs_.bytes_in = &metrics_.counter("oak_wire_bytes_in_total");
    obs_.bytes_out = &metrics_.counter("oak_wire_bytes_out_total");
    obs_.affine_ingests = &metrics_.counter("oak_wire_affine_ingests_total");
    obs_.writev_calls = &metrics_.counter("oak_wire_writev_calls_total");
    obs_.writev_bufs = &metrics_.counter("oak_wire_writev_buffers_total");
    obs_.conns_active = &metrics_.gauge("oak_wire_conns_active");
    obs_.dispatch_depth = &metrics_.gauge("oak_wire_dispatch_depth");
    obs_.draining = &metrics_.gauge("oak_wire_draining");
    obs_.loops = &metrics_.gauge("oak_wire_loops");
    obs_.request_seconds = &metrics_.histogram("oak_wire_request_seconds",
                                               obs::HistogramSpec::latency());
  }
}

Server::~Server() {
  if (started_.load(std::memory_order_acquire)) {
    request_drain();
    join();
  }
  if (g_drain_flag.load(std::memory_order_relaxed) == &drain_flag_) {
    g_drain_flag.store(nullptr, std::memory_order_relaxed);
    g_drain_fd.store(-1, std::memory_order_relaxed);
  }
  for (auto& lp : loops_) {
    if (lp->listen_fd >= 0) ::close(lp->listen_fd);
    if (lp->event_fd >= 0) ::close(lp->event_fd);
    if (lp->epoll_fd >= 0) ::close(lp->epoll_fd);
  }
  if (drain_event_fd_ >= 0) ::close(drain_event_fd_);
}

double Server::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

obs::MetricsSnapshot Server::metrics_snapshot() const {
  return metrics_.snapshot();
}

int Server::make_listener(bool reuse_port) const {
  const bool v6 = cfg_.bind_addr.find(':') != std::string::npos;
  const int fd = ::socket(v6 ? AF_INET6 : AF_INET,
                          SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (reuse_port) {
    // The kernel spreads incoming connections across every listener bound
    // with SO_REUSEPORT — the multi-loop accept path. All listeners
    // (including the first) must set it before bind.
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) < 0) {
      ::close(fd);
      throw std::runtime_error("setsockopt(SO_REUSEPORT) failed");
    }
  }

  int rc = -1;
  if (v6) {
    sockaddr_in6 addr{};
    addr.sin6_family = AF_INET6;
    addr.sin6_port = htons(bound_port_ != 0 ? bound_port_ : cfg_.port);
    if (::inet_pton(AF_INET6, cfg_.bind_addr.c_str(), &addr.sin6_addr) != 1) {
      ::close(fd);
      throw std::runtime_error("bad bind_addr: " + cfg_.bind_addr);
    }
    rc = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(bound_port_ != 0 ? bound_port_ : cfg_.port);
    if (::inet_pton(AF_INET, cfg_.bind_addr.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      throw std::runtime_error("bad bind_addr: " + cfg_.bind_addr);
    }
    rc = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  }
  if (rc < 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("bind() failed: ") +
                             std::strerror(err));
  }
  if (::listen(fd, 512) < 0) {
    ::close(fd);
    throw std::runtime_error("listen() failed");
  }
  return fd;
}

void Server::start() {
  if (started_.load(std::memory_order_acquire)) {
    throw std::runtime_error("wire::Server already started");
  }

  std::size_t nloops = cfg_.loops;
  if (nloops == 0) {
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    nloops = std::min<std::size_t>(
        hw, std::max<std::size_t>(1, oak_.shard_count()));
  }

  drain_event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (drain_event_fd_ < 0) throw std::runtime_error("eventfd setup failed");

  loops_.reserve(nloops);
  for (std::size_t i = 0; i < nloops; ++i) {
    auto lp = std::make_unique<Loop>();
    lp->index = i;
    lp->listen_fd = make_listener(/*reuse_port=*/nloops > 1);
    if (i == 0) {
      // Resolve port 0 off the first listener; the rest bind the same port.
      sockaddr_storage bound{};
      socklen_t blen = sizeof bound;
      ::getsockname(lp->listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &blen);
      bound_port_ = ntohs(bound.ss_family == AF_INET6
                              ? reinterpret_cast<sockaddr_in6*>(&bound)
                                    ->sin6_port
                              : reinterpret_cast<sockaddr_in*>(&bound)
                                    ->sin_port);
    }

    lp->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    lp->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (lp->epoll_fd < 0 || lp->event_fd < 0) {
      throw std::runtime_error("epoll/eventfd setup failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerTag;
    ::epoll_ctl(lp->epoll_fd, EPOLL_CTL_ADD, lp->listen_fd, &ev);
    ev.data.u64 = kEventFdTag;
    ::epoll_ctl(lp->epoll_fd, EPOLL_CTL_ADD, lp->event_fd, &ev);
    // The shared drain eventfd is registered oneshot and never read: one
    // write wakes every loop exactly once (reading it would race the other
    // loops out of their wakeup), and oneshot keeps the still-readable fd
    // from busy-looping the epoll afterwards.
    ev.events = EPOLLIN | EPOLLONESHOT;
    ev.data.u64 = kDrainFdTag;
    ::epoll_ctl(lp->epoll_fd, EPOLL_CTL_ADD, drain_event_fd_, &ev);

    if (cfg_.metrics) {
      const std::string prefix = "oak_wire_loop_" + std::to_string(i);
      lp->obs_accepts = &metrics_.counter(prefix + "_accepts_total");
      lp->obs_conns = &metrics_.gauge(prefix + "_conns_active");
      lp->obs_lag = &metrics_.histogram(prefix + "_lag_seconds",
                                        obs::HistogramSpec::latency());
    }
    loops_.push_back(std::move(lp));
  }
  if (obs_.loops) obs_.loops->set(static_cast<double>(nloops));

  workers_.reserve(cfg_.worker_threads);
  for (std::size_t i = 0; i < cfg_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
  for (auto& lp : loops_) {
    Loop* raw = lp.get();
    raw->thread = std::thread([this, raw] { run(*raw); });
  }
  // The coordinator is what makes "after the last connection closes and
  // the workers are joined" a single event even with N loops finishing at
  // different times: it joins every loop, then stops the shared pool, then
  // fires on_drained exactly once.
  coordinator_ = std::thread([this] {
    for (auto& lp : loops_) {
      if (lp->thread.joinable()) lp->thread.join();
    }
    {
      std::lock_guard<std::mutex> lk(dmu_);
      workers_stop_ = true;
    }
    dcv_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
    for (auto& lp : loops_) {
      std::lock_guard<std::mutex> lk(lp->cmu);
      lp->completions.clear();
    }
    if (on_drained_) on_drained_();
  });
  started_.store(true, std::memory_order_release);
}

void Server::request_drain() {
  drain_flag_.store(true, std::memory_order_release);
  if (drain_event_fd_ >= 0) {
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t r = ::write(drain_event_fd_, &one, sizeof one);
  }
}

void Server::join() {
  if (coordinator_.joinable()) coordinator_.join();
}

void Server::stop() {
  request_drain();
  join();
}

void Server::install_signal_drain(int signo) {
  g_drain_flag.store(&drain_flag_, std::memory_order_relaxed);
  g_drain_fd.store(drain_event_fd_, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = oak_wire_drain_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(signo, &sa, nullptr);
}

// ---------------------------------------------------------------------------
// Event loops.

void Server::run(Loop& lp) {
  epoll_event events[64];
  for (;;) {
    const int n = ::epoll_wait(lp.epoll_fd, events, 64, 25);
    if (n < 0 && errno != EINTR) break;
    const double t0 = now();
    for (int i = 0; i < std::max(n, 0); ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        handle_accept(lp);
      } else if (tag == kEventFdTag) {
        std::uint64_t v;
        while (::read(lp.event_fd, &v, sizeof v) > 0) {
        }
        drain_completions(lp);
      } else if (tag == kDrainFdTag) {
        // Wakeup only; the flag below is the signal. Never read the fd.
      } else {
        handle_conn_event(lp, tag, events[i].events);
      }
    }

    const double t = now();
    lp.wheel.advance(t, [this, &lp](std::uint64_t id) { on_deadline(lp, id); });
    // Loop lag = how long this wakeup's event processing stalled the loop;
    // the per-loop histogram is the saturation signal the overload sweep
    // watches (a loop pegged at milliseconds of lag is the old single-loop
    // bottleneck reappearing).
    if (lp.obs_lag) lp.obs_lag->observe(t - t0);

    if (drain_flag_.load(std::memory_order_acquire) && !lp.drain_started) {
      start_drain_loopside(lp);
    }
    if (lp.drain_started) {
      drain_completions(lp);
      if (drain_finished(lp)) break;
      if (cfg_.drain_deadline_s > 0 &&
          t - lp.drain_started_at >= cfg_.drain_deadline_s) {
        // Deadline: force-close stragglers and drop this loop's unstarted
        // work. The loop keeps spinning only for in-flight worker items
        // (their completions are then discarded against the closed conns).
        std::vector<std::uint64_t> ids;
        ids.reserve(lp.conns.size());
        for (const auto& [id, c] : lp.conns) ids.push_back(id);
        for (std::uint64_t id : ids) {
          auto it = lp.conns.find(id);
          if (it != lp.conns.end()) close_conn(*it->second);
        }
        {
          std::lock_guard<std::mutex> lk(dmu_);
          for (auto it = dispatch_.begin(); it != dispatch_.end();) {
            if (it->loop_index == lp.index) {
              it = dispatch_.erase(it);
              --lp.outstanding;
            } else {
              ++it;
            }
          }
          if (obs_.dispatch_depth) {
            obs_.dispatch_depth->set(double(dispatch_.size()));
          }
        }
      }
    }
  }
}

bool Server::drain_finished(const Loop& lp) const {
  // outstanding covers both queued dispatch items and unconsumed
  // completions: it only reaches zero once every item this loop admitted
  // has come back (or been dropped at the force-deadline).
  return lp.conns.empty() && lp.outstanding == 0;
}

void Server::start_drain_loopside(Loop& lp) {
  lp.drain_started = true;
  lp.drain_started_at = now();
  if (obs_.draining) obs_.draining->set(1);

  if (lp.listen_fd >= 0) {
    ::epoll_ctl(lp.epoll_fd, EPOLL_CTL_DEL, lp.listen_fd, nullptr);
    ::close(lp.listen_fd);
    lp.listen_fd = -1;
  }

  // In-flight work (a dispatched request or a half-written response)
  // finishes and then closes; everything else — idle keep-alive conns and
  // half-received heads that were never admitted — closes now.
  std::vector<std::uint64_t> to_close;
  for (auto& [id, c] : lp.conns) {
    if (c->dispatched || c->out_bytes > 0) {
      c->close_after_write = true;
    } else {
      to_close.push_back(id);
    }
  }
  for (std::uint64_t id : to_close) {
    auto it = lp.conns.find(id);
    if (it != lp.conns.end()) close_conn(*it->second);
  }
}

void Server::handle_accept(Loop& lp) {
  for (;;) {
    sockaddr_storage peer{};
    socklen_t plen = sizeof peer;
    const int fd =
        ::accept4(lp.listen_fd, reinterpret_cast<sockaddr*>(&peer), &plen,
                  SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept failure: wait for epoll
    }
    if (lp.drain_started) {
      ::close(fd);
      continue;
    }
    if (total_conns_.load(std::memory_order_relaxed) >=
        cfg_.max_connections) {
      // Accept-time shed: refuse in O(1), no parser state allocated. The
      // write is best-effort — a full socket buffer just means the peer
      // sees a bare close.
      bump(obs_.shed_conns);
      const std::string resp =
          "HTTP/1.1 503 Service Unavailable\r\nRetry-After: " +
          std::to_string(cfg_.retry_after_s) +
          "\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
      [[maybe_unused]] ssize_t r =
          ::send(fd, resp.data(), resp.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }

    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    const std::uint64_t id = lp.next_conn_id++;
    auto conn = std::make_unique<Conn>(cfg_.limits);
    conn->loop = &lp;
    conn->id = id;
    conn->fd = fd;
    // Format the peer address by family: an IPv6 (or dual-stack) listener
    // hands back sockaddr_in6, and pretending it was IPv4 left client_ip
    // silently empty.
    char ip[INET6_ADDRSTRLEN] = {0};
    if (peer.ss_family == AF_INET) {
      ::inet_ntop(AF_INET,
                  &reinterpret_cast<sockaddr_in*>(&peer)->sin_addr, ip,
                  sizeof ip);
    } else if (peer.ss_family == AF_INET6) {
      ::inet_ntop(AF_INET6,
                  &reinterpret_cast<sockaddr_in6*>(&peer)->sin6_addr, ip,
                  sizeof ip);
    }
    conn->client_ip = ip;

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(lp.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    Conn& c = *conn;
    lp.conns.emplace(id, std::move(conn));
    const std::size_t total =
        total_conns_.fetch_add(1, std::memory_order_relaxed) + 1;
    bump(obs_.accepted);
    bump(lp.obs_accepts);
    if (obs_.conns_active) obs_.conns_active->set(double(total));
    if (lp.obs_conns) lp.obs_conns->set(double(lp.conns.size()));
    if (cfg_.header_deadline_s > 0) {
      arm_timer(c, kTimerHeader, cfg_.header_deadline_s);
    }
  }
}

void Server::handle_conn_event(Loop& lp, std::uint64_t id,
                               std::uint32_t events) {
  auto it = lp.conns.find(id);
  if (it == lp.conns.end()) return;
  Conn& c = *it->second;
  if (events & (EPOLLERR | EPOLLHUP)) {
    close_conn(c);
    return;
  }
  if (events & EPOLLIN) {
    read_conn(c);
    if (!lp.conns.count(id)) return;  // read_conn may close
  }
  if (events & EPOLLOUT) pump(c);
}

void Server::read_conn(Conn& c) {
  char buf[16 * 1024];
  std::size_t total = 0;
  // Bound per-event work so one firehose conn can't starve the loop;
  // level-triggered epoll re-delivers whatever stays in the kernel buffer.
  while (total < 64 * 1024) {
    const ssize_t n = ::read(c.fd, buf, sizeof buf);
    if (n > 0) {
      bump(obs_.bytes_in, static_cast<std::uint64_t>(n));
      if (c.timer_kind == kTimerIdle && cfg_.header_deadline_s > 0) {
        // First bytes of a new keep-alive request: idle → header budget.
        arm_timer(c, kTimerHeader, cfg_.header_deadline_s);
      }
      c.parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      total += static_cast<std::size_t>(n);
      // Stop at a complete request (or terminal error): the response goes
      // out before more pipelined input is pulled from the kernel.
      if (c.parser.state() != RequestParser::State::kNeedMore) break;
      continue;
    }
    if (n == 0) {
      c.read_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(c);
    return;
  }
  pump(c);
}

void Server::pump(Conn& c) {
  for (;;) {
    // Phase 1: answer parsed requests while nothing blocks us. Responses
    // accumulate in c.outq (inline report 204s, shed 503s, pipelined
    // residue) and flush together below — this is what turns a pipelined
    // burst into one writev instead of one send() per response.
    while (!c.close_after_write && !c.dispatched &&
           c.out_bytes < kSoftOutCap) {
      if (c.parser.state() == RequestParser::State::kComplete) {
        begin_request(c);
        continue;
      }
      if (c.parser.state() == RequestParser::State::kError) {
        // Terminal by contract: answer the 4xx the parser chose, close.
        bump(obs_.parse_errors);
        const ParseError& e = c.parser.error();
        respond_inline(c, e.status, e.reason, /*keep_alive=*/false);
        // respond_inline set close_after_write; the while exits.
      }
      break;
    }

    // Phase 2: one gathered write over everything queued.
    if (!flush_out(c)) {
      close_conn(c);
      return;
    }
    if (c.out_bytes > 0) {  // EAGAIN mid-flush
      if (c.timer_kind != kTimerWrite && cfg_.write_deadline_s > 0) {
        arm_timer(c, kTimerWrite, cfg_.write_deadline_s);
      }
      update_epoll(c, false, true);
      return;
    }
    if (c.timer_kind == kTimerWrite) {
      c.loop->wheel.cancel(c.id);
      c.timer_kind = kTimerNone;
    }

    // Phase 3: closure / interest bookkeeping.
    if (c.close_after_write) {
      close_conn(c);
      return;
    }
    if (c.dispatched) {
      update_epoll(c, false, false);
      return;
    }
    if (c.parser.state() == RequestParser::State::kComplete) {
      continue;  // the soft output cap paused phase 1; output is flushed now
    }
    // kNeedMore (kError always exits through close_after_write above).
    if (c.read_eof) {
      // Peer finished sending and everything owed has been written — an
      // incomplete trailing request gets a clean close, not a 4xx.
      close_conn(c);
      return;
    }
    const bool mid_head = c.parser.buffered() > 0;
    const int kind = mid_head ? kTimerHeader : kTimerIdle;
    const double deadline =
        mid_head ? cfg_.header_deadline_s : cfg_.idle_deadline_s;
    if (c.timer_kind != kind) {
      if (deadline > 0) {
        arm_timer(c, kind, deadline);
      } else if (c.timer_kind != kTimerNone) {
        c.loop->wheel.cancel(c.id);
        c.timer_kind = kTimerNone;
      }
    }
    update_epoll(c, true, false);
    return;
  }
}

bool Server::try_affine_ingest(Conn& c, WireRequest& req) {
  if (!cfg_.affine_ingest) return false;
  if (!req.method || *req.method != http::Method::kPost ||
      req.path != report_path_) {
    return false;
  }
  // Shard-affine dispatch: hash the request's oak_uid (cookie, or minted
  // by the wrapper when absent) to its shard and run the request on this
  // loop thread under that shard's lock — one hand-off, instead of the
  // loop → worker → completion cross-core round trip.
  std::string uid;
  if (auto cookie = req.headers.get("Cookie")) {
    auto jar = http::parse_cookie_header(*cookie);
    auto it = jar.find(http::kOakUserCookie);
    if (it != jar.end()) uid = it->second;
  }
  const bool ka = req.keep_alive && !c.loop->drain_started;
  http::Response resp;
  try {
    resp = oak_.handle_for_user(req.to_http(c.client_ip), c.req_start,
                                std::move(uid));
  } catch (const std::exception& e) {
    resp = http::Response::text(std::string("internal error: ") + e.what(),
                                500);
  } catch (...) {
    resp = http::Response::text("internal error", 500);
  }
  bump(obs_.affine_ingests);
  deliver(c, serialize_response(resp, ka, /*head_request=*/false), ka,
          resp.status);
  return true;
}

void Server::begin_request(Conn& c) {
  WireRequest req = c.parser.take_request();
  c.parser.reset();  // re-parses residue so pipelined peers never stall
  if (c.timer_kind != kTimerNone) {
    c.loop->wheel.cancel(c.id);
    c.timer_kind = kTimerNone;
  }
  bump(obs_.requests);
  c.req_start = now();
  const bool ka = req.keep_alive && !c.loop->drain_started;

  if (!req.method) {
    // Well-formed but unrouted method token.
    respond_inline(c, 405, "method not allowed", ka,
                   {{"Allow", http::kAllowedMethods}});
    return;
  }

  if (try_affine_ingest(c, req)) return;

  bool shed = false;
  {
    std::lock_guard<std::mutex> lk(dmu_);
    if (dispatch_.size() >= cfg_.dispatch_depth) {
      shed = true;
    } else {
      dispatch_.push_back(DispatchItem{c.loop->index, c.id, std::move(req),
                                       c.client_ip, c.req_start});
      if (obs_.dispatch_depth) {
        obs_.dispatch_depth->set(double(dispatch_.size()));
      }
    }
  }
  if (shed) {
    bump(obs_.shed_dispatch);
    respond_inline(c, 503, "server busy", ka,
                   {{"Retry-After", std::to_string(cfg_.retry_after_s)}});
    return;
  }
  ++c.loop->outstanding;
  dcv_.notify_one();
  c.dispatched = true;
}

void Server::respond_inline(
    Conn& c, int status, const std::string& body, bool keep_alive,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  http::Response resp = http::Response::text(body, status);
  for (const auto& [k, v] : extra_headers) resp.headers.set(k, v);
  deliver(c, serialize_response(resp, keep_alive, /*head_request=*/false),
          keep_alive, status);
}

void Server::deliver(Conn& c, std::string bytes, bool keep_alive,
                     int status) {
  if (status >= 200 && status < 300) {
    bump(obs_.resp_2xx);
  } else if (status >= 400 && status < 500) {
    bump(obs_.resp_4xx);
  } else if (status >= 500) {
    bump(obs_.resp_5xx);
  }
  if (!keep_alive) c.close_after_write = true;
  c.out_bytes += bytes.size();
  c.outq.push_back(std::move(bytes));
  if (c.req_start >= 0) {
    // Admission → response serialized. The write path beyond this point is
    // the peer's receive window, not server work.
    if (obs_.request_seconds) {
      obs_.request_seconds->observe(now() - c.req_start);
    }
    c.req_start = -1.0;
  }
}

bool Server::flush_out(Conn& c) {
  while (c.out_bytes > 0) {
    iovec iov[kMaxIov];
    std::size_t niov = 0;
    std::size_t off = c.out_off;
    for (const std::string& b : c.outq) {
      if (niov == kMaxIov) break;
      iov[niov].iov_base = const_cast<char*>(b.data()) + off;
      iov[niov].iov_len = b.size() - off;
      ++niov;
      off = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    // sendmsg == writev with MSG_NOSIGNAL (a dead peer must surface as
    // EPIPE here, not SIGPIPE).
    const ssize_t w = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;  // EPIPE / ECONNRESET: peer is gone
    }
    bump(obs_.bytes_out, static_cast<std::uint64_t>(w));
    bump(obs_.writev_calls);
    bump(obs_.writev_bufs, niov);
    std::size_t left = static_cast<std::size_t>(w);
    while (left > 0) {
      std::string& front = c.outq.front();
      const std::size_t avail = front.size() - c.out_off;
      if (left >= avail) {
        left -= avail;
        c.out_bytes -= avail;
        c.out_off = 0;
        c.outq.pop_front();
      } else {
        c.out_off += left;
        c.out_bytes -= left;
        left = 0;
      }
    }
  }
  return true;
}

void Server::on_deadline(Loop& lp, std::uint64_t id) {
  auto it = lp.conns.find(id);
  if (it == lp.conns.end()) return;
  Conn& c = *it->second;
  const int kind = c.timer_kind;
  c.timer_kind = kTimerNone;  // the wheel already dropped its state
  switch (kind) {
    case kTimerHeader:
      bump(obs_.timeout_header);
      respond_inline(c, 408, "request header timeout", /*keep_alive=*/false);
      pump(c);
      break;
    case kTimerIdle:
      bump(obs_.timeout_idle);
      close_conn(c);
      break;
    case kTimerWrite:
      bump(obs_.timeout_write);
      close_conn(c);
      break;
    default:
      break;
  }
}

void Server::close_conn(Conn& c) {
  Loop& lp = *c.loop;
  const std::uint64_t id = c.id;
  lp.wheel.cancel(id);
  ::epoll_ctl(lp.epoll_fd, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  lp.conns.erase(id);  // destroys c — must be the last touch
  const std::size_t total =
      total_conns_.fetch_sub(1, std::memory_order_relaxed) - 1;
  bump(obs_.closed);
  if (obs_.conns_active) obs_.conns_active->set(double(total));
  if (lp.obs_conns) lp.obs_conns->set(double(lp.conns.size()));
}

void Server::arm_timer(Conn& c, int kind, double delay_s) {
  c.timer_kind = kind;
  c.loop->wheel.schedule(c.id, now() + delay_s);
}

void Server::update_epoll(Conn& c, bool want_read, bool want_write) {
  if (c.want_read == want_read && c.want_write == want_write) return;
  c.want_read = want_read;
  c.want_write = want_write;
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = c.id;
  ::epoll_ctl(c.loop->epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
}

void Server::drain_completions(Loop& lp) {
  std::vector<CompletionItem> items;
  {
    std::lock_guard<std::mutex> lk(lp.cmu);
    items.swap(lp.completions);
  }
  for (auto& ci : items) {
    --lp.outstanding;  // consumed, whether or not the conn survived
    auto it = lp.conns.find(ci.conn_id);
    if (it == lp.conns.end()) continue;  // conn closed while the worker ran
    Conn& c = *it->second;
    c.dispatched = false;
    deliver(c, std::move(ci.bytes), ci.keep_alive, ci.status);
    pump(c);
  }
}

// ---------------------------------------------------------------------------
// Worker pool (pages/admin; reports too when affine_ingest is off).

void Server::worker_main() {
  for (;;) {
    DispatchItem item;
    {
      std::unique_lock<std::mutex> lk(dmu_);
      dcv_.wait(lk, [this] { return workers_stop_ || !dispatch_.empty(); });
      if (dispatch_.empty()) {
        if (workers_stop_) return;
        continue;
      }
      item = std::move(dispatch_.front());
      dispatch_.pop_front();
      if (obs_.dispatch_depth) {
        obs_.dispatch_depth->set(double(dispatch_.size()));
      }
    }

    http::Response resp;
    try {
      resp = route(item);
    } catch (const std::exception& e) {
      resp = http::Response::text(std::string("internal error: ") + e.what(),
                                  500);
    } catch (...) {
      resp = http::Response::text("internal error", 500);
    }
    CompletionItem ci = make_completion(item.conn_id, item.req, resp);
    Loop& lp = *loops_[item.loop_index];
    {
      std::lock_guard<std::mutex> lk(lp.cmu);
      lp.completions.push_back(std::move(ci));
    }
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t r = ::write(lp.event_fd, &one, sizeof one);
  }
}

http::Response Server::route(const DispatchItem& item) {
  using http::Method;
  const WireRequest& w = item.req;
  const Method m = *w.method;  // begin_request guarantees a routed method
  const std::string& p = w.path;

  auto method_not_allowed = [](const char* allow) {
    http::Response r = http::Response::text("method not allowed", 405);
    r.headers.set("Allow", allow);
    return r;
  };
  const bool is_read = (m == Method::kGet || m == Method::kHead);

  if (p == "/metrics" || p == "/metrics.json") {
    if (!is_read) return method_not_allowed("GET, HEAD");
    obs::MetricsSnapshot snap = oak_.metrics_snapshot();
    snap.merge(metrics_snapshot());
    return p == "/metrics"
               ? http::Response::text(snap.to_prometheus())
               : http::Response::json(snap.to_json().dump());
  }
  if (p == "/admin/health") {
    if (!is_read) return method_not_allowed("GET, HEAD");
    return http::Response::json(std::string("{\"status\":\"") +
                                (draining() ? "draining" : "ok") + "\"}");
  }
  if (p == "/admin/rules") {
    if (is_read) {
      return http::Response::text(core::format_rules(oak_.rules()));
    }
    if (m == Method::kPost || m == Method::kPut) {
      // Both calls check the whole file before any shard changes, so a
      // rejected file is a 400 that leaves rules, state and journal alone.
      std::vector<int> ids;
      try {
        std::vector<core::Rule> rules = core::parse_rules(w.body);
        ids = m == Method::kPut
                  ? oak_.replace_rules(std::move(rules), item.admitted_at)
                  : oak_.add_rules(std::move(rules));
      } catch (const core::RuleParseError& e) {
        return http::Response::text(e.what(), 400);
      } catch (const std::invalid_argument& e) {
        return http::Response::text(e.what(), 400);
      }
      std::string list;
      for (int id : ids) {
        if (!list.empty()) list += ',';
        list += std::to_string(id);
      }
      return http::Response::json(
          std::string("{\"") + (m == Method::kPut ? "replaced" : "added") +
              "\":[" + list + "]}",
          201);
    }
    return method_not_allowed("GET, HEAD, POST, PUT");
  }
  if (p.rfind("/admin/rules/", 0) == 0) {
    if (m != Method::kDelete) return method_not_allowed("DELETE");
    const std::string tail = p.substr(std::strlen("/admin/rules/"));
    int id = 0;
    if (tail.empty() ||
        tail.find_first_not_of("0123456789") != std::string::npos) {
      return http::Response::text("bad rule id", 400);
    }
    try {
      id = std::stoi(tail);
    } catch (const std::exception&) {
      return http::Response::text("bad rule id", 400);
    }
    if (!oak_.remove_rule(id, item.admitted_at)) {
      return http::Response::text("no such rule", 404);
    }
    return http::Response::json("{\"removed\":" + std::to_string(id) + "}");
  }
  if (p == "/admin/compact") {
    if (m != Method::kPost) return method_not_allowed("POST");
    try {
      oak_.compact();
    } catch (const std::exception& e) {
      // Counted in oak_compact_failures_total; the previous manifest and
      // snapshot stay authoritative, so retrying later is safe.
      http::Response resp = http::Response::text(
          std::string("compaction failed: ") + e.what(), 503);
      resp.headers.set("Retry-After", std::to_string(cfg_.retry_after_s));
      return resp;
    }
    return http::Response::json("{\"compacted\":true}");
  }
  if (p.rfind("/admin/", 0) == 0) {
    return http::Response::text("no such admin endpoint", 404);
  }

  if (m == Method::kPost) {
    if (p != report_path_) return method_not_allowed("GET, HEAD");
    return oak_.handle(w.to_http(item.client_ip), item.admitted_at);
  }
  if (is_read) {
    return oak_.handle(w.to_http(item.client_ip), item.admitted_at);
  }
  return method_not_allowed("GET, HEAD, POST");  // PUT/DELETE off-admin
}

Server::CompletionItem Server::make_completion(
    std::uint64_t conn_id, const WireRequest& req,
    const http::Response& resp) const {
  const bool ka = req.keep_alive && !draining();
  const bool head = req.method && *req.method == http::Method::kHead;
  return CompletionItem{conn_id, serialize_response(resp, ka, head), ka,
                        resp.status};
}

std::string Server::serialize_response(const http::Response& resp,
                                       bool keep_alive, bool head_request) {
  std::string out;
  out.reserve(resp.body.size() + 256);
  out += "HTTP/1.1 ";
  out += std::to_string(resp.status);
  out += ' ';
  out += http::status_reason(resp.status);
  out += "\r\n";
  for (const auto& [name, value] : resp.headers.entries()) {
    // Framing is owned here, whatever the handler set.
    if (iequal(name, "content-length") || iequal(name, "connection") ||
        iequal(name, "transfer-encoding")) {
      continue;
    }
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "Content-Length: ";
  out += std::to_string(resp.body.size());
  out += keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                    : "\r\nConnection: close\r\n\r\n";
  if (!head_request) out += resp.body;
  return out;
}

}  // namespace oak::wire
