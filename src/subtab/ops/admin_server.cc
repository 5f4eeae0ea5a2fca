#include "subtab/ops/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "subtab/ops/prometheus.h"
#include "subtab/util/logging.h"
#include "subtab/util/string_util.h"
#include "subtab/util/trace.h"

namespace subtab::ops {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string HttpResponse(int code, const char* reason,
                         const std::string& content_type,
                         const std::string& body) {
  std::string out = StrFormat("HTTP/1.0 %d %s\r\n", code, reason);
  out += "Content-Type: " + content_type + "\r\n";
  out += StrFormat("Content-Length: %zu\r\n", body.size());
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

/// The `n` query parameter of `/traces?n=K` (0 = absent/invalid).
size_t ParseTraceCount(const std::string& query) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    const std::string pair = query.substr(pos, end - pos);
    if (pair.size() > 2 && pair.compare(0, 2, "n=") == 0) {
      return static_cast<size_t>(std::strtoull(pair.c_str() + 2, nullptr, 10));
    }
    pos = end + 1;
  }
  return 0;
}

}  // namespace

AdminServer::AdminServer(service::ServingEngine* engine, SloMonitor* monitor,
                         AdminServerOptions options)
    : engine_(engine),
      monitor_(monitor),
      options_(std::move(options)),
      started_at_seconds_(NowSeconds()) {}

AdminServer::~AdminServer() { Stop(); }

Status AdminServer::Start() {
  if (running()) return Status::Ok();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrFormat("admin: socket() failed: %s",
                                      std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("admin: bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(StrFormat("admin: bind(%s:%u) failed: %s",
                                      options_.bind_address.c_str(),
                                      (unsigned)options_.port,
                                      std::strerror(err)));
  }
  if (::listen(fd, 16) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(
        StrFormat("admin: listen() failed: %s", std::strerror(err)));
  }
  // Resolve the ephemeral port before serving so callers can read it the
  // moment Start returns.
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(
        StrFormat("admin: getsockname() failed: %s", std::strerror(err)));
  }

  listen_fd_ = fd;
  port_.store(ntohs(bound.sin_port), std::memory_order_release);
  running_.store(true, std::memory_order_release);
  serve_thread_ = std::thread([this] { Serve(); });
  SUBTAB_LOG_STREAM(Info) << "admin: serving on " << options_.bind_address
                          << ":" << port();
  return Status::Ok();
}

void AdminServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (serve_thread_.joinable()) serve_thread_.join();
    return;
  }
  if (serve_thread_.joinable()) serve_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void AdminServer::Serve() {
  // Poll-then-accept so the loop observes Stop() within one poll timeout —
  // never parked in accept() waiting for a connection that won't come.
  while (running()) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/250);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    HandleConnection(client);
    ::close(client);
  }
}

void AdminServer::HandleConnection(int client_fd) const {
  // HTTP/1.0, GET only: the request is one line plus headers we ignore —
  // read until the first CRLF (or 4 KiB, whichever comes first). The
  // timeout bounds the whole read, not each recv, so a client trickling one
  // byte at a time still costs at most one timeout of the serve thread.
  const double deadline = NowSeconds() + options_.read_timeout_seconds;
  std::string request;
  char buf[1024];
  while (request.find("\r\n") == std::string::npos &&
         request.size() < 4096) {
    const double remaining = deadline - NowSeconds();
    if (remaining <= 0.0) break;
    pollfd pfd;
    pfd.fd = client_fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(std::ceil(remaining * 1e3)));
    if (ready <= 0) break;
    const ssize_t n = ::recv(client_fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }
  const size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) return;  // Malformed / timed out.

  const std::string line = request.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                              : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return;
  const std::string method = line.substr(0, sp1);
  const std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);

  const std::string response = HandleRequest(method, target);
  size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t n = ::send(client_fd, response.data() + sent,
                             response.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
}

std::string AdminServer::HandleRequest(const std::string& method,
                                       const std::string& target) const {
  if (method != "GET") {
    return HttpResponse(405, "Method Not Allowed", "text/plain",
                        "only GET is served here\n");
  }
  const size_t qmark = target.find('?');
  const std::string path = target.substr(0, qmark);
  const std::string query =
      qmark == std::string::npos ? "" : target.substr(qmark + 1);

  if (path == "/metrics") {
    return HttpResponse(200, "OK",
                        "text/plain; version=0.0.4; charset=utf-8",
                        MetricsBody());
  }
  if (path == "/statusz") {
    return HttpResponse(200, "OK", "application/json", StatuszBody());
  }
  if (path == "/traces") {
    size_t n = ParseTraceCount(query);
    if (n == 0) n = options_.default_trace_count;
    return HttpResponse(200, "OK", "application/x-ndjson", TracesBody(n));
  }
  if (path == "/healthz") {
    const HealthState state =
        monitor_ == nullptr ? HealthState::kOk : monitor_->health();
    const char* name = HealthStateName(state);
    // Degraded already answers 503: a balancer should stop sending traffic
    // BEFORE the engine tips into unhealthy, not after.
    if (state == HealthState::kOk) {
      return HttpResponse(200, "OK", "text/plain", std::string(name) + "\n");
    }
    return HttpResponse(503, "Service Unavailable", "text/plain",
                        std::string(name) + "\n");
  }
  if (path == "/readyz") {
    return HttpResponse(200, "OK", "text/plain", "ok\n");
  }
  return HttpResponse(404, "Not Found", "text/plain",
                      "unknown path; try /metrics /statusz /traces /healthz "
                      "/readyz\n");
}

std::string AdminServer::MetricsBody() const {
  engine_->Stats();  // Refresh gauges so the scrape is point-in-time.
  return RenderPrometheus(engine_->metrics().Snapshot());
}

std::string AdminServer::StatuszBody() const {
  std::string out = "{\"engine\":";
  out += engine_->MetricsJson();
  if (monitor_ != nullptr) {
    out += ",\"slo\":";
    out += monitor_->status().ToJson();
  }
  out += StrFormat(",\"uptime_seconds\":%.3f",
                   NowSeconds() - started_at_seconds_);
  out += ",\"build\":{\"compiler\":\"" +
         std::string(
#if defined(__VERSION__)
             __VERSION__
#else
             "unknown"
#endif
             ) +
         "\",\"mode\":\"" +
#ifdef NDEBUG
         "release"
#else
         "debug"
#endif
         "\"}}";
  return out;
}

std::string AdminServer::TracesBody(size_t n) const {
  const std::shared_ptr<TraceSink>& sink = engine_->trace_sink();
  if (sink == nullptr) return "";
  return TracesToJsonl(sink->Peek(n));
}

}  // namespace subtab::ops
