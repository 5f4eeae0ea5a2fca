#ifndef SUBTAB_OPS_ADMIN_SERVER_H_
#define SUBTAB_OPS_ADMIN_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "subtab/ops/slo_monitor.h"
#include "subtab/service/engine.h"
#include "subtab/util/status.h"

/// \file admin_server.h
/// The engine's live ops plane: a dependency-free in-process HTTP admin
/// server — blocking POSIX sockets on one dedicated thread, plain HTTP/1.0
/// (one request per connection, Connection: close) — serving read-only
/// observability endpoints:
///
///   GET /metrics      Prometheus text exposition of the whole
///                     MetricsRegistry (ops/prometheus.h): engine counters,
///                     gauges, stage histograms, and the monitor's slo.*
///                     gauges, every instrument exactly once.
///   GET /statusz      The engine's MetricsJson (every counter, gauge and
///                     histogram, effective admission bound included) plus
///                     SLO status, build info, and uptime.
///   GET /traces?n=K   The K most recent retained traces plus pinned
///                     slow-query exemplars, as JSONL (TraceSink::Peek —
///                     non-destructive; scraping never races an exporter).
///   GET /healthz      The SLO monitor's health state: 200 "ok",
///                     503 "degraded"/"unhealthy" (200 "ok" when no monitor
///                     is attached). Load balancers key eviction off this.
///   GET /readyz       200 once the listener is up (readiness is liveness
///                     for an in-process server — if this answers, the
///                     engine behind it is constructed and serving).
///
/// Deliberately NOT a general web server: no keep-alive, no TLS, no POST —
/// bind it to loopback (the default) and let a sidecar scrape it. A
/// half-open or slow client can stall at most one scrape, never the serving
/// pipeline; request reads time out and the accept loop polls its listen
/// socket so Stop() completes promptly.

namespace subtab::ops {

struct AdminServerOptions {
  /// TCP port; 0 = ephemeral (read the outcome from port() after Start).
  uint16_t port = 0;
  /// Bind address. Loopback by default — the ops plane is not a public API.
  std::string bind_address = "127.0.0.1";
  /// Bound on reading one request (the whole request line, not each recv).
  double read_timeout_seconds = 2.0;
  /// Default /traces count when no ?n= is given.
  size_t default_trace_count = 64;
};

/// One admin server per engine. Start() binds + listens + spawns the serve
/// thread; Stop() (or the destructor) joins it. `monitor` may be null —
/// /healthz then always reports ok and /statusz omits the slo section.
class AdminServer {
 public:
  AdminServer(service::ServingEngine* engine, SloMonitor* monitor = nullptr,
              AdminServerOptions options = {});
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Binds, listens, and starts serving. Fails (socket/bind/listen errno in
  /// the message) without leaking the fd; idempotent once started.
  Status Start();
  /// Stops accepting, closes the listener, and joins the serve thread.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (the resolved one when options.port was 0); 0 before
  /// Start.
  uint16_t port() const { return port_.load(std::memory_order_acquire); }

  /// Request dispatch, exposed for tests that want to exercise routing
  /// without a socket: returns the full HTTP response (status line, headers,
  /// body) for `GET <target>`.
  std::string HandleRequest(const std::string& method,
                            const std::string& target) const;

 private:
  void Serve();
  void HandleConnection(int client_fd) const;

  std::string MetricsBody() const;
  std::string StatuszBody() const;
  std::string TracesBody(size_t n) const;

  service::ServingEngine* const engine_;
  SloMonitor* const monitor_;
  const AdminServerOptions options_;
  const double started_at_seconds_;

  std::atomic<bool> running_{false};
  std::atomic<uint16_t> port_{0};
  int listen_fd_ = -1;
  std::thread serve_thread_;
};

}  // namespace subtab::ops

#endif  // SUBTAB_OPS_ADMIN_SERVER_H_
