#ifndef CLAIMS_OBS_MONITOR_SERVER_H_
#define CLAIMS_OBS_MONITOR_SERVER_H_

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/status.h"
#include "net/socket_util.h"

namespace claims {

class MetricCounter;
class MetricHistogram;

/// One parsed HTTP request as a handler sees it. `path` excludes the query
/// string; `query` is the raw text after '?' (empty when absent).
struct HttpRequest {
  std::string method;  ///< upper-case: GET, POST, ...
  std::string path;    ///< e.g. "/queries"
  std::string query;   ///< e.g. "limit=10"
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;

  static HttpResponse Json(std::string body) {
    return HttpResponse{200, "application/json", std::move(body)};
  }
  static HttpResponse NotFound(std::string what) {
    return HttpResponse{404, "text/plain; charset=utf-8", std::move(what)};
  }
};

/// Configuration of the live introspection endpoint. Everything is OFF by
/// default: a default-constructed server starts no thread, opens no socket,
/// and costs nothing — production paths construct it unconditionally and
/// only pay when explicitly enabled (options or CLAIMS_MONITOR_PORT).
struct MonitorOptions {
  bool enabled = false;
  /// Loopback by default: the monitor exposes internals and has no auth.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (tests) — read MonitorServer::port.
  int port = 0;
  /// Requests larger than this are rejected with 413.
  size_t max_request_bytes = 1u << 20;

  /// Overlays environment configuration: CLAIMS_MONITOR_PORT=<port> enables
  /// the monitor on that port (0 = ephemeral, logged at startup).
  static MonitorOptions FromEnv(MonitorOptions base);
  static MonitorOptions FromEnv() { return FromEnv(MonitorOptions()); }
};

/// A dependency-free embedded HTTP/1.1 monitoring server: one acceptor
/// thread, handlers run blocking on that thread (scrapes are rare and cheap
/// relative to query work; no thread pool to manage or leak). Ships with
///
///   GET  /                      route index
///   GET  /healthz               liveness probe ("ok")
///   GET  /metrics               MetricsRegistry in Prometheus exposition
///   GET  /timeseries            metric history rings (MetricSampler::Default)
///   GET  /dash                  self-contained live dashboard polling the above
///   POST /flight-recorder/dump  EventRecorder contents as Chrome JSON
///
/// and subsystems register their own routes (AddHandler) — the workload
/// manager's /queries and /scheduler live in wlm/introspection.h, keeping
/// this layer free of upward dependencies.
class MonitorServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit MonitorServer(MonitorOptions options = MonitorOptions());
  ~MonitorServer();

  CLAIMS_DISALLOW_COPY_AND_ASSIGN(MonitorServer);

  /// Binds and launches the acceptor thread. A disabled server returns OK
  /// and does nothing (zero threads). Not restartable after Stop.
  Status Start();

  /// Stops accepting, closes the socket, joins the acceptor. Idempotent.
  void Stop();

  bool running() const;
  /// Bound port after a successful Start (resolves port 0); -1 otherwise.
  int port() const;
  const MonitorOptions& options() const { return options_; }

  /// Registers/overwrites a route. Handlers must be thread-safe with respect
  /// to the state they read; they are invoked from the acceptor thread.
  /// Callable before or after Start.
  void AddHandler(const std::string& method, const std::string& path,
                  Handler handler);
  void RemoveHandler(const std::string& method, const std::string& path);

  /// Registers a handler for every path starting with `prefix` (e.g.
  /// "/profile/" serves /profile/<query_id>). Exact routes win over
  /// prefixes; among prefixes the longest match wins.
  void AddPrefixHandler(const std::string& method, const std::string& prefix,
                        Handler handler);

  /// Dispatches one request exactly as the acceptor would (tests exercise
  /// handlers without sockets).
  HttpResponse Dispatch(const HttpRequest& request) const;

 private:
  void AcceptorMain();
  void ServeConnection(int fd);
  void RegisterBuiltinRoutes();

  MonitorOptions options_;
  MetricCounter* requests_metric_;
  MetricCounter* errors_metric_;
  MetricHistogram* scrape_ns_metric_;

  /// Long-lived scratch for the /metrics render: the exposition is rebuilt
  /// per scrape but into this buffer (clear keeps capacity), so steady-state
  /// scrapes stop reallocating. Requests are served on the single acceptor
  /// thread; the mutex only guards against concurrent Dispatch from tests.
  std::mutex scrape_mu_;
  std::string scrape_scratch_;

  mutable std::mutex handlers_mu_;
  /// (method, path) → handler.
  std::map<std::pair<std::string, std::string>, Handler> handlers_;
  /// (method, path-prefix) → handler; consulted after the exact map.
  std::map<std::pair<std::string, std::string>, Handler> prefix_handlers_;

  std::mutex lifecycle_mu_;  ///< serializes Start/Stop (destructor included)
  ListenSocket listener_;
  std::thread acceptor_;
  std::atomic<bool> running_{false};
};

}  // namespace claims

#endif  // CLAIMS_OBS_MONITOR_SERVER_H_
