#ifndef DBPC_DAEMON_ADMIN_H_
#define DBPC_DAEMON_ADMIN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "daemon/reactor.h"

namespace dbpc {

/// A parsed admin-plane HTTP request head. Headers are consumed for framing
/// but not retained — the admin plane is GET-only and header-insensitive.
struct HttpRequest {
  std::string method;   ///< e.g. "GET"
  std::string target;   ///< raw request target, e.g. "/metrics"
  std::string version;  ///< e.g. "HTTP/1.0"
};

/// An incremental HTTP/1.x request-head parser: feed it bytes as they
/// arrive off the socket (any split, down to one byte at a time) until it
/// reports kDone or kError. The head ends at the blank line; request bodies
/// are not supported (the admin plane serves GETs only — a request with a
/// body still parses, its body is simply never read).
class HttpRequestParser {
 public:
  enum class State {
    kNeedMore,  ///< head incomplete; feed more bytes
    kDone,      ///< request() is valid
    kError,     ///< malformed or oversized; error() explains
  };

  static constexpr size_t kDefaultMaxBytes = 8192;

  explicit HttpRequestParser(size_t max_bytes = kDefaultMaxBytes)
      : max_bytes_(max_bytes) {}

  /// Appends bytes and advances. Once kDone or kError is reached the state
  /// is final; further bytes are ignored.
  State Consume(std::string_view bytes);

  State state() const { return state_; }
  const HttpRequest& request() const { return request_; }
  const std::string& error() const { return error_; }

 private:
  State Fail(std::string message);
  State FinishHead(size_t head_end);

  size_t max_bytes_;
  std::string buffer_;
  State state_ = State::kNeedMore;
  HttpRequest request_;
  std::string error_;
};

/// Renders a metrics snapshot in Prometheus text exposition format
/// (version 0.0.4). Metric names are the registry's dotted names with dots
/// mapped to underscores under a `dbpc_` prefix:
///   - counters:   `dbpc_daemon_jobs_completed <n>`
///   - gauges:     `dbpc_daemon_queue_depth <n>`
///   - rates:      `dbpc_service_conversions_total <n>` plus
///                 `dbpc_service_conversions_per_sec{window="1s|10s|60s"}`
///   - histograms: cumulative `_bucket{le="..."}` series over the
///                 power-of-two boundaries, plus `_sum` and `_count`.
std::string RenderPrometheusText(const MetricsSnapshot& snapshot);

/// Callbacks the admin endpoint serves from. All of them must be safe to
/// call from the reactor's loop thread for the server's lifetime.
struct AdminHooks {
  /// Snapshot source for /metrics and /varz. Required.
  MetricsRegistry* metrics = nullptr;
  /// /readyz: return false once the daemon is draining (SIGTERM or DRAIN).
  /// Null means always ready.
  std::function<bool()> ready;
  /// /varz body (application/json). Null falls back to the metrics JSON.
  std::function<std::string()> varz_json;
  /// Called before every /metrics and /varz render so sampled gauges
  /// (cache entries, queue depth) can be brought current. May be null.
  std::function<void()> refresh;
};

struct AdminOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 binds an ephemeral port; AdminServer::port() reports it
  /// Whole-request read deadline and whole-response write deadline. The
  /// admin plane talks to scrapers and probes, not untrusted peers, but a
  /// wedged client must never pin the plane.
  int io_timeout_ms = 5000;
  size_t max_request_bytes = HttpRequestParser::kDefaultMaxBytes;
};

/// The HTTP/1.0 admin endpoint: GET /metrics, /healthz, /readyz, /varz.
/// Every response closes the connection (Connection: close).
///
/// The listener and every connection are non-blocking state machines on
/// the given reactor: scrapes ride the same event loop as daemon sessions,
/// with no extra threads. The caller must Stop() the admin server *before*
/// stopping the reactor.
class AdminServer {
 public:
  static Result<std::unique_ptr<AdminServer>> Start(AdminOptions options,
                                                    AdminHooks hooks,
                                                    Reactor& reactor);

  ~AdminServer();
  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// The actual bound port (== options.port unless that was 0).
  int port() const { return port_; }

  /// Closes the listener and every open connection on the loop thread.
  /// Idempotent. Must run before Reactor::Stop.
  void Stop();

  /// The routing table, exposed for tests: the full HTTP response bytes
  /// (status line, headers, body) for one parsed request.
  std::string BuildResponse(const HttpRequest& request);

 private:
  /// One connection; loop-thread-only.
  struct ReactorConn {
    explicit ReactorConn(size_t max_request_bytes)
        : parser(max_request_bytes) {}
    int fd = -1;
    uint64_t token = 0;
    HttpRequestParser parser;
    std::string out;
    size_t sent = 0;
    bool writing = false;
    Reactor::TimerId deadline = Reactor::kInvalidTimer;
  };

  AdminServer(AdminOptions options, AdminHooks hooks, Reactor& reactor);

  // All on the loop thread.
  Status RegisterOnLoop();
  void OnAccept();
  void OnConnEvent(int fd, uint32_t events);
  void ContinueRead(ReactorConn* conn);
  void StartWrite(ReactorConn* conn);
  void ContinueWrite(ReactorConn* conn);
  void CloseConn(int fd);
  void TeardownOnLoop();

  AdminOptions options_;
  AdminHooks hooks_;
  Reactor& reactor_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};

  // Loop-thread-only connection table.
  uint64_t listen_token_ = 0;
  std::map<int, std::unique_ptr<ReactorConn>> conns_;
};

/// A small blocking HTTP GET client for tests, tools and benches (the
/// admin plane's counterpart to DaemonClient). Connect/read/write share one
/// overall deadline.
struct HttpResponse {
  int status_code = 0;
  std::string body;
};
Result<HttpResponse> HttpGet(const std::string& host, int port,
                             const std::string& path, int timeout_ms = 5000);

}  // namespace dbpc

#endif  // DBPC_DAEMON_ADMIN_H_
