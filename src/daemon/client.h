#ifndef DBPC_DAEMON_CLIENT_H_
#define DBPC_DAEMON_CLIENT_H_

#include <memory>
#include <string>

#include "api/types.h"
#include "common/result.h"
#include "common/status.h"
#include "daemon/protocol.h"
#include "daemon/sock_buffer.h"

namespace dbpc {

/// A blocking client for one dbpcd session. Thin: one SockBuffer plus the
/// protocol codec, so the load driver (daemon/load.h, behind dbpc_load and
/// bench_daemon), benchmarks and tests all speak the wire exactly as
/// documented in DAEMON.md. Not thread-safe; use one client per
/// connection/thread.
///
/// Errors come in two kinds. A server `-ERR` reply (e.g. `-ERR unavailable`
/// backpressure) leaves the session usable. A transport failure (peer
/// closed, send/recv error, I/O deadline) or an unreadable reply leaves it
/// unusable, and connected() turns false for good; both can surface as
/// kUnavailable, so callers tell them apart by connected(), not by the
/// message.
class DaemonClient {
 public:
  /// Connects, reads the greeting and checks the protocol version.
  static Result<std::unique_ptr<DaemonClient>> Connect(
      const std::string& host, int port, SockBuffer::Limits limits = {});

  /// Round-trips a PING.
  Status Ping();

  /// Submits a conversion request; returns the assigned job id. A
  /// backpressure refusal surfaces as kUnavailable.
  Result<JobId> Submit(const ConversionRequest& request);

  /// Queries a job's state without blocking.
  Result<JobState> State(JobId id);

  /// Fetches a job's result. With `wait` the daemon blocks the reply until
  /// the job finishes (bounded by its result_wait_ms); without it, a job
  /// still in flight returns kUnavailable here.
  Result<ConversionResponse> Fetch(JobId id, bool wait = true);

  /// Submit + Fetch(wait): the one-call conversion round trip.
  Result<ConversionResponse> Convert(const ConversionRequest& request);

  /// The daemon's metrics snapshot (JSON).
  Result<std::string> Metrics();

  /// The span trace of a traced job (indented text).
  Result<std::string> Trace(JobId id);

  /// Asks the daemon to drain: stop admitting and finish admitted jobs.
  Status Drain();

  /// Polite goodbye (the server closes after acknowledging).
  Status Quit();

  /// False once a round trip failed in transport or read a reply it could
  /// not parse; the session cannot be used after that.
  bool connected() const { return connected_; }

  /// Fields of the greeting line (server=dbpcd, proto=N, ...).
  const std::map<std::string, std::string>& greeting() const {
    return greeting_;
  }

  /// Escape hatch for protocol tests: writes raw bytes and reads one reply
  /// line.
  Status SendRaw(const std::string& bytes);
  Result<std::string> ReadReplyLineRaw();

 private:
  explicit DaemonClient(std::unique_ptr<SockBuffer> sock);

  /// Writes one command line (plus optional payload) and parses the reply
  /// line; reads the counted payload of +DATA replies into `payload`. Any
  /// error it returns clears connected_.
  Result<WireReply> RoundTrip(const std::string& wire, std::string* payload);
  Result<WireReply> Exchange(const std::string& wire, std::string* payload);

  std::unique_ptr<SockBuffer> sock_;
  std::map<std::string, std::string> greeting_;
  bool connected_ = true;
};

}  // namespace dbpc

#endif  // DBPC_DAEMON_CLIENT_H_
