#ifndef DBPC_DAEMON_LOAD_H_
#define DBPC_DAEMON_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dbpc {

/// The client threads one load run uses at most. A run with more
/// connections spreads them over this many threads (each owning several
/// sessions), so a 2000-session row measures the daemon, not 2000 client
/// threads contending for the same cores.
inline constexpr int kLoadMaxThreads = 16;

/// One load run against a dbpcd: `connections` sessions submitting
/// `SUBMIT` + `RESULT ... WAIT` round trips for `duration_ms`.
struct LoadOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  int connections = 8;
  int duration_ms = 2000;
  /// Global submit rate cap; 0 = closed loop (each session submits as soon
  /// as its previous round trip ends).
  int rps = 0;
  /// Needs rps > 0. Latency is measured from each request's scheduled
  /// instant on the global rate schedule, not from when a session got
  /// round to sending it, so a slow server shows as rising latency instead
  /// of a silently lowered offered rate (the coordinated-omission
  /// correction).
  bool open_loop = false;
  /// deadline_ms= on every SUBMIT (0: none).
  int deadline_ms = 0;
  /// Percent of payloads replaced by non-CPL text (the failed-job path).
  int malformed_pct = 0;
  /// Percent of submits with trace=1.
  int trace_pct = 0;
  /// CPL sources, mixed round-robin; empty means DefaultLoadPayloads().
  std::vector<std::string> payloads;
};

/// The exact account of a load run. Every submitted request lands in one
/// bucket: submitted == accepted + refused + failed + backpressure +
/// dropped.
struct LoadReport {
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t refused = 0;       ///< answered kDone but not accepted
  uint64_t failed = 0;        ///< answered JobState::kFailed (parse errors)
  uint64_t backpressure = 0;  ///< `-ERR unavailable` on a live session
  /// No conversion answer: the connection died, or SUBMIT or RESULT drew
  /// an error other than backpressure; the session was closed. A healthy
  /// daemon keeps this 0.
  uint64_t dropped = 0;
  uint64_t connect_errors = 0;
  /// Client-observed latency of every answered request, ascending.
  std::vector<uint64_t> latencies_us;
  double elapsed_s = 0.0;
  /// Sessions that never connected or never completed a round trip.
  int idle_sessions = 0;

  /// Answered requests (accepted + refused + failed).
  uint64_t completed() const { return latencies_us.size(); }
  double completed_per_sec() const;
  /// latencies_us[floor(p / 100 * (n - 1))] for p in [0, 100]; 0 when
  /// nothing was answered.
  uint64_t PercentileUs(double p) const;
};

/// Two programs valid against the COMPANY schema (samples/company.ddl):
/// SENIORS (automatic) and SALES-RPT (sequential access).
const std::vector<std::string>& DefaultLoadPayloads();

/// Drives the load and returns once every session has finished. Each
/// client thread owns one or more sessions and keeps at most one request
/// outstanding per session. A session answered with backpressure backs
/// off; a session whose connection dies counts its request as dropped and
/// stops.
LoadReport RunLoad(const LoadOptions& options);

}  // namespace dbpc

#endif  // DBPC_DAEMON_LOAD_H_
