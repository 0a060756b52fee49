#ifndef PERFBENCH_SERVE_IO_H_
#define PERFBENCH_SERVE_IO_H_

// The serve path from the client side: a `dbpcd` child process over
// loopback, and a single-threaded load generator that pipelines requests
// on a few connections.

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "util.h"

namespace perfbench {

struct DaemonConfig {
  std::string binary;     ///< the dbpcd executable
  std::string schema;     ///< DDL file
  std::string plan;       ///< restructuring plan file
  std::string workdir;    ///< port file and daemon log go here
  int jobs = 2;           ///< --jobs (conversion workers)
  int io_threads = 1;     ///< --io-threads (epoll reactors)
};

/// One dbpcd child. Every other flag stays at its dbpcd default. The
/// destructor stops it (SIGTERM, then waits for the drain to finish).
class DaemonProcess {
 public:
  explicit DaemonProcess(const DaemonConfig& config);
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  int port() const { return port_; }
  /// The daemon's peak resident set (VmHWM) so far, in MiB.
  double PeakRssMb() const;
  /// The METRICS snapshot, fetched over a fresh DaemonClient session.
  MetricsData Metrics() const;
  /// SIGTERM and wait; idempotent.
  void Stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// What happened to one request.
struct RequestRecord {
  uint64_t index = 0;      ///< payload index (the workload's generator input)
  int64_t due_ns = 0;      ///< scheduled send instant (open loop), else sent
  int64_t sent_ns = 0;     ///< SUBMIT handed to the socket
  int64_t acked_ns = 0;    ///< `+OK id=` read
  int64_t result_ns = 0;   ///< RESULT <id> WAIT handed to the socket
  int64_t done_ns = 0;     ///< last byte of the RESULT reply read
  bool ok = false;         ///< answered with a decodable result
  bool backpressured = false;  ///< SUBMIT answered `-ERR unavailable`
  ResultPrint print;       ///< fingerprint of the answer when `ok`
  std::string error;       ///< the reply that ended the request, when not ok
};

struct PhaseResult {
  std::vector<RequestRecord> requests;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  uint64_t attempted() const { return requests.size(); }
  uint64_t succeeded() const;
  /// Refused with `-ERR unavailable`: answered, so not failed, but counted
  /// as missing every latency limit.
  uint64_t backpressured() const;
  /// Neither answered with a result nor refused: errors and drops.
  uint64_t failed() const {
    return attempted() - succeeded() - backpressured();
  }
};

using PayloadFn = std::function<Payload(uint64_t index)>;

/// Single-threaded pipelined client. Requests are spread round-robin over
/// the connections; on each connection commands are written as soon as
/// they are known (SUBMIT when due, RESULT <id> WAIT as soon as the id is
/// read) and replies are matched in order, as DAEMON.md's strict
/// request -> reply framing allows.
class LoadGenerator {
 public:
  LoadGenerator(int port, int connections);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Closed loop: every connection keeps `depth` requests in flight until
  /// `seconds` have passed or `max_requests` were sent, then drains.
  PhaseResult ClosedLoop(const PayloadFn& make, uint64_t first_index,
                         double seconds, int depth,
                         uint64_t max_requests = UINT64_MAX);

  /// Open loop at a constant `rate` (requests/s) for `seconds`: request k
  /// is due at start + k / rate whatever the replies do.
  PhaseResult OpenLoop(const PayloadFn& make, uint64_t first_index,
                       double rate, double seconds);

 private:
  struct Conn;
  PhaseResult Run(const PayloadFn& make, uint64_t first_index, double seconds,
                  int depth, uint64_t max_requests, double rate);

  std::vector<std::unique_ptr<Conn>> conns_;
};

/// Completions per second in each of `windows` equal slices of the phase.
std::vector<double> WindowRates(const PhaseResult& phase, int windows);

/// Client-observed latencies (done - due) in us. A request that was
/// refused or not answered counts as slower than every answered one: its
/// latency is the phase's whole length.
std::vector<double> LatenciesUs(const PhaseResult& phase);

/// The median over `windows` equal slices of the phase (by due time) of
/// each slice's p-th latency percentile (as LatenciesUs counts them), in
/// us: a stall that hits one slice moves one of the values the median is
/// taken over, not the result.
double WindowedLatencyUs(const PhaseResult& phase, double p, int windows);

/// How late the generator sent each request (sent - due), in us.
std::vector<double> LatenessUs(const PhaseResult& phase);

/// Kills any daemon still running (for fatal-error exits).
void KillDaemons();

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_IO_H_
