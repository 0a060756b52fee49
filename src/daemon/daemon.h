#ifndef DBPC_DAEMON_DAEMON_H_
#define DBPC_DAEMON_DAEMON_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/types.h"
#include "common/metrics.h"
#include "common/timeline.h"
#include "daemon/admin.h"
#include "daemon/protocol.h"
#include "daemon/reactor.h"
#include "daemon/sock_buffer.h"
#include "service/service.h"

namespace dbpc {

/// Network daemon configuration. The embedded ServiceOptions configure the
/// conversion pipeline itself (worker count, default deadline, retries,
/// supervisor knobs); everything else is the socket front-end.
struct DaemonOptions {
  /// Listen address. Defaults to loopback: dbpcd is an internal service;
  /// exposing it wider is an explicit operator decision.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (ConversionDaemon::port() reports
  /// the actual one — tests and check.sh use this).
  int port = 0;
  /// Concurrent session cap. A connection over the limit is not dropped:
  /// it receives a structured `-ERR unavailable` line, then is closed.
  int max_connections = 256;
  /// Admission control: jobs admitted (queued + running) at once. A SUBMIT
  /// over the limit is refused with `-ERR unavailable` — backpressure the
  /// client can retry on — rather than growing the queue without bound.
  int queue_depth = 256;
  /// Session read deadline per wire read call (whole-line / whole-payload,
  /// measured from call start, so trickled bytes cannot extend it).
  int read_timeout_ms = 10000;
  /// Session write deadline per reply.
  int write_timeout_ms = 10000;
  /// Longest accepted command line. Oversized lines get a structured error
  /// and the session is torn down (framing cannot be resynchronized).
  int max_line_bytes = 4096;
  /// Largest accepted SUBMIT payload.
  int max_payload_bytes = 1 << 20;
  /// How long Drain() waits for admitted jobs to finish before giving up
  /// with kDeadlineExceeded.
  int drain_grace_ms = 30000;
  /// How long a `RESULT <id> WAIT` blocks server-side before answering
  /// `-ERR deadline`. Keep below the client's read timeout — a reply that
  /// arrives after the client gave up desyncs any reused session — hence
  /// the default sits under SockBuffer's default 10000ms read deadline.
  int result_wait_ms = 8000;
  /// Completed jobs retained for RESULT/TRACE queries; older results are
  /// evicted FIFO (their RESULT then answers `-ERR not-found`).
  int max_retained_results = 8192;
  /// Reactor threads (I/O shards); sessions are assigned round-robin at
  /// accept and stay on their shard for life.
  int io_threads = 2;
  /// HTTP admin endpoint (GET /metrics, /healthz, /readyz, /varz) on the
  /// listen host. -1 disables it; 0 binds an ephemeral port
  /// (ConversionDaemon::admin_port() reports the actual one). The
  /// endpoint is served by the first reactor shard.
  int admin_port = -1;
  /// Log one structured warn line for every request whose total latency
  /// (admission to completion) is at least this many milliseconds. 0
  /// disables the slow-request log.
  int slow_request_ms = 0;
  /// The conversion pipeline configuration shared with in-process use.
  ServiceOptions service;

  /// Rejects nonsensical configurations with a structured error naming the
  /// offending knob. Called at daemon entry (ConversionDaemon::Start).
  Status Validate() const;
};

/// `dbpcd`: a long-running TCP front-end to the ConversionService.
///
/// The paper frames conversion as a batch job run by the installation's
/// conversion staff; at production scale that batch becomes a service, so
/// this daemon puts the wire protocol documented in DAEMON.md
/// (submit/status/result/metrics/trace/drain, line-oriented with counted
/// payloads) in front of the same pipeline the in-process API uses.
/// Sessions are non-blocking state machines on a few epoll reactor threads
/// (Linux only) under a capped session count; conversions run on the
/// service's worker pool; admission control bounds queued work and
/// answers overload with backpressure errors instead of dropped requests.
///
/// Lifecycle: Start() binds/listens and returns; Drain() (idempotent, also
/// triggered by the DRAIN command and by dbpcd's SIGTERM handler) stops
/// admitting jobs and waits for every admitted job to finish; Stop() drains,
/// closes every session and joins every thread. The destructor calls Stop().
class ConversionDaemon {
 public:
  /// Validates options, builds the conversion service, binds and starts
  /// accepting. Transformations must outlive the daemon.
  static Result<std::unique_ptr<ConversionDaemon>> Start(
      Schema source, std::vector<const Transformation*> plan,
      DaemonOptions options);

  ~ConversionDaemon();

  ConversionDaemon(const ConversionDaemon&) = delete;
  ConversionDaemon& operator=(const ConversionDaemon&) = delete;

  /// The actual bound port (== options.port unless that was 0).
  int port() const { return port_; }

  /// The admin endpoint's bound port; -1 when the endpoint is disabled.
  int admin_port() const { return admin_ ? admin_->port() : -1; }

  const DaemonOptions& options() const { return options_; }

  /// Shared metrics registry: pipeline metrics (stage latencies,
  /// classification counters) and daemon metrics (daemon.*) side by side —
  /// the METRICS command snapshots this.
  MetricsRegistry& metrics() { return service_->metrics(); }

  /// Stops admitting new jobs (SUBMIT answers `-ERR unavailable`) and
  /// blocks until every admitted job completed, up to
  /// options.drain_grace_ms (kDeadlineExceeded afterwards). Idempotent:
  /// a second Drain — double-drain from a client, or DRAIN racing
  /// SIGTERM — just waits for the same condition again.
  Status Drain();

  /// Drain + tear down: closes the listener, closes every session on its
  /// reactor shard, and joins the accept thread and the reactors.
  /// Idempotent.
  void Stop();

  bool draining() const;

  uint64_t jobs_admitted() const;
  uint64_t jobs_completed() const;
  int active_sessions() const;

 private:
  struct Job {
    JobId id = 0;
    uint64_t session_id = 0;  ///< The submitting session (slow-request log).
    JobState state = JobState::kQueued;
    /// Read only by RunJob; cleared once the conversion ran.
    ConversionRequest request;
    /// Published by RunJob without `outcome` (no reader needs the full
    /// PipelineOutcome, and retained jobs would keep it alive).
    ConversionResponse response;
  };

  /// One session: an explicit protocol state machine (read-command →
  /// read-payload → read-terminator → write, with parked await-result /
  /// await-drain states) driven by reactor events. Defined in daemon.cc;
  /// lives on exactly one reactor shard.
  class EpollSession;

  /// One reactor thread plus its loop-thread-owned session set.
  struct ReactorShard {
    std::unique_ptr<Reactor> reactor;
    /// Strong refs keeping sessions alive; mutated only on the loop
    /// thread (Teardown, StartEpollSession, Stop's final sweep).
    std::set<std::shared_ptr<EpollSession>> sessions;
  };

  /// A parked epoll session waiting for a job (RESULT WAIT) or for the
  /// drain to complete (DRAIN). Registered under jobs_mu_; woken with a
  /// Post to its shard's reactor. The weak_ptr makes a torn-down session's
  /// wake a no-op.
  struct ResultWaiter {
    Reactor* reactor = nullptr;
    std::weak_ptr<EpollSession> session;
  };

  explicit ConversionDaemon(DaemonOptions options);

  /// Starts the admin endpoint when options_.admin_port >= 0 (no-op
  /// otherwise). It rides shards_[0]'s reactor.
  Status StartAdmin();
  void AcceptLoop();
  /// Loop-thread entry: registers an accepted socket as an EpollSession on
  /// `shard` and starts its state machine.
  void StartEpollSession(ReactorShard* shard, std::unique_ptr<SockBuffer> sock,
                         uint64_t session_id);
  Result<JobId> AdmitJob(ConversionRequest request, uint64_t session_id);
  /// Converts one admitted job on a pool worker. Its request timeline lives
  /// in this frame, seeded with the admission mark: retained jobs carry none.
  void RunJob(std::shared_ptr<Job> job,
              RequestTimeline::Clock::time_point admitted);
  /// Marks the daemon draining (first call only: counts daemon.drains and
  /// logs drain_started). Caller holds jobs_mu_.
  void BeginDrainLocked();
  /// The status a drain that outlived drain_grace_ms answers with.
  Status DrainTimedOut(int pending) const;
  /// Evicts completed results beyond max_retained_results. Caller holds
  /// jobs_mu_.
  void EvictOldResultsLocked();
  /// Brings sampled gauges current (active sessions, cache entries); the
  /// admin endpoint calls this before every /metrics and /varz render.
  void RefreshGauges();
  /// The /varz body: server identity, uptime, build info and the full
  /// metrics snapshot as one JSON object.
  std::string VarzJson();

  DaemonOptions options_;
  std::unique_ptr<ConversionService> service_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::chrono::steady_clock::time_point started_at_;

  /// The HTTP admin endpoint (null when options_.admin_port < 0). Stopped
  /// by Stop() before the reactors: its teardown runs on shard 0's loop.
  std::unique_ptr<AdminServer> admin_;

  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  uint64_t next_session_id_ = 1;  ///< Accept-thread only.

  /// The reactor shards. Created in Start, torn down in Stop (sessions
  /// closed via a posted sweep, then reactors joined).
  std::vector<std::unique_ptr<ReactorShard>> shards_;
  size_t next_shard_ = 0;  ///< Round-robin accept assignment (accept thread).

  // Open sessions: counted at accept, uncounted by EpollSession::Teardown.
  mutable std::mutex sessions_mu_;
  int active_sessions_ = 0;

  // Jobs: admission bookkeeping and the result table.
  mutable std::mutex jobs_mu_;
  /// Signalled by RunJob on every completion; Drain() waits on it.
  std::condition_variable jobs_cv_;
  std::map<JobId, std::shared_ptr<Job>> jobs_;
  /// Sessions parked in RESULT WAIT, keyed by the awaited job;
  /// RunJob moves a job's waiters out under jobs_mu_ — the same critical
  /// section that marks the job finished — so a session that checked
  /// "not finished" and registered atomically cannot miss its wake.
  std::map<JobId, std::vector<ResultWaiter>> result_waiters_;
  /// Sessions parked in DRAIN, woken when pending_ reaches zero.
  std::vector<ResultWaiter> drain_waiters_;
  std::deque<JobId> completed_order_;
  JobId next_id_ = 1;
  int pending_ = 0;
  uint64_t admitted_ = 0;
  uint64_t completed_ = 0;
  bool draining_ = false;

  // Hot-path metric handles (MetricsRegistry lookups take a lock).
  Counter* connections_accepted_ = nullptr;
  Counter* connections_rejected_ = nullptr;
  Counter* submits_admitted_ = nullptr;
  Counter* submits_rejected_ = nullptr;
  Counter* protocol_errors_ = nullptr;
  Counter* jobs_completed_counter_ = nullptr;
  Counter* drains_ = nullptr;
  Gauge* queue_depth_gauge_ = nullptr;      ///< admitted, not yet running
  Gauge* inflight_gauge_ = nullptr;         ///< currently converting
  Gauge* active_sessions_gauge_ = nullptr;  ///< open protocol sessions
  Gauge* parked_sessions_gauge_ = nullptr;  ///< RESULT WAIT / DRAIN parks
};

}  // namespace dbpc

#endif  // DBPC_DAEMON_DAEMON_H_
