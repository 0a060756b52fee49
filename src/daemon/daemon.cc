#include "daemon/daemon.h"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "common/log.h"
#include "common/string_util.h"
#include "common/timeline.h"
#include "daemon/protocol.h"

namespace dbpc {

namespace {

bool Finished(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed;
}

std::string NoSuchJob(JobId id) {
  return ErrReplyLine(Status::NotFound("no such job " + std::to_string(id)));
}

/// The `+DATA` reply carrying a finished job's response.
std::string ResultReply(const ConversionResponse& response) {
  return DataReply(EncodeResponsePayload(response), ResponseFields(response));
}

Status PositiveKnob(const char* knob, int value) {
  if (value < 1) {
    return Status::InvalidArgument(std::string("DaemonOptions::") + knob +
                                   " must be >= 1 (got " +
                                   std::to_string(value) + ")");
  }
  return Status::OK();
}

}  // namespace

Status DaemonOptions::Validate() const {
  if (host.empty()) {
    return Status::InvalidArgument("DaemonOptions::host must not be empty");
  }
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument(
        "DaemonOptions::port must be in [0, 65535] (got " +
        std::to_string(port) + ")");
  }
  DBPC_RETURN_IF_ERROR(PositiveKnob("max_connections", max_connections));
  DBPC_RETURN_IF_ERROR(PositiveKnob("queue_depth", queue_depth));
  DBPC_RETURN_IF_ERROR(PositiveKnob("read_timeout_ms", read_timeout_ms));
  DBPC_RETURN_IF_ERROR(PositiveKnob("write_timeout_ms", write_timeout_ms));
  // Below 64 bytes not even "SUBMIT <size>" with options fits; treat it
  // as a configuration error rather than rejecting every command.
  if (max_line_bytes < 64) {
    return Status::InvalidArgument(
        "DaemonOptions::max_line_bytes must be >= 64 (got " +
        std::to_string(max_line_bytes) + ")");
  }
  DBPC_RETURN_IF_ERROR(PositiveKnob("max_payload_bytes", max_payload_bytes));
  if (drain_grace_ms < 0) {
    return Status::InvalidArgument(
        "DaemonOptions::drain_grace_ms must be >= 0 (got " +
        std::to_string(drain_grace_ms) + ")");
  }
  DBPC_RETURN_IF_ERROR(PositiveKnob("result_wait_ms", result_wait_ms));
  DBPC_RETURN_IF_ERROR(
      PositiveKnob("max_retained_results", max_retained_results));
  DBPC_RETURN_IF_ERROR(PositiveKnob("io_threads", io_threads));
  if (admin_port < -1 || admin_port > 65535) {
    return Status::InvalidArgument(
        "DaemonOptions::admin_port must be in [-1, 65535] (got " +
        std::to_string(admin_port) + ")");
  }
  if (slow_request_ms < 0) {
    return Status::InvalidArgument(
        "DaemonOptions::slow_request_ms must be >= 0 (got " +
        std::to_string(slow_request_ms) + ")");
  }
  return service.Validate();
}

ConversionDaemon::ConversionDaemon(DaemonOptions options)
    : options_(std::move(options)) {}

ConversionDaemon::~ConversionDaemon() { Stop(); }

Result<std::unique_ptr<ConversionDaemon>> ConversionDaemon::Start(
    Schema source, std::vector<const Transformation*> plan,
    DaemonOptions options) {
  DBPC_RETURN_IF_ERROR(options.Validate());
  std::unique_ptr<ConversionDaemon> daemon(
      new ConversionDaemon(std::move(options)));
  DBPC_ASSIGN_OR_RETURN(
      daemon->service_,
      ConversionService::Create(std::move(source), std::move(plan),
                                daemon->options_.service));
  MetricsRegistry& metrics = daemon->service_->metrics();
  daemon->connections_accepted_ =
      metrics.GetCounter("daemon.connections_accepted");
  daemon->connections_rejected_ =
      metrics.GetCounter("daemon.connections_rejected");
  daemon->submits_admitted_ = metrics.GetCounter("daemon.submits_admitted");
  daemon->submits_rejected_ = metrics.GetCounter("daemon.submits_rejected");
  daemon->protocol_errors_ = metrics.GetCounter("daemon.protocol_errors");
  daemon->jobs_completed_counter_ =
      metrics.GetCounter("daemon.jobs_completed");
  daemon->drains_ = metrics.GetCounter("daemon.drains");
  // Registered up front so every snapshot shows them, traffic or not.
  metrics.GetHistogram(kQueueWaitUs.histogram);
  metrics.GetHistogram(kRequestUs.histogram);
  daemon->queue_depth_gauge_ = metrics.GetGauge("daemon.queue_depth");
  daemon->inflight_gauge_ = metrics.GetGauge("daemon.inflight_jobs");
  daemon->active_sessions_gauge_ = metrics.GetGauge("daemon.active_sessions");
  daemon->parked_sessions_gauge_ = metrics.GetGauge("daemon.parked_sessions");
  daemon->started_at_ = std::chrono::steady_clock::now();
  for (int i = 0; i < daemon->options_.io_threads; ++i) {
    auto shard = std::make_unique<ReactorShard>();
    DBPC_ASSIGN_OR_RETURN(shard->reactor,
                          Reactor::Create("dbpcd-io-" + std::to_string(i)));
    daemon->shards_.push_back(std::move(shard));
  }
  DBPC_ASSIGN_OR_RETURN(
      daemon->listen_fd_,
      ListenTcp(daemon->options_.host, daemon->options_.port, 128, "listen",
                &daemon->port_));
  DBPC_RETURN_IF_ERROR(daemon->StartAdmin());
  daemon->accept_thread_ =
      std::thread([raw = daemon.get()] { raw->AcceptLoop(); });
  DBPC_LOG(LogLevel::kInfo, "daemon_started",
           LogField("host", daemon->options_.host),
           LogField("port", daemon->port_),
           LogField("io_threads", daemon->options_.io_threads),
           LogField("admin_port", daemon->admin_port()),
           LogField("jobs", daemon->options_.service.jobs));
  return daemon;
}

Status ConversionDaemon::StartAdmin() {
  if (options_.admin_port < 0) return Status::OK();
  AdminOptions admin_options;
  admin_options.host = options_.host;
  admin_options.port = options_.admin_port;
  AdminHooks hooks;
  hooks.metrics = &service_->metrics();
  hooks.ready = [this] {
    return !draining() && !stopping_.load(std::memory_order_relaxed);
  };
  hooks.varz_json = [this] { return VarzJson(); };
  hooks.refresh = [this] { RefreshGauges(); };
  DBPC_ASSIGN_OR_RETURN(admin_, AdminServer::Start(admin_options, hooks,
                                                   *shards_[0]->reactor));
  return Status::OK();
}

void ConversionDaemon::RefreshGauges() {
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    active_sessions_gauge_->Set(active_sessions_);
  }
  service_->RefreshGauges();
}

std::string ConversionDaemon::VarzJson() {
  uint64_t uptime_s = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - started_at_)
          .count());
  std::string out = "{\"server\":\"dbpcd\"";
  out += ",\"port\":" + std::to_string(port_);
  out += ",\"uptime_s\":" + std::to_string(uptime_s);
  out += ",\"draining\":";
  out += draining() ? "true" : "false";
  out += ",\"active_sessions\":" + std::to_string(active_sessions());
  out += ",\"jobs_admitted\":" + std::to_string(jobs_admitted());
  out += ",\"jobs_completed\":" + std::to_string(jobs_completed());
  out += ",\"build\":{\"compiler\":\"" + EscapeJsonString(__VERSION__) +
         "\",\"cpp\":" + std::to_string(__cplusplus) + "}";
  out += ",\"metrics\":" + service_->metrics().ToJson();
  out += "}";
  return out;
}

void ConversionDaemon::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int rc = ::poll(&pfd, 1, 100);
    if (rc <= 0) continue;  // tick: re-check stopping_
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    connections_accepted_->Increment();
    // Replies are coalesced into one send() each; without this the kernel
    // would still delay the segment after a previous unacked reply (Nagle
    // vs delayed ACK — a ~40ms stall per request on loopback).
    EnableTcpNoDelay(fd);
    SockBuffer::Limits limits{options_.read_timeout_ms,
                              options_.write_timeout_ms,
                              static_cast<size_t>(options_.max_line_bytes)};
    auto sock = std::make_unique<SockBuffer>(fd, limits);
    bool reject = false;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      if (active_sessions_ >= options_.max_connections) {
        reject = true;
      } else {
        ++active_sessions_;
        active_sessions_gauge_->Set(active_sessions_);
      }
    }
    if (reject) {
      // Over the session cap: refuse with a structured response instead
      // of dropping the connection on the floor. Written outside the
      // sessions lock — a peer that won't read must not stall teardown.
      connections_rejected_->Increment();
      DBPC_LOG_RATELIMITED(LogLevel::kWarn, 1.0, 5.0, "connection_rejected",
                           LogField("limit", options_.max_connections));
      sock->WriteAll(ErrReplyLine(Status::Unavailable(
          "too many connections (limit " +
          std::to_string(options_.max_connections) + "); retry later")));
      continue;  // sock destructor closes
    }
    uint64_t session_id = next_session_id_++;
    // Sessions are pinned to a shard for life, so all their state is
    // loop-thread-local; the Post is the only cross-thread hop.
    ReactorShard* shard = shards_[next_shard_++ % shards_.size()].get();
    shard->reactor->Post([this, shard, session_id, raw = sock.release()] {
      StartEpollSession(shard, std::unique_ptr<SockBuffer>(raw), session_id);
    });
  }
}

/// One session, as an explicit state machine: each state names what the
/// session is waiting for, the reactor delivers the readiness/timer/wake
/// events, and `Pump()` advances through as many states as the buffers
/// allow without ever sleeping.
///
/// All methods run on the owning shard's loop thread (cross-thread wakes
/// arrive via Reactor::Post). The wire behavior — reply bytes and teardown
/// conditions — is the proto=1 contract of DAEMON.md; the golden transcript
/// in tests/daemon/testdata pins it byte for byte.
class ConversionDaemon::EpollSession
    : public std::enable_shared_from_this<ConversionDaemon::EpollSession> {
 public:
  EpollSession(ConversionDaemon* daemon, ReactorShard* shard,
               std::unique_ptr<SockBuffer> sock, uint64_t session_id)
      : daemon_(daemon),
        shard_(shard),
        sock_(std::move(sock)),
        session_id_(session_id) {}

  /// Registers the fd with the reactor (parked: interest starts empty;
  /// Pump sets it per state).
  Status Register() {
    auto self = shared_from_this();
    DBPC_ASSIGN_OR_RETURN(
        io_token_, shard_->reactor->Add(sock_->fd(), 0, [self](uint32_t ev) {
          self->OnIoEvent(ev);
        }));
    return Status::OK();
  }

  /// Queues the greeting and starts the machine in its write state.
  void Start() {
    sock_->QueueWrite(GreetingLine());
    state_ = State::kWrite;
    Pump();
  }

  /// RESULT WAIT wake: the awaited job finished. Posted by RunJob; a
  /// session that moved on (timer already answered, or it now awaits a
  /// different job) ignores the stale wake.
  void WakeWithResult(const std::shared_ptr<Job>& job) {
    if (state_ != State::kAwaitResult || awaited_job_ != job) return;
    CancelDeadline();
    MarkUnparked();
    awaited_job_.reset();
    // Safe unlocked: RunJob wrote the response before handing out the
    // waiter under jobs_mu_, and the Post queue ordered that before us.
    QueueReply(ResultReply(job->response), /*close_after=*/false);
    Pump();
  }

  /// DRAIN wake: the last pending job finished.
  void WakeDrained() {
    if (state_ != State::kAwaitDrain) return;
    CancelDeadline();
    MarkUnparked();
    QueueReply(DrainedReply(), /*close_after=*/false);
    Pump();
  }

  /// Closes the session: deregisters from the reactor, drops it from the
  /// daemon's session registry, closes the socket, and releases the
  /// shard's strong ref. Idempotent; safe mid-dispatch (callers hold a
  /// strong ref across the call).
  void Teardown() {
    if (state_ == State::kClosed) return;
    MarkUnparked();
    state_ = State::kClosed;
    CancelDeadline();
    if (io_token_ != 0) {
      shard_->reactor->Remove(sock_->fd(), io_token_);
      io_token_ = 0;
    }
    sock_.reset();
    {
      std::lock_guard<std::mutex> lock(daemon_->sessions_mu_);
      --daemon_->active_sessions_;
      daemon_->active_sessions_gauge_->Set(daemon_->active_sessions_);
    }
    shard_->sessions.erase(shared_from_this());
  }

 private:
  enum class State {
    kReadCommand,     ///< Waiting for (or consuming) a command line.
    kReadPayload,     ///< Consuming a SUBMIT's counted payload.
    kReadTerminator,  ///< Expecting the empty line after the payload.
    kWrite,           ///< Flushing a queued reply.
    kAwaitResult,     ///< Parked in RESULT ... WAIT; woken by job finish.
    kAwaitDrain,      ///< Parked in DRAIN; woken when pending hits zero.
    kClosed,
  };

  void OnIoEvent(uint32_t events) {
    switch (state_) {
      case State::kClosed:
        return;
      case State::kWrite:
        if ((events & EPOLLOUT) == 0 && (events & (EPOLLERR | EPOLLHUP))) {
          Teardown();
          return;
        }
        Pump();
        return;
      case State::kAwaitResult:
      case State::kAwaitDrain:
        // Interest is empty while parked; only error/hangup gets through.
        if (events & (EPOLLERR | EPOLLHUP)) Teardown();
        return;
      default: {  // reading states
        if (events & EPOLLIN) {
          Result<SockBuffer::IoStep> fill = sock_->FillOnce();
          if (!fill.ok()) {
            // Peer closed / reset: nothing to say, silent teardown.
            Teardown();
            return;
          }
          if (*fill == SockBuffer::IoStep::kReady) Pump();
          return;
        }
        if (events & (EPOLLERR | EPOLLHUP)) Teardown();
        return;
      }
    }
  }

  /// Advances the state machine until it blocks (returns), parks, or
  /// closes. Never sleeps: blocking is expressed as epoll interest plus a
  /// deadline timer, and Pump is re-entered from the next event.
  void Pump() {
    while (true) {
      switch (state_) {
        case State::kClosed:
        case State::kAwaitResult:
        case State::kAwaitDrain:
          return;

        case State::kWrite: {
          Result<SockBuffer::IoStep> step = sock_->FlushQueued();
          if (!step.ok()) {
            Teardown();
            return;
          }
          if (*step == SockBuffer::IoStep::kNeedMore) {
            // The peer stopped draining: wait for EPOLLOUT, bounded by
            // the write deadline (fires once per reply, not per retry).
            if (!deadline_armed_) {
              ArmDeadline(daemon_->options_.write_timeout_ms,
                          [this] { Teardown(); });
            }
            SetInterest(EPOLLOUT);
            return;
          }
          CancelDeadline();
          if (close_after_write_) {
            Teardown();
            return;
          }
          state_ = State::kReadCommand;
          SetInterest(EPOLLIN);
          continue;
        }

        case State::kReadCommand: {
          std::string line;
          Result<SockBuffer::IoStep> step = sock_->TryReadLine(&line);
          if (!step.ok()) {
            // Oversized line: framing cannot be resynchronized, so the
            // structured error also ends the session.
            daemon_->protocol_errors_->Increment();
            QueueReply(ErrReplyLine(step.status()), /*close_after=*/true);
            continue;
          }
          if (*step == SockBuffer::IoStep::kNeedMore) {
            if (!deadline_armed_) {
              ArmDeadline(daemon_->options_.read_timeout_ms, [this] {
                QueueReply(ErrReplyLine(Status::DeadlineExceeded(
                               "idle timeout, closing session")),
                           /*close_after=*/true);
                Pump();
              });
            }
            SetInterest(EPOLLIN);
            return;
          }
          CancelDeadline();
          if (line.empty()) continue;  // tolerate blank keep-alive lines
          Result<WireCommand> command = ParseCommandLine(line);
          if (!command.ok()) {
            daemon_->protocol_errors_->Increment();
            QueueReply(ErrReplyLine(command.status()),
                       /*close_after=*/false);
            continue;
          }
          HandleCommand(*command);
          continue;
        }

        case State::kReadPayload: {
          Result<SockBuffer::IoStep> step =
              sock_->TryReadExact(pending_command_.payload_bytes, &payload_);
          if (!step.ok()) {
            Teardown();
            return;
          }
          if (*step == SockBuffer::IoStep::kNeedMore) {
            if (!deadline_armed_) {
              ArmDeadline(daemon_->options_.read_timeout_ms, [this] {
                daemon_->protocol_errors_->Increment();
                QueueReply(
                    ErrReplyLine(Status::DeadlineExceeded(
                        "payload not received in time, closing session")),
                    /*close_after=*/true);
                Pump();
              });
            }
            SetInterest(EPOLLIN);
            return;
          }
          CancelDeadline();
          state_ = State::kReadTerminator;
          continue;
        }

        case State::kReadTerminator: {
          std::string line;
          Result<SockBuffer::IoStep> step = sock_->TryReadLine(&line);
          if (!step.ok()) {
            // A failed terminator read ends the session without a reply.
            Teardown();
            return;
          }
          if (*step == SockBuffer::IoStep::kNeedMore) {
            if (!deadline_armed_) {
              ArmDeadline(daemon_->options_.read_timeout_ms,
                          [this] { Teardown(); });
            }
            SetInterest(EPOLLIN);
            return;
          }
          CancelDeadline();
          if (!line.empty()) {
            daemon_->protocol_errors_->Increment();
            QueueReply(ErrReplyLine(Status::InvalidArgument(
                           "payload must be followed by an empty line, "
                           "closing session")),
                       /*close_after=*/true);
            continue;
          }
          FinishSubmit();
          continue;
        }
      }
    }
  }

  /// Dispatches one parsed command. Protocol-level errors are answered on
  /// the wire and keep the session alive; waits become parked states.
  void HandleCommand(const WireCommand& command) {
    switch (command.kind) {
      case CommandKind::kPing:
        QueueReply(OkReplyLine({{"pong", "1"}}), /*close_after=*/false);
        return;

      case CommandKind::kQuit:
        QueueReply(OkReplyLine({{"bye", "1"}}), /*close_after=*/true);
        return;

      case CommandKind::kSubmit: {
        if (command.payload_bytes >
            static_cast<size_t>(daemon_->options_.max_payload_bytes)) {
          daemon_->protocol_errors_->Increment();
          QueueReply(ErrReplyLine(Status::InvalidArgument(
                         "payload of " +
                         std::to_string(command.payload_bytes) +
                         " bytes exceeds limit " +
                         std::to_string(daemon_->options_.max_payload_bytes) +
                         ", closing session")),
                     /*close_after=*/true);
          return;
        }
        pending_command_ = command;
        payload_.clear();
        state_ = State::kReadPayload;
        return;
      }

      case CommandKind::kStatus: {
        std::lock_guard<std::mutex> lock(daemon_->jobs_mu_);
        auto it = daemon_->jobs_.find(command.id);
        if (it == daemon_->jobs_.end()) {
          QueueReply(NoSuchJob(command.id), /*close_after=*/false);
          return;
        }
        QueueReply(
            OkReplyLine({{"id", std::to_string(command.id)},
                         {"state", JobStateName(it->second->state)}}),
            /*close_after=*/false);
        return;
      }

      case CommandKind::kResult: {
        std::shared_ptr<Job> job;
        {
          std::lock_guard<std::mutex> lock(daemon_->jobs_mu_);
          auto it = daemon_->jobs_.find(command.id);
          if (it == daemon_->jobs_.end()) {
            QueueReply(NoSuchJob(command.id), /*close_after=*/false);
            return;
          }
          job = it->second;
          if (!Finished(job->state)) {
            if (!command.wait) {
              QueueReply(
                  OkReplyLine({{"id", std::to_string(command.id)},
                               {"state", JobStateName(job->state)}}),
                  /*close_after=*/false);
              return;
            }
            // Park. Registered in the same critical section that
            // observed "not finished", so RunJob — which flips the state
            // and collects waiters under this lock — cannot slip between
            // the check and the registration: no lost wakeup.
            daemon_->result_waiters_[command.id].push_back(
                ResultWaiter{shard_->reactor.get(), weak_from_this()});
            awaited_job_ = job;
            state_ = State::kAwaitResult;
          }
        }
        if (state_ == State::kAwaitResult) {
          MarkParked();
          SetInterest(0);
          ArmDeadline(daemon_->options_.result_wait_ms,
                      [this] { OnResultWaitTimeout(); });
          return;
        }
        QueueReply(ResultReply(job->response), /*close_after=*/false);
        return;
      }

      case CommandKind::kMetrics: {
        daemon_->RefreshGauges();
        std::string payload = daemon_->service_->metrics().ToJson();
        QueueReply(DataReply(payload, {}), /*close_after=*/false);
        return;
      }

      case CommandKind::kTrace: {
        bool found = false;
        JobState state = JobState::kQueued;
        std::string payload;
        {
          std::lock_guard<std::mutex> lock(daemon_->jobs_mu_);
          auto it = daemon_->jobs_.find(command.id);
          if (it != daemon_->jobs_.end()) {
            found = true;
            state = it->second->state;
            if (Finished(state)) payload = it->second->response.trace_text;
          }
        }
        if (!found) {
          QueueReply(NoSuchJob(command.id), /*close_after=*/false);
          return;
        }
        if (!Finished(state)) {
          QueueReply(ErrReplyLine(Status::Unavailable(
                         "job " + std::to_string(command.id) +
                         " is still " + JobStateName(state))),
                     /*close_after=*/false);
          return;
        }
        if (payload.empty()) {
          QueueReply(ErrReplyLine(Status::NotFound(
                         "job " + std::to_string(command.id) +
                         " was not submitted with trace=1")),
                     /*close_after=*/false);
          return;
        }
        QueueReply(
            DataReply(payload, {{"id", std::to_string(command.id)}}),
            /*close_after=*/false);
        return;
      }

      case CommandKind::kDrain: {
        bool park = false;
        {
          std::lock_guard<std::mutex> lock(daemon_->jobs_mu_);
          daemon_->BeginDrainLocked();
          if (daemon_->pending_ > 0) {
            daemon_->drain_waiters_.push_back(
                ResultWaiter{shard_->reactor.get(), weak_from_this()});
            state_ = State::kAwaitDrain;
            park = true;
          }
        }
        if (park) {
          MarkParked();
          SetInterest(0);
          ArmDeadline(daemon_->options_.drain_grace_ms,
                      [this] { OnDrainTimeout(); });
          return;
        }
        QueueReply(DrainedReply(), /*close_after=*/false);
        return;
      }
    }
    QueueReply(ErrReplyLine(Status::Internal("unhandled command kind")),
               /*close_after=*/true);
  }

  void FinishSubmit() {
    Result<JobId> id = daemon_->AdmitJob(
        DecodeSubmit(pending_command_, std::move(payload_)), session_id_);
    payload_.clear();
    if (!id.ok()) {
      // Backpressure or a bad request: answered, session stays up.
      QueueReply(ErrReplyLine(id.status()), /*close_after=*/false);
      return;
    }
    QueueReply(OkReplyLine({{"id", std::to_string(*id)},
                            {"state", "queued"}}),
               /*close_after=*/false);
  }

  /// RESULT WAIT deadline. If the job actually finished in the race
  /// window (wake still in flight), answer with the result; otherwise
  /// `-ERR deadline`.
  void OnResultWaitTimeout() {
    if (state_ != State::kAwaitResult) return;
    MarkUnparked();
    std::shared_ptr<Job> job = std::move(awaited_job_);
    awaited_job_.reset();
    JobState state;
    {
      std::lock_guard<std::mutex> lock(daemon_->jobs_mu_);
      state = job->state;
    }
    if (Finished(state)) {
      QueueReply(ResultReply(job->response), /*close_after=*/false);
    } else {
      QueueReply(ErrReplyLine(Status::DeadlineExceeded(
                     "job " + std::to_string(job->id) + " still " +
                     JobStateName(state) + " after " +
                     std::to_string(daemon_->options_.result_wait_ms) +
                     "ms")),
                 /*close_after=*/false);
    }
    Pump();
  }

  /// DRAIN grace deadline, answered with Drain()'s timeout status.
  void OnDrainTimeout() {
    if (state_ != State::kAwaitDrain) return;
    MarkUnparked();
    int pending;
    {
      std::lock_guard<std::mutex> lock(daemon_->jobs_mu_);
      pending = daemon_->pending_;
    }
    if (pending == 0) {
      QueueReply(DrainedReply(), /*close_after=*/false);
    } else {
      QueueReply(ErrReplyLine(daemon_->DrainTimedOut(pending)),
                 /*close_after=*/false);
    }
    Pump();
  }

  std::string DrainedReply() {
    return OkReplyLine(
        {{"drained", "1"},
         {"jobs_completed", std::to_string(daemon_->jobs_completed())}});
  }

  /// Queues a reply and moves to the write state. A close request is
  /// sticky: once any queued reply asked to close, the session closes
  /// after the flush.
  void QueueReply(std::string reply, bool close_after) {
    sock_->QueueWrite(reply);
    close_after_write_ = close_after_write_ || close_after;
    state_ = State::kWrite;
  }

  void SetInterest(uint32_t events) {
    if (state_ == State::kClosed || events == current_events_) return;
    if (shard_->reactor->SetEvents(sock_->fd(), io_token_, events).ok()) {
      current_events_ = events;
    } else {
      Teardown();
    }
  }

  /// Arms the single per-session deadline timer (one logical wait at a
  /// time: line read, payload read, flush, result wait, or drain wait).
  /// Capturing `this` is safe: every path to destruction runs Teardown,
  /// which cancels the timer on the same loop thread.
  void ArmDeadline(int ms, std::function<void()> fn) {
    CancelDeadline();
    deadline_armed_ = true;
    timer_ = shard_->reactor->ScheduleAt(
        Reactor::Clock::now() + std::chrono::milliseconds(ms),
        [this, fn = std::move(fn)] {
          deadline_armed_ = false;
          timer_ = Reactor::kInvalidTimer;
          fn();
        });
  }

  void CancelDeadline() {
    if (timer_ != Reactor::kInvalidTimer) {
      shard_->reactor->CancelTimer(timer_);
      timer_ = Reactor::kInvalidTimer;
    }
    deadline_armed_ = false;
  }

  /// Parked-session gauge bookkeeping (kAwaitResult / kAwaitDrain). The
  /// flag keeps Add/Sub balanced no matter which of wake, timeout and
  /// teardown runs first.
  void MarkParked() {
    if (parked_) return;
    parked_ = true;
    daemon_->parked_sessions_gauge_->Add(1);
  }
  void MarkUnparked() {
    if (!parked_) return;
    parked_ = false;
    daemon_->parked_sessions_gauge_->Sub(1);
  }

  ConversionDaemon* daemon_;
  ReactorShard* shard_;
  std::unique_ptr<SockBuffer> sock_;
  uint64_t session_id_ = 0;
  bool parked_ = false;  ///< Counted in daemon.parked_sessions.
  uint64_t io_token_ = 0;
  uint32_t current_events_ = 0;
  State state_ = State::kWrite;
  bool close_after_write_ = false;
  bool deadline_armed_ = false;
  Reactor::TimerId timer_ = Reactor::kInvalidTimer;
  WireCommand pending_command_;  ///< The SUBMIT whose payload is read.
  std::string payload_;
  std::shared_ptr<Job> awaited_job_;  ///< Set while in kAwaitResult.
};

void ConversionDaemon::StartEpollSession(ReactorShard* shard,
                                         std::unique_ptr<SockBuffer> sock,
                                         uint64_t session_id) {
  auto session = std::make_shared<EpollSession>(this, shard, std::move(sock),
                                                session_id);
  shard->sessions.insert(session);
  if (!session->Register().ok()) {
    session->Teardown();
    return;
  }
  session->Start();
}

Result<JobId> ConversionDaemon::AdmitJob(ConversionRequest request,
                                         uint64_t session_id) {
  auto job = std::make_shared<Job>();
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    if (draining_ || stopping_.load(std::memory_order_relaxed)) {
      submits_rejected_->Increment();
      return Status::Unavailable("daemon is draining; not accepting jobs");
    }
    if (pending_ >= options_.queue_depth) {
      submits_rejected_->Increment();
      DBPC_LOG_RATELIMITED(LogLevel::kWarn, 1.0, 5.0, "submit_rejected",
                           LogField("session", session_id),
                           LogField("pending", pending_),
                           LogField("queue_depth", options_.queue_depth));
      return Status::Unavailable(
          "queue full (" + std::to_string(pending_) +
          " jobs pending, depth " + std::to_string(options_.queue_depth) +
          "); retry later");
    }
    job->id = next_id_++;
    job->session_id = session_id;
    job->request = std::move(request);
    jobs_[job->id] = job;
    ++pending_;
    ++admitted_;
    queue_depth_gauge_->Add(1);
    // Submitted under jobs_mu_ so that once Drain() sets draining_ (same
    // lock) no further task can slip into the pool — Stop()'s pool Wait
    // then provably covers every admitted job.
    auto admitted = RequestTimeline::Clock::now();
    service_->pool().Submit([this, job, admitted] { RunJob(job, admitted); });
  }
  submits_admitted_->Increment();
  return job->id;
}

void ConversionDaemon::RunJob(std::shared_ptr<Job> job,
                              RequestTimeline::Clock::time_point admitted) {
  RequestTimeline timeline;
  timeline.StampAt(Mark::kAdmitted, admitted);
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    job->state = JobState::kRunning;
  }
  queue_depth_gauge_->Sub(1);
  inflight_gauge_->Add(1);
  ConversionResponse response =
      service_->Convert(job->request, job->id, &timeline);
  // Nothing reads the request or the full PipelineOutcome once the job is
  // published; freeing them here keeps retained results small and keeps
  // their destruction out of EvictOldResultsLocked's jobs_mu_ section.
  job->request = ConversionRequest();
  response.outcome = PipelineOutcome();
  std::vector<ResultWaiter> result_waiters;
  std::vector<ResultWaiter> drain_waiters;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    job->response = std::move(response);
    job->state = job->response.state;
    --pending_;
    ++completed_;
    completed_order_.push_back(job->id);
    EvictOldResultsLocked();
    // Collected under the same lock that published the finished state, so
    // every parked session either sees "finished" at registration time or
    // is in this list — never neither (no lost wakeup).
    auto it = result_waiters_.find(job->id);
    if (it != result_waiters_.end()) {
      result_waiters = std::move(it->second);
      result_waiters_.erase(it);
    }
    if (draining_ && pending_ == 0 && !drain_waiters_.empty()) {
      drain_waiters = std::move(drain_waiters_);
      drain_waiters_.clear();
    }
  }
  inflight_gauge_->Sub(1);
  jobs_completed_counter_->Increment();
  timeline.Stamp(Mark::kPublished);
  RecordDurations(timeline, &metrics(), {kQueueWaitUs, kRequestUs});
  uint64_t total_us = *timeline.Micros(Mark::kAdmitted, Mark::kPublished);
  if (options_.slow_request_ms > 0 &&
      total_us >= static_cast<uint64_t>(options_.slow_request_ms) * 1000) {
    // job->response is stable here: this thread is its only writer and it
    // was published (with the state flip) under jobs_mu_ above.
    DBPC_LOG(LogLevel::kWarn, "slow_request", LogField("job", job->id),
             LogField("session", job->session_id),
             LogField("program", job->response.program_name),
             LogField("queue_wait_us",
                      *timeline.Micros(Mark::kAdmitted, Mark::kPickup)),
             LogField("convert_us", job->response.latency_us),
             LogField("total_us", total_us),
             LogField("outcome", JobStateName(job->state)),
             LogField("accepted", job->response.accepted));
  }
  jobs_cv_.notify_all();
  for (ResultWaiter& waiter : result_waiters) {
    waiter.reactor->Post([session = std::move(waiter.session), job] {
      if (std::shared_ptr<EpollSession> locked = session.lock()) {
        locked->WakeWithResult(job);
      }
    });
  }
  for (ResultWaiter& waiter : drain_waiters) {
    waiter.reactor->Post([session = std::move(waiter.session)] {
      if (std::shared_ptr<EpollSession> locked = session.lock()) {
        locked->WakeDrained();
      }
    });
  }
}

void ConversionDaemon::EvictOldResultsLocked() {
  while (completed_order_.size() >
         static_cast<size_t>(options_.max_retained_results)) {
    jobs_.erase(completed_order_.front());
    completed_order_.pop_front();
  }
}

void ConversionDaemon::BeginDrainLocked() {
  if (draining_) return;
  draining_ = true;
  drains_->Increment();
  DBPC_LOG(LogLevel::kInfo, "drain_started", LogField("pending", pending_));
}

Status ConversionDaemon::DrainTimedOut(int pending) const {
  return Status::DeadlineExceeded(
      "drain grace of " + std::to_string(options_.drain_grace_ms) +
      "ms elapsed with " + std::to_string(pending) + " jobs still pending");
}

Status ConversionDaemon::Drain() {
  std::unique_lock<std::mutex> lock(jobs_mu_);
  BeginDrainLocked();
  bool drained = jobs_cv_.wait_for(
      lock, std::chrono::milliseconds(options_.drain_grace_ms),
      [this] { return pending_ == 0; });
  return drained ? Status::OK() : DrainTimedOut(pending_);
}

bool ConversionDaemon::draining() const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  return draining_;
}

uint64_t ConversionDaemon::jobs_admitted() const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  return admitted_;
}

uint64_t ConversionDaemon::jobs_completed() const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  return completed_;
}

int ConversionDaemon::active_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return active_sessions_;
}

void ConversionDaemon::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // Second Stop (e.g. destructor after an explicit Stop): the first one
    // already joined everything.
    return;
  }
  if (service_ == nullptr) {
    // Start() failed before the service existed: no metric handles, no
    // listener, no threads — Drain()/pool().Wait() would dereference null.
    return;
  }
  // Stop admitting jobs and wait for admitted ones (best effort; Stop
  // proceeds even if the grace period elapses).
  Drain();
  // Even after a timed-out drain, every task already in the pool must
  // finish before this object's members go away: RunJob touches the job
  // table and metric handles.
  service_->pool().Wait();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // The admin endpoint outlives the drain window (so /readyz is scrapeable
  // as 503 while jobs finish) but must stop before the reactors: its
  // teardown is posted to shard 0's loop.
  if (admin_) admin_->Stop();
  // Sweep every remaining session on its own loop thread, then join the
  // reactors. The sweep is posted after the accept thread
  // joined and the pool drained, so it runs after every queued session
  // start and every queued result/drain wake (FIFO post queue) — nothing
  // can resurrect a session behind the sweep's back.
  for (std::unique_ptr<ReactorShard>& shard : shards_) {
    ReactorShard* raw = shard.get();
    raw->reactor->Post([raw] {
      std::vector<std::shared_ptr<EpollSession>> sessions(
          raw->sessions.begin(), raw->sessions.end());
      for (const std::shared_ptr<EpollSession>& session : sessions) {
        session->Teardown();
      }
    });
  }
  for (std::unique_ptr<ReactorShard>& shard : shards_) {
    shard->reactor->Stop();
  }
  DBPC_LOG(LogLevel::kInfo, "daemon_stopped",
           LogField("jobs_admitted", jobs_admitted()),
           LogField("jobs_completed", jobs_completed()));
}

}  // namespace dbpc
