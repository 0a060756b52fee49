#include "serve_io.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <fstream>
#include <set>
#include <thread>

namespace perfbench {
namespace {

/// Live daemon pids, for KillDaemons on a fatal error.
std::set<pid_t>& LivePids() {
  static std::set<pid_t> pids;
  return pids;
}

bool WaitExit(pid_t pid, int timeout_ms) {
  for (int waited = 0; waited <= timeout_ms; waited += 5) {
    int status = 0;
    pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

int ConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die(std::string("connect to dbpcd: ") + std::strerror(errno));
  }
  dbpc::EnableTcpNoDelay(fd);
  return fd;
}

double LatencyUs(const PhaseResult& phase, const RequestRecord& r) {
  return static_cast<double>(r.ok ? r.done_ns - r.due_ns
                                  : phase.end_ns - phase.start_ns) /
         1e3;
}

/// Keeps the daemon's cores out of idle while a phase runs. On a virtual
/// machine an idle vCPU halts, and waking it costs the host's scheduling
/// latency: on the reference host that made open-loop latencies differ
/// 2-5x from run to run. The spinners run at SCHED_IDLE, so the kernel
/// preempts them the moment a daemon thread becomes runnable; they only
/// fill time in which the core would otherwise halt.
class CoreWaker {
 public:
  CoreWaker() {
    const long cores = ::sysconf(_SC_NPROCESSORS_ONLN);
    if (cores < 3) return;
    for (long c = 1; c < cores; ++c) {
      threads_.emplace_back([this, c] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        ::sched_setaffinity(0, sizeof(one), &one);
        sched_param param{};
        ::sched_setscheduler(0, SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
      });
    }
  }
  ~CoreWaker() {
    stop_ = true;
    for (std::thread& t : threads_) t.join();
  }
  CoreWaker(const CoreWaker&) = delete;
  CoreWaker& operator=(const CoreWaker&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace

void KillDaemons() {
  for (pid_t pid : LivePids()) {
    ::kill(pid, SIGKILL);
    WaitExit(pid, 5000);
  }
  LivePids().clear();
}

DaemonProcess::DaemonProcess(const DaemonConfig& config) {
  static int starts = 0;
  const std::string port_file =
      config.workdir + "/dbpcd-" + std::to_string(::getpid()) + "-" +
      std::to_string(starts++) + ".port";
  const std::string log_file = config.workdir + "/dbpcd.log";
  ::unlink(port_file.c_str());
  std::vector<std::string> args = {
      config.binary, "--schema", config.schema,
      "--plan", config.plan, "--port", "0", "--port-file", port_file,
      "--jobs", std::to_string(config.jobs),
      "--io-threads", std::to_string(config.io_threads)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  // The daemon gets every core but the first, which the load generator
  // keeps for itself (LoadGenerator::Run), so the two never trade places.
  const long cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t daemon_cores;
  CPU_ZERO(&daemon_cores);
  for (long c = 1; c < cores; ++c) CPU_SET(c, &daemon_cores);

  pid_ = ::fork();
  if (pid_ < 0) Die(std::string("fork: ") + std::strerror(errno));
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec. The daemon dies with
    // the benchmark even if the benchmark is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (cores >= 3) ::sched_setaffinity(0, sizeof(daemon_cores), &daemon_cores);
    int log = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      ::dup2(log, 1);
      ::dup2(log, 2);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  LivePids().insert(pid_);
  for (int waited = 0;; waited += 2) {
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0) {
      port_ = port;
      break;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      LivePids().erase(pid_);
      pid_ = -1;
      Die("dbpcd exited during start-up; see " + log_file);
    }
    if (waited > 20000) Die("dbpcd did not publish its port");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::unlink(port_file.c_str());
}

DaemonProcess::~DaemonProcess() { Stop(); }

void DaemonProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  if (!WaitExit(pid_, 60000)) {
    ::kill(pid_, SIGKILL);
    WaitExit(pid_, 5000);
  }
  LivePids().erase(pid_);
  pid_ = -1;
}

double DaemonProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  Die("cannot read the daemon's VmHWM");
}

MetricsData DaemonProcess::Metrics() const {
  std::unique_ptr<dbpc::DaemonClient> client =
      Must(dbpc::DaemonClient::Connect("127.0.0.1", port_), "connect");
  MetricsData data = ParseMetricsJson(Must(client->Metrics(), "METRICS"));
  Check(client->Quit(), "QUIT");
  return data;
}

uint64_t PhaseResult::succeeded() const {
  uint64_t n = 0;
  for (const RequestRecord& r : requests) n += r.ok ? 1 : 0;
  return n;
}

uint64_t PhaseResult::backpressured() const {
  uint64_t n = 0;
  for (const RequestRecord& r : requests) n += r.backpressured ? 1 : 0;
  return n;
}

struct LoadGenerator::Conn {
  enum class Expect { kSubmit, kResult };
  enum class ReadState { kLine, kPayload, kTerminator };

  std::unique_ptr<dbpc::SockBuffer> sock;
  /// Replies still owed on this connection, in command order.
  std::deque<std::pair<Expect, size_t>> owed;
  int in_flight = 0;
  ReadState state = ReadState::kLine;
  dbpc::WireReply reply;
  std::string payload;
};

LoadGenerator::LoadGenerator(int port, int connections) {
  for (int i = 0; i < connections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->sock = std::make_unique<dbpc::SockBuffer>(ConnectLoopback(port),
                                                    dbpc::SockBuffer::Limits{});
    dbpc::WireReply greeting = Must(
        dbpc::ParseReplyLine(Must(conn->sock->ReadLine(), "greeting")),
        "greeting");
    if (!greeting.ok || greeting.fields["proto"] != "1") {
      Die("dbpcd refused the session or speaks another protocol");
    }
    conns_.push_back(std::move(conn));
  }
}

LoadGenerator::~LoadGenerator() = default;

PhaseResult LoadGenerator::ClosedLoop(const PayloadFn& make,
                                      uint64_t first_index, double seconds,
                                      int depth, uint64_t max_requests) {
  return Run(make, first_index, seconds, depth, max_requests, 0);
}

PhaseResult LoadGenerator::OpenLoop(const PayloadFn& make,
                                    uint64_t first_index, double rate,
                                    double seconds) {
  return Run(make, first_index, seconds, 0, UINT64_MAX, rate);
}

PhaseResult LoadGenerator::Run(const PayloadFn& make, uint64_t first_index,
                               double seconds, int depth,
                               uint64_t max_requests, double rate) {
  PhaseResult phase;
  // The generator runs on the first core (the daemon has the others) and
  // polls without sleeping, so its own wake-ups add nothing to what it
  // measures.
  cpu_set_t all_cores, first_core;
  ::sched_getaffinity(0, sizeof(all_cores), &all_cores);
  CPU_ZERO(&first_core);
  CPU_SET(0, &first_core);
  const bool pin = ::sysconf(_SC_NPROCESSORS_ONLN) >= 3;
  if (pin) ::sched_setaffinity(0, sizeof(first_core), &first_core);
  CoreWaker waker;
  const bool open = rate > 0;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t interval = open ? static_cast<int64_t>(1e9 / rate) : 0;
  // Requests still unanswered this long after the phase ends are dropped.
  const int64_t give_up = end + 30'000'000'000LL;
  const size_t n_conns = conns_.size();
  uint64_t issued = 0;
  int in_flight = 0;

  auto flush = [](Conn& c) {
    Check(c.sock->FlushQueued().status(), "write to dbpcd");
  };
  auto issue = [&](Conn& c, int64_t due, int64_t now) {
    const uint64_t index = first_index + issued++;
    Payload p = make(index);
    dbpc::ConversionRequest request;
    request.name = p.name;
    request.source = std::move(p.source);
    request.trace = p.trace;
    RequestRecord record;
    record.index = index;
    record.due_ns = due;
    record.sent_ns = now;
    phase.requests.push_back(record);
    c.sock->QueueWrite(dbpc::EncodeSubmit(request));
    c.owed.emplace_back(Conn::Expect::kSubmit, phase.requests.size() - 1);
    ++c.in_flight;
    ++in_flight;
    flush(c);
  };
  auto finish = [&](Conn& c, RequestRecord& r, int64_t now) {
    r.done_ns = now;
    --c.in_flight;
    --in_flight;
  };
  // Consumes every complete reply buffered on `c`.
  auto drain_replies = [&](Conn& c) {
    while (true) {
      if (c.state == Conn::ReadState::kLine) {
        std::string line;
        auto step = c.sock->TryReadLine(&line);
        Check(step.status(), "read from dbpcd");
        if (*step == dbpc::SockBuffer::IoStep::kNeedMore) return;
        c.reply = Must(dbpc::ParseReplyLine(line), "reply line");
        c.state = c.reply.has_payload ? Conn::ReadState::kPayload
                                      : Conn::ReadState::kLine;
        if (c.reply.has_payload) continue;
      } else if (c.state == Conn::ReadState::kPayload) {
        auto step = c.sock->TryReadExact(c.reply.payload_bytes, &c.payload);
        Check(step.status(), "read from dbpcd");
        if (*step == dbpc::SockBuffer::IoStep::kNeedMore) return;
        c.state = Conn::ReadState::kTerminator;
        continue;
      } else {
        std::string line;
        auto step = c.sock->TryReadLine(&line);
        Check(step.status(), "read from dbpcd");
        if (*step == dbpc::SockBuffer::IoStep::kNeedMore) return;
        c.state = Conn::ReadState::kLine;
      }
      // One whole reply is in c.reply (+ c.payload).
      const int64_t now = NowNs();
      if (c.owed.empty()) Die("dbpcd sent a reply nobody asked for");
      auto [expect, slot] = c.owed.front();
      c.owed.pop_front();
      RequestRecord& r = phase.requests[slot];
      if (expect == Conn::Expect::kSubmit) {
        if (!c.reply.ok) {
          r.backpressured = c.reply.code == dbpc::StatusCode::kUnavailable;
          r.error = "SUBMIT: " + c.reply.message;
          finish(c, r, now);
          continue;
        }
        r.acked_ns = now;
        r.result_ns = now;
        c.sock->QueueWrite("RESULT " + c.reply.fields["id"] + " WAIT\n");
        c.owed.emplace_back(Conn::Expect::kResult, slot);
        flush(c);
      } else {
        if (c.reply.ok && c.reply.has_payload) {
          auto response = dbpc::DecodeResponse(c.reply, c.payload);
          if (response.ok()) {
            r.ok = true;
            r.print = Fingerprint(*response);
          } else {
            r.error = "RESULT: " + response.status().ToString();
          }
        } else {
          r.error = "RESULT: " + (c.reply.ok ? std::string("no payload")
                                             : c.reply.message);
        }
        finish(c, r, now);
      }
      c.payload.clear();
    }
  };

  std::vector<pollfd> fds(n_conns);
  size_t next_conn = 0;
  while (true) {
    int64_t now = NowNs();
    const bool sending = now < end && issued < max_requests;
    if (open) {
      while (sending && start + static_cast<int64_t>(issued) * interval <= now &&
             issued < max_requests) {
        const int64_t due = start + static_cast<int64_t>(issued) * interval;
        issue(*conns_[next_conn], due, now);
        next_conn = (next_conn + 1) % n_conns;
        now = NowNs();
        if (now >= end) break;
      }
    } else if (sending) {
      for (auto& c : conns_) {
        while (c->in_flight < depth && issued < max_requests) {
          issue(*c, now, now);
          now = NowNs();
        }
      }
    }
    if (!sending && in_flight == 0) break;
    if (now > give_up) break;

    for (size_t i = 0; i < n_conns; ++i) {
      fds[i].fd = conns_[i]->sock->fd();
      fds[i].events = POLLIN;
      if (conns_[i]->sock->queued_write_bytes() > 0) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    int ready = ::poll(fds.data(), n_conns, 0);
    if (ready < 0 && errno != EINTR) Die("poll failed");
    for (size_t i = 0; i < n_conns && ready > 0; ++i) {
      Conn& c = *conns_[i];
      if (fds[i].revents & POLLOUT) flush(c);
      if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
        auto fill = c.sock->FillOnce();
        if (!fill.ok()) Die("dbpcd closed a connection: " + fill.status().ToString());
        drain_replies(c);
      }
    }
  }
  for (RequestRecord& r : phase.requests) {
    if (r.done_ns == 0) r.error = "no reply 30 s after the phase ended";
  }
  if (pin) ::sched_setaffinity(0, sizeof(all_cores), &all_cores);
  phase.start_ns = start;
  phase.end_ns = NowNs();
  return phase;
}

std::vector<double> WindowRates(const PhaseResult& phase, int windows) {
  std::vector<uint64_t> done(windows, 0);
  const int64_t span = phase.requests.empty()
                           ? 1
                           : std::max<int64_t>(1, phase.requests.back().sent_ns -
                                                      phase.start_ns);
  for (const RequestRecord& r : phase.requests) {
    if (!r.ok || r.done_ns > phase.start_ns + span) continue;
    int w = static_cast<int>(static_cast<double>(r.done_ns - phase.start_ns) /
                             static_cast<double>(span) * windows);
    if (w >= 0 && w < windows) ++done[w];
  }
  std::vector<double> rates;
  const double window_s = static_cast<double>(span) * 1e-9 / windows;
  for (uint64_t n : done) rates.push_back(static_cast<double>(n) / window_s);
  return rates;
}

std::vector<double> LatenciesUs(const PhaseResult& phase) {
  std::vector<double> out;
  for (const RequestRecord& r : phase.requests) {
    out.push_back(LatencyUs(phase, r));
  }
  return out;
}

double WindowedLatencyUs(const PhaseResult& phase, double p, int windows) {
  std::vector<std::vector<double>> slices(windows);
  int64_t last_due = phase.start_ns;
  for (const RequestRecord& r : phase.requests) {
    last_due = std::max(last_due, r.due_ns);
  }
  const double span =
      static_cast<double>(std::max<int64_t>(1, last_due - phase.start_ns + 1));
  for (const RequestRecord& r : phase.requests) {
    int w = static_cast<int>(static_cast<double>(r.due_ns - phase.start_ns) /
                             span * windows);
    slices[std::clamp(w, 0, windows - 1)].push_back(LatencyUs(phase, r));
  }
  std::vector<double> per_slice;
  for (std::vector<double>& slice : slices) {
    if (!slice.empty()) per_slice.push_back(Percentile(std::move(slice), p));
  }
  return Median(std::move(per_slice));
}

std::vector<double> LatenessUs(const PhaseResult& phase) {
  std::vector<double> out;
  for (const RequestRecord& r : phase.requests) {
    out.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e3);
  }
  return out;
}

}  // namespace perfbench
