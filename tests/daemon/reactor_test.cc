#include "daemon/reactor.h"

#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/sock_buffer.h"
#include "testing/daemon_fixture.h"

namespace dbpc {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Reactor unit tests: the event-loop primitives the epoll sessions build on.
// ---------------------------------------------------------------------------

std::unique_ptr<Reactor> MakeReactor() {
  Result<std::unique_ptr<Reactor>> reactor = Reactor::Create("reactor-test");
  EXPECT_TRUE(reactor.ok()) << reactor.status();
  return std::move(reactor).value();
}

TEST(ReactorTest, PostedWorkRunsInOrderOnTheLoopThread) {
  std::unique_ptr<Reactor> reactor = MakeReactor();
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> order;
  bool all_on_loop_thread = true;
  for (int i = 0; i < 5; ++i) {
    reactor->Post([&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      if (!reactor->on_loop_thread()) all_on_loop_thread = false;
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return order.size() == 5; }));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(all_on_loop_thread);
  reactor->Stop();
}

TEST(ReactorTest, StopDrainsWorkPostedBeforeIt) {
  std::unique_ptr<Reactor> reactor = MakeReactor();
  std::atomic<bool> ran{false};
  reactor->Post([&ran] { ran.store(true); });
  // No sleep: Stop must guarantee the happened-before Post executes even
  // if the loop never woke in between.
  reactor->Stop();
  EXPECT_TRUE(ran.load());
  reactor->Stop();  // idempotent
}

TEST(ReactorTest, TimersFireInDeadlineOrderAndCancelHolds) {
  std::unique_ptr<Reactor> reactor = MakeReactor();
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> fired;
  reactor->Post([&] {
    Clock::time_point now = Clock::now();
    reactor->ScheduleAt(now + std::chrono::milliseconds(60), [&] {
      std::lock_guard<std::mutex> lock(mu);
      fired.push_back(1);
      cv.notify_all();
    });
    reactor->ScheduleAt(now + std::chrono::milliseconds(10), [&] {
      std::lock_guard<std::mutex> lock(mu);
      fired.push_back(2);
      cv.notify_all();
    });
    Reactor::TimerId cancelled =
        reactor->ScheduleAt(now + std::chrono::milliseconds(30), [&] {
          std::lock_guard<std::mutex> lock(mu);
          fired.push_back(3);
          cv.notify_all();
        });
    reactor->CancelTimer(cancelled);
  });
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return fired.size() == 2; }));
  lock.unlock();
  // Give the cancelled timer's original deadline time to pass, then make
  // sure the tombstone never fired.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  lock.lock();
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
  reactor->Stop();
}

TEST(ReactorTest, IoDispatchParkAndRemove) {
  std::unique_ptr<Reactor> reactor = MakeReactor();
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  std::mutex mu;
  std::condition_variable cv;
  int events_seen = 0;
  uint64_t token = 0;
  auto drain = [&](int fd) {
    char chunk[64];
    while (::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT) > 0) {
    }
  };
  reactor->Post([&] {
    Result<uint64_t> added =
        reactor->Add(fds[0], EPOLLIN, [&, fd = fds[0]](uint32_t) {
          drain(fd);
          std::lock_guard<std::mutex> lock(mu);
          ++events_seen;
          cv.notify_all();
        });
    ASSERT_TRUE(added.ok()) << added.status();
    token = *added;
  });

  auto wait_for = [&](int n) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return events_seen >= n; });
  };
  ASSERT_EQ(::send(fds[1], "x", 1, 0), 1);
  ASSERT_TRUE(wait_for(1));

  // Parked (interest mask 0): readiness no longer dispatches.
  reactor->Post([&] {
    ASSERT_TRUE(reactor->SetEvents(fds[0], token, 0).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_EQ(::send(fds[1], "y", 1, 0), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(events_seen, 1);
  }

  // Re-armed: the still-buffered byte fires immediately (level-triggered).
  reactor->Post([&] {
    ASSERT_TRUE(reactor->SetEvents(fds[0], token, EPOLLIN).ok());
  });
  ASSERT_TRUE(wait_for(2));

  // Removed: no dispatch, and a stale token is a harmless no-op.
  reactor->Post([&] {
    reactor->Remove(fds[0], token);
    reactor->Remove(fds[0], token);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_EQ(::send(fds[1], "z", 1, 0), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(events_seen, 2);
  }
  reactor->Stop();
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// Epoll session state machine: interleavings a blocking session loop never
// sees (partial reads re-entered from separate wakeups, deadlines firing
// mid-state, parked sessions woken by worker completions).
// ---------------------------------------------------------------------------

using Fixture = testing::DaemonFixture;
using testing::kSeniorsCpl;
using testing::TestOptions;

/// A raw TCP client below the DaemonClient abstraction: the tests need
/// byte-level control over framing (partial commands, stalled payloads).
std::unique_ptr<SockBuffer> RawConnect(int port) {
  Result<int> fd = ConnectTcp("127.0.0.1", port, /*timeout_ms=*/-1);
  EXPECT_TRUE(fd.ok()) << fd.status();
  return std::make_unique<SockBuffer>(
      fd.value_or(-1), SockBuffer::Limits{/*read_timeout_ms=*/8000,
                                          /*write_timeout_ms=*/8000,
                                          /*max_line_bytes=*/1 << 16});
}

TEST(EpollSessionTest, CommandAndPayloadSplitAcrossManyWakeups) {
  Fixture fixture(TestOptions());
  std::unique_ptr<SockBuffer> sock = RawConnect(fixture.daemon->port());
  ASSERT_TRUE(sock->ReadLine().ok());  // greeting

  // The SUBMIT line, its counted payload, and the terminator arrive in
  // seven separate TCP segments with pauses between them, so the session
  // re-enters kReadCommand / kReadPayload / kReadTerminator from distinct
  // epoll wakeups.
  std::string payload = kSeniorsCpl;
  std::string head = "SUBMIT " + std::to_string(payload.size()) + "\n";
  size_t half = payload.size() / 2;
  const std::string segments[] = {
      head.substr(0, 3),  head.substr(3),          payload.substr(0, 5),
      payload.substr(5, half - 5), payload.substr(half), "\r",
      "\n"};
  for (const std::string& segment : segments) {
    ASSERT_TRUE(sock->WriteAll(segment).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Result<std::string> reply = sock->ReadLine();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->rfind("+OK id=", 0), 0u) << *reply;
}

TEST(EpollSessionTest, PipelinedCommandsAreAllAnsweredInOrder) {
  Fixture fixture(TestOptions());
  std::unique_ptr<SockBuffer> sock = RawConnect(fixture.daemon->port());
  ASSERT_TRUE(sock->ReadLine().ok());  // greeting

  // One write, four commands: the session must drain its input buffer
  // iteratively (no lost commands, no re-read of consumed bytes).
  ASSERT_TRUE(sock->WriteAll("PING\nPING\nSTATUS 999\nPING\n").ok());
  for (const char* expect :
       {"+OK pong", "+OK pong", "-ERR not-found", "+OK pong"}) {
    Result<std::string> reply = sock->ReadLine();
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->rfind(expect, 0), 0u) << *reply;
  }
}

TEST(EpollSessionTest, IdleDeadlineFiresMidCommandLine) {
  DaemonOptions options = TestOptions();
  options.read_timeout_ms = 200;
  Fixture fixture(std::move(options));
  std::unique_ptr<SockBuffer> sock = RawConnect(fixture.daemon->port());
  ASSERT_TRUE(sock->ReadLine().ok());  // greeting

  // Half a command, then silence: the timer-heap deadline must fire and
  // close the session with a structured -ERR.
  ASSERT_TRUE(sock->WriteAll("PIN").ok());
  Result<std::string> reply = sock->ReadLine();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->rfind("-ERR deadline idle timeout", 0), 0u) << *reply;
  Result<std::string> eof = sock->ReadLine();
  EXPECT_FALSE(eof.ok());
}

TEST(EpollSessionTest, SlowLorisPayloadIsCutOffAtTheDeadline) {
  DaemonOptions options = TestOptions();
  options.read_timeout_ms = 300;
  Fixture fixture(std::move(options));
  std::unique_ptr<SockBuffer> sock = RawConnect(fixture.daemon->port());
  ASSERT_TRUE(sock->ReadLine().ok());  // greeting

  // Promise 5000 payload bytes and drip one byte per 50ms. Partial fills
  // must NOT re-arm the deadline — the whole payload wait shares one
  // deadline, so the session closes at ~read_timeout_ms.
  ASSERT_TRUE(sock->WriteAll("SUBMIT 5000\n").ok());
  Clock::time_point start = Clock::now();
  std::atomic<bool> done{false};
  std::thread dripper([&] {
    while (!done.load()) {
      if (!sock->WriteAll("x").ok()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  Result<std::string> reply = sock->ReadLine();
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        Clock::now() - start)
                        .count();
  done.store(true);
  dripper.join();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->rfind("-ERR deadline payload not received in time", 0), 0u)
      << *reply;
  EXPECT_LT(elapsed_ms, 1500);
}

TEST(EpollSessionTest, DrainWakesParkedResultWaitSessions) {
  DaemonOptions options = TestOptions();
  options.service.jobs = 1;
  std::atomic<bool> release{false};
  options.service.pipeline_override =
      [&release](const Program& program) -> Result<PipelineOutcome> {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    PipelineOutcome outcome;
    outcome.accepted = true;
    outcome.conversion.converted.name = program.name;
    return outcome;
  };
  Fixture fixture(std::move(options));

  Result<std::unique_ptr<DaemonClient>> waiter =
      DaemonClient::Connect("127.0.0.1", fixture.daemon->port());
  ASSERT_TRUE(waiter.ok()) << waiter.status();
  ConversionRequest request;
  request.source = kSeniorsCpl;
  Result<JobId> id = (*waiter)->Submit(request);
  ASSERT_TRUE(id.ok()) << id.status();

  // Session 1 parks in RESULT WAIT on the (blocked) job; session 2 parks
  // in DRAIN behind the same job. Both are asleep with interest mask 0 —
  // no thread is burned on either. Releasing the worker must wake both.
  Result<ConversionResponse> fetched = Status::Internal("unset");
  std::thread wait_thread(
      [&] { fetched = (*waiter)->Fetch(*id, /*wait=*/true); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Result<std::unique_ptr<DaemonClient>> controller =
      DaemonClient::Connect("127.0.0.1", fixture.daemon->port());
  ASSERT_TRUE(controller.ok()) << controller.status();
  Status drained = Status::Internal("unset");
  std::thread drain_thread([&] { drained = (*controller)->Drain(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  release.store(true);
  wait_thread.join();
  drain_thread.join();
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_TRUE(fetched->accepted);
  EXPECT_TRUE(drained.ok()) << drained;
  EXPECT_EQ(fixture.daemon->jobs_admitted(),
            fixture.daemon->jobs_completed());
}

// ---------------------------------------------------------------------------
// Golden transcript: the proto=1 wire contract, pinned byte for byte.
// ---------------------------------------------------------------------------

/// Runs a fixed pipelined script against a fresh daemon and returns every
/// byte the server sent, as newline-joined lines, with the one legitimately
/// nondeterministic token (latency_us) normalized.
std::string Transcript() {
  Fixture fixture(TestOptions());
  std::unique_ptr<SockBuffer> sock = RawConnect(fixture.daemon->port());

  std::string payload = kSeniorsCpl;
  std::string script;
  script += "PING\n";
  script += "FROBNICATE\n";
  script += "STATUS\n";
  script += "STATUS 424242\n";
  script += "SUBMIT " + std::to_string(payload.size()) + "\n" + payload + "\n";
  script += "RESULT 1 WAIT\n";
  script += "RESULT 999\n";
  script += "TRACE 1\n";
  script += "DRAIN\n";
  script += "QUIT\n";
  EXPECT_TRUE(sock->WriteAll(script).ok());

  std::string transcript;
  while (true) {
    Result<std::string> line = sock->ReadLine();
    if (!line.ok()) break;  // QUIT closed the session
    transcript += *line;
    transcript += '\n';
  }
  return std::regex_replace(transcript, std::regex("latency_us=[0-9]+"),
                            "latency_us=N");
}

TEST(EpollSessionTest, TranscriptMatchesGolden) {
  // The golden file was recorded when a second, thread-per-connection
  // implementation of the protocol still existed, and both produced these
  // exact bytes. Any change to it is a change of the wire contract and
  // belongs in DAEMON.md too.
  const std::string path =
      std::string(DBPC_TESTDATA_DIR) + "/proto1_transcript.txt";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "cannot open " << path;
  std::stringstream golden;
  golden << in.rdbuf();
  std::string live = Transcript();
  // Sanity: the script actually exercised the interesting replies.
  EXPECT_NE(live.find("+OK pong"), std::string::npos);
  EXPECT_NE(live.find("-ERR bad-request"), std::string::npos);
  EXPECT_NE(live.find("+OK id=1"), std::string::npos);
  EXPECT_NE(live.find("== SOURCE =="), std::string::npos);
  EXPECT_NE(live.find("drained=1"), std::string::npos);
  EXPECT_EQ(live, golden.str()) << "--- live ---\n"
                                << live << "--- golden (" << path
                                << ") ---\n"
                                << golden.str();
}

// ---------------------------------------------------------------------------
// Scale: 1000 concurrent sessions on the reactor, multiplexed onto a few
// client threads so the test measures the server, not the test host.
// ---------------------------------------------------------------------------

TEST(EpollSessionTest, ThousandConcurrentSessionsAllComplete) {
  // ~1000 client fds + ~1000 daemon fds: raise the soft RLIMIT_NOFILE if
  // the environment allows, otherwise skip rather than fail spuriously.
  constexpr rlim_t kNeeded = 2600;
  struct rlimit rl;
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &rl), 0);
  if (rl.rlim_cur < kNeeded) {
    rl.rlim_cur = std::min<rlim_t>(rl.rlim_max, kNeeded);
    setrlimit(RLIMIT_NOFILE, &rl);
    ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &rl), 0);
    if (rl.rlim_cur < kNeeded) {
      GTEST_SKIP() << "RLIMIT_NOFILE too low for 1000 sessions";
    }
  }

  constexpr int kSessions = 1000;
  constexpr int kThreads = 8;
  DaemonOptions options = TestOptions();
  options.max_connections = kSessions + 16;
  options.queue_depth = kSessions + 64;
  options.result_wait_ms = 20000;
  options.read_timeout_ms = 30000;
  options.write_timeout_ms = 30000;
  Fixture fixture(std::move(options));

  // Phase 1: every session connects and submits one job, so all 1000 are
  // open simultaneously. Phase 2: every session fetches its result.
  std::atomic<int> connected{0}, completed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      int per_thread = kSessions / kThreads;
      std::vector<std::unique_ptr<DaemonClient>> clients;
      std::vector<JobId> ids;
      for (int i = 0; i < per_thread; ++i) {
        Result<std::unique_ptr<DaemonClient>> client =
            DaemonClient::Connect("127.0.0.1", fixture.daemon->port());
        if (!client.ok()) continue;
        ++connected;
        ConversionRequest request;
        request.source = kSeniorsCpl;
        Result<JobId> id = (*client)->Submit(request);
        if (!id.ok()) continue;
        clients.push_back(std::move(*client));
        ids.push_back(*id);
      }
      for (size_t i = 0; i < clients.size(); ++i) {
        Result<ConversionResponse> response =
            clients[i]->Fetch(ids[i], /*wait=*/true);
        if (response.ok() && response->accepted) ++completed;
        clients[i]->Quit();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(connected.load(), kSessions);
  EXPECT_EQ(completed.load(), kSessions);
  EXPECT_EQ(fixture.daemon->jobs_admitted(),
            fixture.daemon->jobs_completed());
}

}  // namespace
}  // namespace dbpc
