#include "daemon/load.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "daemon/protocol.h"
#include "daemon/sock_buffer.h"
#include "testing/daemon_fixture.h"

namespace dbpc {
namespace {

using Fixture = testing::DaemonFixture;
using testing::TestOptions;

void ExpectEveryRequestAccountedFor(const LoadReport& report) {
  EXPECT_EQ(report.submitted, report.accepted + report.refused +
                                  report.failed + report.backpressure +
                                  report.dropped);
  EXPECT_EQ(report.completed(),
            report.accepted + report.refused + report.failed);
  EXPECT_TRUE(std::is_sorted(report.latencies_us.begin(),
                             report.latencies_us.end()));
}

/// A pipeline that takes `ms` per conversion, so a test controls how fast
/// the daemon can serve.
std::function<Result<PipelineOutcome>(const Program&)> SleepingPipeline(
    int ms) {
  return [ms](const Program& program) -> Result<PipelineOutcome> {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    PipelineOutcome outcome;
    outcome.accepted = true;
    outcome.conversion.converted.name = program.name;
    return outcome;
  };
}

TEST(LoadTest, AccountsForEveryRequestInClosedAndOpenLoop) {
  Fixture fixture(TestOptions());
  LoadOptions options;
  options.port = fixture.daemon->port();
  // More sessions than client threads: some threads own several sessions.
  options.connections = kLoadMaxThreads + 4;
  options.duration_ms = 300;
  LoadReport closed = RunLoad(options);
  ExpectEveryRequestAccountedFor(closed);
  EXPECT_GT(closed.accepted, 0u);
  EXPECT_EQ(closed.dropped, 0u);
  EXPECT_EQ(closed.connect_errors, 0u);
  EXPECT_EQ(closed.idle_sessions, 0);

  options.connections = 4;
  options.rps = 200;
  options.open_loop = true;
  LoadReport open = RunLoad(options);
  ExpectEveryRequestAccountedFor(open);
  EXPECT_GT(open.accepted, 0u);
  EXPECT_EQ(open.dropped, 0u);
  // 200/s over 0.3 s: the schedule, not the sessions, sets the count.
  EXPECT_LE(open.submitted, 61u);
}

TEST(LoadTest, MalformedPayloadsLandInFailed) {
  Fixture fixture(TestOptions());
  LoadOptions options;
  options.port = fixture.daemon->port();
  options.connections = 2;
  options.duration_ms = 300;
  options.malformed_pct = 50;
  LoadReport report = RunLoad(options);
  ExpectEveryRequestAccountedFor(report);
  EXPECT_GT(report.failed, 0u);
  EXPECT_GT(report.accepted, 0u);
  EXPECT_EQ(report.dropped, 0u);
}

TEST(LoadTest, BackpressureIsCountedAndNothingIsDropped) {
  DaemonOptions daemon_options = TestOptions();
  daemon_options.queue_depth = 1;
  daemon_options.service.jobs = 1;
  daemon_options.service.pipeline_override = SleepingPipeline(5);
  Fixture fixture(std::move(daemon_options));
  LoadOptions options;
  options.port = fixture.daemon->port();
  options.connections = 4;
  options.duration_ms = 300;
  LoadReport report = RunLoad(options);
  ExpectEveryRequestAccountedFor(report);
  EXPECT_GT(report.backpressure, 0u);
  EXPECT_GT(report.accepted, 0u);
  EXPECT_EQ(report.dropped, 0u);
}

TEST(LoadTest, DeadConnectionIsDroppedNotBackpressure) {
  // A listener that greets like dbpcd and then closes the socket: the
  // session's first SUBMIT fails in transport with kUnavailable, the same
  // code as `-ERR unavailable` backpressure.
  int port = 0;
  Result<int> listener = ListenTcp("127.0.0.1", 0, 4, "listen", &port);
  ASSERT_TRUE(listener.ok()) << listener.status();
  std::thread server([fd = *listener] {
    int session = ::accept(fd, nullptr, nullptr);
    if (session < 0) return;
    std::string greeting = GreetingLine();
    (void)::send(session, greeting.data(), greeting.size(), MSG_NOSIGNAL);
    ::close(session);
  });

  LoadOptions options;
  options.port = port;
  options.connections = 1;
  options.duration_ms = 300;
  LoadReport report = RunLoad(options);
  server.join();
  ::close(*listener);

  ExpectEveryRequestAccountedFor(report);
  EXPECT_EQ(report.connect_errors, 0u);
  EXPECT_EQ(report.submitted, 1u);
  EXPECT_EQ(report.dropped, 1u);
  EXPECT_EQ(report.backpressure, 0u);
  EXPECT_EQ(report.idle_sessions, 1);
}

TEST(LoadTest, OpenLoopLatencyIsMeasuredFromTheDueInstant) {
  DaemonOptions daemon_options = TestOptions();
  daemon_options.service.jobs = 1;
  daemon_options.service.pipeline_override = SleepingPipeline(10);
  Fixture fixture(std::move(daemon_options));

  // One session offered 1000/s against a daemon that serves ~100/s: every
  // request is due well before the session is free to send it.
  LoadOptions options;
  options.port = fixture.daemon->port();
  options.connections = 1;
  options.rps = 1000;
  options.open_loop = true;
  options.duration_ms = 300;
  LoadReport report = RunLoad(options);
  ExpectEveryRequestAccountedFor(report);
  ASSERT_GT(report.completed(), 2u);

  ConversionRequest request;
  request.source = testing::kSeniorsCpl;
  Result<ConversionResponse> served = fixture.Connect()->Convert(request);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_GT(report.PercentileUs(50), 2 * served->latency_us);
}

}  // namespace
}  // namespace dbpc
