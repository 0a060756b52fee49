#include "daemon/daemon.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.h"
#include "restructure/plan_parser.h"
#include "testing/daemon_fixture.h"

namespace dbpc {
namespace {

using Fixture = testing::DaemonFixture;
using testing::kSeniorsCpl;
using testing::TestOptions;

TEST(DaemonTest, GreetingAdvertisesServerAndProtocol) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  EXPECT_EQ(client->greeting().at("server"), "dbpcd");
  EXPECT_EQ(client->greeting().at("proto"),
            std::to_string(kProtocolVersion));
  EXPECT_TRUE(client->Ping().ok());
}

TEST(DaemonTest, SubmitStatusResultRoundTrip) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();

  ConversionRequest request;
  request.source = kSeniorsCpl;
  Result<JobId> id = client->Submit(request);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_GE(*id, 1u);

  // STATUS is answerable at any point in the job's life.
  Result<JobState> state = client->State(*id);
  ASSERT_TRUE(state.ok()) << state.status();

  Result<ConversionResponse> response = client->Fetch(*id, /*wait=*/true);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->id, *id);
  EXPECT_EQ(response->state, JobState::kDone);
  EXPECT_TRUE(response->accepted);
  EXPECT_EQ(response->classification, Convertibility::kAutomatic);
  EXPECT_EQ(response->program_name, "SENIORS");
  EXPECT_NE(response->converted_source.find("PROGRAM SENIORS"),
            std::string::npos);

  // The result stays queryable after delivery.
  Result<ConversionResponse> again = client->Fetch(*id, /*wait=*/false);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->converted_source, response->converted_source);
}

TEST(DaemonTest, ParseFailureIsAFailedJobNotASessionError) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();

  ConversionRequest request;
  request.source = "THIS IS NOT CPL\n";
  Result<ConversionResponse> response = client->Convert(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->state, JobState::kFailed);
  EXPECT_FALSE(response->accepted);
  EXPECT_FALSE(response->status.ok());
  // Session is still usable afterwards.
  EXPECT_TRUE(client->Ping().ok());
}

TEST(DaemonTest, MalformedCommandsKeepTheSessionAlive) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();

  for (const char* bad :
       {"FROBNICATE\n", "SUBMIT nope\n", "STATUS\n", "RESULT 1 SIDEWAYS\n"}) {
    ASSERT_TRUE(client->SendRaw(bad).ok());
    Result<std::string> reply = client->ReadReplyLineRaw();
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->rfind("-ERR bad-request", 0), 0u) << *reply;
  }
  // After four protocol errors the session still answers commands.
  EXPECT_TRUE(client->Ping().ok());
}

TEST(DaemonTest, OversizedLineTearsDownTheSessionStructurally) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  // No newline within the daemon's max_line_bytes: the session must reply
  // -ERR and close, not hang or crash.
  std::string long_line(
      static_cast<size_t>(fixture.daemon->options().max_line_bytes) + 100,
      'A');
  ASSERT_TRUE(client->SendRaw(long_line).ok());
  Result<std::string> reply = client->ReadReplyLineRaw();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->rfind("-ERR bad-request", 0), 0u) << *reply;
  // The daemon keeps serving fresh sessions.
  EXPECT_TRUE(fixture.Connect()->Ping().ok());
}

TEST(DaemonTest, OversizedPayloadIsRefusedBeforeReading) {
  DaemonOptions options = TestOptions();
  options.max_payload_bytes = 128;
  Fixture fixture(std::move(options));
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  ASSERT_TRUE(client->SendRaw("SUBMIT 4096\n").ok());
  Result<std::string> reply = client->ReadReplyLineRaw();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->rfind("-ERR bad-request", 0), 0u) << *reply;
}

TEST(DaemonTest, MidRequestDisconnectAdmitsNothing) {
  Fixture fixture(TestOptions());
  {
    std::unique_ptr<DaemonClient> client = fixture.Connect();
    // Promise 1000 payload bytes, deliver 10, vanish.
    ASSERT_TRUE(client->SendRaw("SUBMIT 1000\nPROGRAM X.\n").ok());
  }  // client destroyed: connection closed mid-payload
  // Give the session loop a moment to observe the disconnect.
  for (int i = 0; i < 100 && fixture.daemon->active_sessions() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fixture.daemon->jobs_admitted(), 0u);
  // And the daemon is unharmed.
  EXPECT_TRUE(fixture.Connect()->Ping().ok());
}

TEST(DaemonTest, ResultForUnknownJobIsNotFound) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  Result<ConversionResponse> response = client->Fetch(777, /*wait=*/false);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
}

TEST(DaemonTest, BackpressureWhenQueueIsFull) {
  DaemonOptions options = TestOptions();
  options.queue_depth = 1;
  options.service.jobs = 1;
  // A pipeline that blocks until released, so the queue stays provably
  // full while the test probes admission.
  std::atomic<bool> release{false};
  options.service.pipeline_override =
      [&release](const Program& program) -> Result<PipelineOutcome> {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    PipelineOutcome outcome;
    outcome.accepted = true;
    outcome.conversion.converted.name = program.name;
    return outcome;
  };
  Fixture fixture(std::move(options));
  std::unique_ptr<DaemonClient> client = fixture.Connect();

  ConversionRequest request;
  request.source = kSeniorsCpl;
  Result<JobId> first = client->Submit(request);
  ASSERT_TRUE(first.ok()) << first.status();

  // Queue depth 1 and the only worker is blocked: the next submit must be
  // answered with structured backpressure, not queued or dropped.
  Result<JobId> second = client->Submit(request);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);

  release.store(true);
  Result<ConversionResponse> response = client->Fetch(*first, /*wait=*/true);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->accepted);

  // Capacity freed: submits are admitted again.
  EXPECT_TRUE(client->Submit(request).ok());
}

TEST(DaemonTest, PerRequestDeadlineDegradesToRefused) {
  DaemonOptions options = TestOptions();
  options.service.retries = 0;
  // Every attempt takes ~40ms; a 1ms per-request deadline is always
  // overrun, so the job must degrade to a refused-but-answered conversion
  // (kDone, accepted=false) — the existing service degradation path.
  options.service.pipeline_override =
      [](const Program& program) -> Result<PipelineOutcome> {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    PipelineOutcome outcome;
    outcome.accepted = true;
    outcome.conversion.converted.name = program.name;
    return outcome;
  };
  Fixture fixture(std::move(options));
  std::unique_ptr<DaemonClient> client = fixture.Connect();

  ConversionRequest request;
  request.source = kSeniorsCpl;
  request.deadline_ms = 1;
  Result<ConversionResponse> response = client->Convert(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->state, JobState::kDone);
  EXPECT_FALSE(response->accepted);

  // Without the per-request override the same job completes fine.
  request.deadline_ms = 0;
  response = client->Convert(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->accepted);
}

TEST(DaemonTest, TraceIsServedOnlyForTracedJobs) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();

  ConversionRequest untraced;
  untraced.source = kSeniorsCpl;
  Result<ConversionResponse> plain = client->Convert(untraced);
  ASSERT_TRUE(plain.ok()) << plain.status();
  Result<std::string> missing = client->Trace(plain->id);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  ConversionRequest traced = untraced;
  traced.trace = true;
  Result<ConversionResponse> response = client->Convert(traced);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_FALSE(response->trace_text.empty());
  Result<std::string> trace = client->Trace(response->id);
  ASSERT_TRUE(trace.ok()) << trace.status();
  EXPECT_NE(trace->find("convert SENIORS"), std::string::npos) << *trace;
}

TEST(DaemonTest, TraceOnAnUnfinishedJobIsAnsweredNotRaced) {
  DaemonOptions options = TestOptions();
  options.service.jobs = 1;
  // The only worker blocks until released, so the job is provably
  // unfinished while TRACE probes it. Before the fix the TRACE handler
  // read job state and trace text without the job-table lock, racing
  // RunJob's completion writes.
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
  std::unique_ptr<DaemonClient> client = fixture.Connect();

  ConversionRequest request;
  request.source = kSeniorsCpl;
  request.trace = true;
  Result<JobId> id = client->Submit(request);
  ASSERT_TRUE(id.ok()) << id.status();

  std::unique_ptr<DaemonClient> prober = fixture.Connect();
  // While the worker is provably blocked, every probe answers structured
  // unavailable.
  for (int i = 0; i < 5; ++i) {
    Result<std::string> trace = prober->Trace(*id);
    ASSERT_FALSE(trace.ok());
    EXPECT_EQ(trace.status().code(), StatusCode::kUnavailable);
  }

  // Hammer TRACE across the completion moment, so probes overlap
  // RunJob's writes of job->state and job->response (TSan flags the
  // pre-fix unlocked reads here).
  std::thread hammer([&prober, &id] {
    for (int i = 0; i < 300; ++i) prober->Trace(*id);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  release.store(true);
  Result<ConversionResponse> response = client->Fetch(*id, /*wait=*/true);
  hammer.join();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->state, JobState::kDone);
  // After completion the probe session still gets definitive answers —
  // never a torn read.
  prober->Trace(*id);
  EXPECT_TRUE(prober->Ping().ok());
}

TEST(DaemonTest, StartFailureIsACleanErrorNotACrash) {
  // This plan parses but cannot apply to the company schema (no such
  // set), so ConversionService::Create fails after DaemonOptions already
  // validated. Start must return that error; destroying the partially
  // constructed daemon must not touch the never-wired service, metric
  // handles, or listener.
  RestructuringPlan bad = std::move(ParsePlan(R"(
RESTRUCTURE PLAN BAD.
  INTRODUCE RECORD DEPT BETWEEN NO-SUCH-SET GROUPING BY DEPT-NAME
      AS DIV-DEPT AND DEPT-EMP.
END PLAN.
)"))
                              .value();
  Schema schema = testing::MakeDatabase(testing::CompanyDdl()).schema();
  Result<std::unique_ptr<ConversionDaemon>> started =
      ConversionDaemon::Start(schema, bad.View(), TestOptions());
  ASSERT_FALSE(started.ok());
  EXPECT_FALSE(started.status().message().empty());
}

/// The integer after `"name": ` in a METRICS JSON snapshot; -1 if absent.
long long MetricValue(const std::string& json, const std::string& name) {
  std::string key = "\"" + name + "\": ";
  size_t at = json.find(key);
  if (at == std::string::npos) return -1;
  return std::strtoll(json.c_str() + at + key.size(), nullptr, 10);
}

TEST(DaemonTest, MetricsSnapshotIsServed) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  ConversionRequest request;
  request.source = kSeniorsCpl;
  ASSERT_TRUE(client->Convert(request).ok());
  ASSERT_TRUE(client->Convert(request).ok());
  Result<std::string> metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_NE(metrics->find("daemon.submits_admitted"), std::string::npos);
  EXPECT_NE(metrics->find("daemon.request_us"), std::string::npos);
  // The sampled cache.entries gauge is current in every snapshot: two
  // identical SUBMITs leave one resident template.
  long long misses = MetricValue(*metrics, "cache.misses");
  long long evictions = MetricValue(*metrics, "cache.evictions");
  ASSERT_GE(misses, 0) << *metrics;
  ASSERT_GE(evictions, 0) << *metrics;
  EXPECT_EQ(MetricValue(*metrics, "cache.entries"), misses - evictions)
      << *metrics;
  EXPECT_EQ(MetricValue(*metrics, "cache.entries"), 1) << *metrics;
}

TEST(DaemonTest, DrainFinishesAdmittedJobsAndRefusesNewOnes) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();

  ConversionRequest request;
  request.source = kSeniorsCpl;
  Result<JobId> id = client->Submit(request);
  ASSERT_TRUE(id.ok()) << id.status();

  std::unique_ptr<DaemonClient> controller = fixture.Connect();
  ASSERT_TRUE(controller->Drain().ok());
  EXPECT_TRUE(fixture.daemon->draining());
  EXPECT_EQ(fixture.daemon->jobs_admitted(),
            fixture.daemon->jobs_completed());

  // Admitted before the drain: result still served.
  Result<ConversionResponse> response = client->Fetch(*id, /*wait=*/true);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->accepted);

  // Submitted after the drain: structured refusal.
  Result<JobId> late = client->Submit(request);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

TEST(DaemonTest, DoubleDrainIsIdempotent) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  ConversionRequest request;
  request.source = kSeniorsCpl;
  ASSERT_TRUE(client->Submit(request).ok());

  // Two DRAINs from two sessions (a client drain racing an operator
  // drain): both succeed and report the same settled state.
  EXPECT_TRUE(client->Drain().ok());
  std::unique_ptr<DaemonClient> second = fixture.Connect();
  EXPECT_TRUE(second->Drain().ok());
  EXPECT_EQ(fixture.daemon->jobs_admitted(),
            fixture.daemon->jobs_completed());
}

TEST(DaemonTest, StopTearsDownIdleSessions) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  ASSERT_TRUE(client->Ping().ok());
  // Stop must not wait out the idle session's read timeout.
  auto start = std::chrono::steady_clock::now();
  fixture.daemon->Stop();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_LT(elapsed, 1500);
  EXPECT_EQ(fixture.daemon->active_sessions(), 0);
}

TEST(DaemonTest, ConcurrentSessionsAllComplete) {
  Fixture fixture(TestOptions());
  constexpr int kSessions = 8;
  constexpr int kPerSession = 4;
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&fixture, &completed] {
      std::unique_ptr<DaemonClient> client = fixture.Connect();
      for (int j = 0; j < kPerSession; ++j) {
        ConversionRequest request;
        request.source = kSeniorsCpl;
        Result<ConversionResponse> response = client->Convert(request);
        if (response.ok() && response->accepted) ++completed;
      }
      client->Quit();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(completed.load(), kSessions * kPerSession);
  EXPECT_EQ(fixture.daemon->jobs_completed(),
            static_cast<uint64_t>(kSessions * kPerSession));
}

}  // namespace
}  // namespace dbpc
