#include "daemon/admin.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "testing/daemon_fixture.h"

namespace dbpc {
namespace {

using HttpState = HttpRequestParser::State;

// --- HttpRequestParser ---

TEST(HttpParserTest, SimpleGetParsesInOneShot) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n"),
            HttpState::kDone);
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/metrics");
  EXPECT_EQ(parser.request().version, "HTTP/1.0");
}

TEST(HttpParserTest, ByteAtATimeFeedReachesDoneOnlyAtTheBlankLine) {
  const std::string raw = "GET /healthz HTTP/1.1\r\nAccept: */*\r\n\r\n";
  HttpRequestParser parser;
  for (size_t i = 0; i + 1 < raw.size(); ++i) {
    ASSERT_EQ(parser.Consume(std::string_view(&raw[i], 1)),
              HttpState::kNeedMore)
        << "byte " << i;
  }
  EXPECT_EQ(parser.Consume(std::string_view(&raw[raw.size() - 1], 1)),
            HttpState::kDone);
  EXPECT_EQ(parser.request().target, "/healthz");
}

TEST(HttpParserTest, BareLfFramingIsAccepted) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("GET /varz HTTP/1.0\n\n"), HttpState::kDone);
  EXPECT_EQ(parser.request().target, "/varz");
}

TEST(HttpParserTest, StateIsFinalAfterDone) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Consume("GET /a HTTP/1.0\r\n\r\n"), HttpState::kDone);
  // A pipelined second request is ignored: one request per connection.
  EXPECT_EQ(parser.Consume("GET /b HTTP/1.0\r\n\r\n"), HttpState::kDone);
  EXPECT_EQ(parser.request().target, "/a");
}

TEST(HttpParserTest, OversizedHeadWithoutBlankLineFails) {
  HttpRequestParser parser(/*max_bytes=*/64);
  EXPECT_EQ(parser.Consume(std::string(100, 'A')), HttpState::kError);
  EXPECT_NE(parser.error().find("exceeds"), std::string::npos)
      << parser.error();
}

TEST(HttpParserTest, OversizedHeadFailsEvenWhenTheBlankLineArrives) {
  // The whole head lands in one Consume, so the search finds the blank
  // line — the size cap must still apply.
  HttpRequestParser parser(/*max_bytes=*/64);
  std::string raw = "GET /" + std::string(100, 'a') + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(parser.Consume(raw), HttpState::kError);
  EXPECT_NE(parser.error().find("exceeds"), std::string::npos);
}

TEST(HttpParserTest, MalformedRequestLineFails) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("NOSPACESHERE\r\n\r\n"), HttpState::kError);
  EXPECT_NE(parser.error().find("malformed"), std::string::npos)
      << parser.error();
}

TEST(HttpParserTest, NonHttpProtocolFails) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("GET / FTP/1.0\r\n\r\n"), HttpState::kError);
  EXPECT_NE(parser.error().find("unsupported protocol"), std::string::npos)
      << parser.error();
}

// --- RenderPrometheusText ---

TEST(PrometheusTest, CountersAndGaugesRenderWithTypeLinesAndMangledNames) {
  MetricsRegistry registry;
  registry.GetCounter("daemon.jobs_admitted")->Increment(3);
  registry.GetGauge("cache.entries")->Set(17);
  std::string text = RenderPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE dbpc_daemon_jobs_admitted counter\n"
                      "dbpc_daemon_jobs_admitted 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE dbpc_cache_entries gauge\n"
                      "dbpc_cache_entries 17\n"),
            std::string::npos)
      << text;
}

TEST(PrometheusTest, RatesRenderTotalAndWindowedSeries) {
  MetricsRegistry registry;
  RollingRate* rate = registry.GetRate("service.conversions");
  rate->Tick(5);
  std::string text = RenderPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE dbpc_service_conversions_total counter\n"
                      "dbpc_service_conversions_total 5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE dbpc_service_conversions_per_sec gauge\n"),
            std::string::npos)
      << text;
  for (const char* window : {"1s", "10s", "60s"}) {
    EXPECT_NE(text.find("dbpc_service_conversions_per_sec{window=\"" +
                        std::string(window) + "\"} "),
              std::string::npos)
        << text;
  }
}

TEST(PrometheusTest, HistogramBucketsAreCumulativeAndInfEqualsCount) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("daemon.request_us");
  h->Record(1);     // bucket 0: [0, 2)
  h->Record(3);     // bucket 1: [2, 4)
  h->Record(1000);  // bucket 9: [512, 1024)
  std::string text = RenderPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE dbpc_daemon_request_us histogram\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dbpc_daemon_request_us_bucket{le=\"2\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dbpc_daemon_request_us_bucket{le=\"4\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dbpc_daemon_request_us_bucket{le=\"1024\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dbpc_daemon_request_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dbpc_daemon_request_us_sum 1004\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dbpc_daemon_request_us_count 3\n"), std::string::npos)
      << text;
}

// --- AdminServer routing + a standalone end-to-end scrape ---

/// A standalone admin server over a bare registry and its own reactor (no
/// daemon): routing and transport can be exercised without conversion
/// machinery. Members are destroyed in reverse order, so the server stops
/// before its reactor.
struct StandaloneAdmin {
  MetricsRegistry registry;
  std::atomic<bool> ready{true};
  std::unique_ptr<Reactor> reactor;
  std::unique_ptr<AdminServer> server;

  StandaloneAdmin() {
    Result<std::unique_ptr<Reactor>> loop = Reactor::Create("admin-test");
    EXPECT_TRUE(loop.ok()) << loop.status();
    reactor = std::move(loop).value();
    AdminHooks hooks;
    hooks.metrics = &registry;
    hooks.ready = [this] { return ready.load(); };
    Result<std::unique_ptr<AdminServer>> started =
        AdminServer::Start(AdminOptions{}, hooks, *reactor);
    EXPECT_TRUE(started.ok()) << started.status();
    server = std::move(started).value();
  }
};

HttpRequest MakeRequest(const std::string& method, const std::string& target) {
  HttpRequest request;
  request.method = method;
  request.target = target;
  request.version = "HTTP/1.0";
  return request;
}

TEST(AdminServerTest, RoutingTableCoversEveryEndpoint) {
  StandaloneAdmin admin;
  admin.registry.GetCounter("daemon.jobs_admitted")->Increment();

  EXPECT_EQ(admin.server->BuildResponse(MakeRequest("GET", "/healthz"))
                .rfind("HTTP/1.0 200", 0),
            0u);
  EXPECT_EQ(admin.server->BuildResponse(MakeRequest("GET", "/nope"))
                .rfind("HTTP/1.0 404", 0),
            0u);
  EXPECT_EQ(admin.server->BuildResponse(MakeRequest("POST", "/metrics"))
                .rfind("HTTP/1.0 405", 0),
            0u);

  // Query strings are stripped before routing.
  std::string metrics =
      admin.server->BuildResponse(MakeRequest("GET", "/metrics?debug=1"));
  EXPECT_EQ(metrics.rfind("HTTP/1.0 200", 0), 0u);
  EXPECT_NE(metrics.find("dbpc_daemon_jobs_admitted 1"), std::string::npos);

  // /readyz follows the ready hook.
  EXPECT_EQ(admin.server->BuildResponse(MakeRequest("GET", "/readyz"))
                .rfind("HTTP/1.0 200", 0),
            0u);
  admin.ready.store(false);
  std::string draining =
      admin.server->BuildResponse(MakeRequest("GET", "/readyz"));
  EXPECT_EQ(draining.rfind("HTTP/1.0 503", 0), 0u);
  EXPECT_NE(draining.find("draining"), std::string::npos);
}

TEST(AdminServerTest, ServesHttpOverARealSocket) {
  StandaloneAdmin admin;
  admin.registry.GetGauge("daemon.queue_depth")->Set(4);

  Result<HttpResponse> health =
      HttpGet("127.0.0.1", admin.server->port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status_code, 200);
  EXPECT_EQ(health->body, "ok\n");

  Result<HttpResponse> metrics =
      HttpGet("127.0.0.1", admin.server->port(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->status_code, 200);
  EXPECT_NE(metrics->body.find("dbpc_daemon_queue_depth 4\n"),
            std::string::npos)
      << metrics->body;

  Result<HttpResponse> missing =
      HttpGet("127.0.0.1", admin.server->port(), "/no-such");
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_EQ(missing->status_code, 404);

  // Stop is idempotent and closes the listener on the loop thread.
  admin.server->Stop();
  admin.server->Stop();
}

// --- Daemon-integrated admin plane ---

using testing::kSeniorsCpl;

DaemonOptions TestOptions() {
  DaemonOptions options = testing::TestOptions();
  options.admin_port = 0;  // ephemeral admin endpoint on every fixture
  return options;
}

struct Fixture : testing::DaemonFixture {
  using DaemonFixture::DaemonFixture;

  Result<HttpResponse> Scrape(const std::string& path) {
    return HttpGet("127.0.0.1", daemon->admin_port(), path);
  }
};

TEST(DaemonAdminTest, MetricsExposesTheOperationalFamilies) {
  Fixture fixture(TestOptions());
  ASSERT_GT(fixture.daemon->admin_port(), 0);
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  ConversionRequest request;
  request.source = kSeniorsCpl;
  ASSERT_TRUE(client->Convert(request).ok());

  Result<HttpResponse> metrics = fixture.Scrape("/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  ASSERT_EQ(metrics->status_code, 200);
  const std::string& body = metrics->body;
  for (const char* family :
       {"dbpc_daemon_queue_depth", "dbpc_daemon_inflight_jobs",
        "dbpc_daemon_active_sessions", "dbpc_daemon_parked_sessions",
        "dbpc_service_workers_busy", "dbpc_cache_entries",
        "dbpc_service_conversions_total", "dbpc_daemon_request_us_count"}) {
    EXPECT_NE(body.find(family), std::string::npos)
        << "missing family " << family << " in:\n"
        << body;
  }
  // The scrape refreshes sampled gauges: the one connected session shows.
  EXPECT_NE(body.find("dbpc_daemon_active_sessions 1\n"), std::string::npos)
      << body;
  // The completed conversion is visible in the rate's running total.
  EXPECT_NE(body.find("dbpc_service_conversions_total 1\n"),
            std::string::npos)
      << body;
}

TEST(DaemonAdminTest, VarzServesAJsonSnapshot) {
  Fixture fixture(TestOptions());
  Result<HttpResponse> varz = fixture.Scrape("/varz");
  ASSERT_TRUE(varz.ok()) << varz.status();
  ASSERT_EQ(varz->status_code, 200);
  EXPECT_EQ(varz->body.front(), '{') << varz->body;
  for (const char* key : {"\"server\":\"dbpcd\"", "\"uptime_s\"",
                          "\"draining\":false", "\"build\"", "\"metrics\""}) {
    EXPECT_NE(varz->body.find(key), std::string::npos)
        << "missing " << key << " in:\n"
        << varz->body;
  }
}

TEST(DaemonAdminTest, ReadyzFlipsTo503WhileADrainIsInFlight) {
  DaemonOptions options = TestOptions();
  options.service.jobs = 1;
  // The only worker blocks until released, so the DRAIN provably overlaps
  // the /readyz probes below.
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

  Result<HttpResponse> before = fixture.Scrape("/readyz");
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->status_code, 200);
  EXPECT_EQ(before->body, "ready\n");

  std::unique_ptr<DaemonClient> client = fixture.Connect();
  ConversionRequest request;
  request.source = kSeniorsCpl;
  ASSERT_TRUE(client->Submit(request).ok());

  // DRAIN blocks until the admitted job finishes; run it on the side.
  std::thread drainer([&fixture] {
    std::unique_ptr<DaemonClient> controller = fixture.Connect();
    EXPECT_TRUE(controller->Drain().ok());
  });

  // The endpoint keeps answering during the drain window, now with 503.
  bool flipped = false;
  for (int i = 0; i < 500 && !flipped; ++i) {
    Result<HttpResponse> probe = fixture.Scrape("/readyz");
    ASSERT_TRUE(probe.ok()) << probe.status();
    if (probe->status_code == 503) {
      flipped = true;
      EXPECT_EQ(probe->body, "draining\n");
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_TRUE(flipped) << "/readyz never reported 503 during the drain";

  release.store(true);
  drainer.join();
  EXPECT_TRUE(fixture.daemon->draining());

  // Drained is a terminal state: still alive, still not ready.
  Result<HttpResponse> after = fixture.Scrape("/readyz");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->status_code, 503);
  Result<HttpResponse> health = fixture.Scrape("/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status_code, 200);
}

TEST(DaemonAdminTest, SlowRequestLogCarriesTheTimingBreakdown) {
  std::mutex mu;
  std::vector<std::string> lines;
  Logger::Options capture;
  capture.level = LogLevel::kInfo;
  capture.sink = [&mu, &lines](std::string_view line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.emplace_back(line);
  };
  GlobalLogger().Configure(capture);

  uint64_t request_us_count = 0;
  uint64_t request_us_sum = 0;
  {
    DaemonOptions options = TestOptions();
    options.slow_request_ms = 1;
    options.service.pipeline_override =
        [](const Program& program) -> Result<PipelineOutcome> {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      PipelineOutcome outcome;
      outcome.accepted = true;
      outcome.conversion.converted.name = program.name;
      return outcome;
    };
    Fixture fixture(std::move(options));
    std::unique_ptr<DaemonClient> client = fixture.Connect();
    ConversionRequest request;
    request.source = kSeniorsCpl;
    Result<ConversionResponse> response = client->Convert(request);
    ASSERT_TRUE(response.ok()) << response.status();
    fixture.daemon->Stop();  // every log line and sample is in by now
    Histogram* request_us =
        fixture.daemon->metrics().GetHistogram("daemon.request_us");
    request_us_count = request_us->Count();
    request_us_sum = request_us->SumMicros();
  }

  GlobalLogger().Configure({LogLevel::kInfo, false, nullptr});

  std::string slow;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const std::string& line : lines) {
      if (line.find("event=slow_request") != std::string::npos) slow = line;
    }
  }
  ASSERT_FALSE(slow.empty()) << "no slow_request line was logged";
  for (const char* field :
       {" level=warn ", " job=1", " session=1", " program=SENIORS",
        " queue_wait_us=", " convert_us=", " total_us=", " outcome=done",
        " accepted=true"}) {
    EXPECT_NE(slow.find(field), std::string::npos)
        << "missing " << field << " in: " << slow;
  }

  // All three durations come from one request timeline: the queue wait and
  // the conversion fit inside the total, and the total is the one
  // daemon.request_us sample.
  auto field_value = [&slow](const std::string& key) -> uint64_t {
    size_t at = slow.find(" " + key + "=");  // present: checked above
    return at == std::string::npos
               ? 0
               : std::stoull(slow.substr(at + key.size() + 2));
  };
  uint64_t queue_wait_us = field_value("queue_wait_us");
  uint64_t convert_us = field_value("convert_us");
  uint64_t total_us = field_value("total_us");
  EXPECT_GE(convert_us, 5000u);  // the pipeline slept 5ms
  EXPECT_LE(queue_wait_us + convert_us, total_us) << slow;
  EXPECT_EQ(request_us_count, 1u);
  EXPECT_EQ(request_us_sum, total_us) << slow;
}

}  // namespace
}  // namespace dbpc
