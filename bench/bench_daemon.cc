// Experiments E13/E16/E17 — daemon load, session scaling, telemetry cost.
//
// Claim: dbpcd sustains hundreds of concurrent sessions with bounded
// client-observed latency, and its admission control answers every
// request — overload surfaces as `-ERR unavailable` backpressure, never
// as a request dropped without a response. Method: start an in-process
// ConversionDaemon over the COMPANY schema and Figure 4.4 plan, drive it
// over real loopback TCP with N closed-loop sessions (SUBMIT + RESULT
// WAIT per round trip) for a fixed window, and record client-observed
// round-trip latency and completed conversions/sec. A final stage issues
// DRAIN mid-burst and checks the drain contract: every admitted job
// completes, late SUBMITs get backpressure, nothing is dropped.
//
//   bench_daemon                 full table: 8..2000 sessions
//   bench_daemon --smoke         200 sessions only + hard assertions
//                                (gates the daemon in check.sh)
//   bench_daemon --json <file>   also write the rows as JSON (the
//                                BENCH_daemon.json baseline format)
//
// Sessions are driven by the library's load driver (RunLoad, daemon/load.h),
// the one dbpc_load uses: at most kLoadMaxThreads client threads, each
// owning several sessions with at most one request outstanding per
// session, so the server sees N closed-loop sessions while the client
// stays a handful of threads (2000 client threads would measure the load
// generator, not the daemon).
//
// Like E10/E11 this is a plain table program: google-benchmark repetition
// would only serialize the interesting part (hundreds of live sockets).
//
// E17 (telemetry overhead): the 400-session row is measured in pairs —
// plain, and with the full telemetry plane on (structured logging with a
// file sink, --slow-request-ms 1 so *every* request writes a slow-request
// line, and a 1 Hz /metrics scraper against the admin endpoint) — and the
// median throughput delta over the pairs must stay under 3%. Observability
// that taxes the hot path more than that is a bug.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/dbpc.h"
#include "bench_util.h"
#include "testing/fixtures.h"

namespace dbpc {
namespace {

struct Row {
  int connections = 0;
  LoadReport load;
};

Result<std::unique_ptr<ConversionDaemon>> StartDaemon(
    const Schema& schema, const RestructuringPlan& plan, int connections,
    bool telemetry = false) {
  DaemonOptions options;
  options.port = 0;
  options.max_connections = connections + 16;
  options.queue_depth = connections + 64;
  options.result_wait_ms = 10000;  // below the sessions' 20s read timeout
  options.service.jobs = 4;
  options.service.supervisor.mode = AnalystMode::kAssisted;
  options.service.supervisor.analyst = ApproveAllAnalyst();
  if (telemetry) {
    options.admin_port = 0;
    options.slow_request_ms = 1;  // every request logs a slow-request line
  }
  return ConversionDaemon::Start(schema, plan.View(), options);
}

/// Measures one load row. With `telemetry` the full observability plane is
/// live for the row's duration: every request writes a structured log line
/// through a file sink, and a sidecar thread scrapes GET /metrics once a
/// second (the Prometheus-agent shape). `scrapes_out` reports how many
/// scrapes answered 200.
Row MeasureRow(const Schema& schema, const RestructuringPlan& plan,
               int connections, int duration_ms, bool telemetry = false,
               uint64_t* scrapes_out = nullptr) {
  std::unique_ptr<ConversionDaemon> daemon = bench::Value(
      StartDaemon(schema, plan, connections, telemetry), "daemon start");

  FILE* log_file = nullptr;
  std::atomic<bool> scraper_stop{false};
  std::atomic<uint64_t> scrapes{0};
  std::thread scraper;
  if (telemetry) {
    log_file = std::tmpfile();  // real formatting + real writes, auto-unlinked
    Logger::Options log_options;
    log_options.level = LogLevel::kInfo;
    if (log_file != nullptr) {
      log_options.sink = [log_file](std::string_view line) {
        std::fwrite(line.data(), 1, line.size(), log_file);
      };
    }
    GlobalLogger().Configure(log_options);
    scraper = std::thread([&scraper_stop, &scrapes,
                           admin_port = daemon->admin_port()] {
      while (!scraper_stop.load()) {
        Result<HttpResponse> scrape =
            HttpGet("127.0.0.1", admin_port, "/metrics");
        if (scrape.ok() && scrape->status_code == 200) ++scrapes;
        for (int i = 0; i < 100 && !scraper_stop.load(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
    });
  }

  LoadOptions load;
  load.port = daemon->port();
  load.connections = connections;
  load.duration_ms = duration_ms;
  Row row{connections, RunLoad(load)};
  if (telemetry) {
    scraper_stop.store(true);
    scraper.join();
    if (scrapes_out != nullptr) *scrapes_out = scrapes.load();
  }
  daemon->Stop();
  if (telemetry) {
    GlobalLogger().Configure({LogLevel::kInfo, false, nullptr});
    if (log_file != nullptr) std::fclose(log_file);
  }
  return row;
}

/// Drain-under-traffic: a burst of sessions is mid-flight when DRAIN
/// lands. Contract checked: the drain completes (every admitted job
/// finishes), post-drain SUBMITs get backpressure rather than silence,
/// and no session loses a request without a response.
bool CheckDrainUnderTraffic(const Schema& schema,
                            const RestructuringPlan& plan) {
  constexpr int kConnections = 32;
  std::unique_ptr<ConversionDaemon> daemon = bench::Value(
      StartDaemon(schema, plan, kConnections), "daemon start");

  LoadOptions options;
  options.port = daemon->port();
  options.connections = kConnections;
  options.duration_ms = 1200;
  LoadReport load;
  std::thread driver([&load, &options] { load = RunLoad(options); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  Result<std::unique_ptr<DaemonClient>> controller =
      DaemonClient::Connect("127.0.0.1", daemon->port());
  Status drained =
      controller.ok() ? (*controller)->Drain() : controller.status();
  driver.join();

  bool all_admitted_completed =
      daemon->jobs_admitted() == daemon->jobs_completed();
  std::printf(
      "drain under traffic: drain=%s, %llu completed, %llu backpressured, "
      "%llu dropped, admitted==completed: %s\n",
      drained.ToString().c_str(),
      static_cast<unsigned long long>(load.completed()),
      static_cast<unsigned long long>(load.backpressure),
      static_cast<unsigned long long>(load.dropped),
      all_admitted_completed ? "yes" : "NO");
  daemon->Stop();
  return drained.ok() && load.dropped == 0 && load.backpressure > 0 &&
         all_admitted_completed;
}

/// The middle value of an odd-sized sample (E17 runs 1 or 9 pairs).
double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

struct E17Result {
  int connections = 0;
  std::vector<double> deltas;      // fractional throughput loss, per pair
  double baseline_per_sec = 0.0;   // median over the pairs
  double telemetry_per_sec = 0.0;  // median over the pairs
  double delta = 0.0;              // median of deltas
  uint64_t scrapes = 0;  // fewest successful scrapes in any telemetry run
  bool sound = true;     // every pair: zero drops, at least one scrape
};

/// E17: `pairs` back-to-back pairs of the same shape, plain and with the
/// telemetry plane on, alternating which arm runs first so neither arm
/// always inherits the other's warm-up. The gate is on the median delta:
/// one pair of loopback rows on a shared host differs by several percent
/// either way, so a single pair (or the best of a few) measures the host,
/// not the telemetry plane.
E17Result MeasureTelemetryOverhead(const Schema& schema,
                                   const RestructuringPlan& plan,
                                   int connections, int duration_ms,
                                   int pairs) {
  E17Result result;
  result.connections = connections;
  std::vector<double> baselines, telemetries;
  for (int pair = 0; pair < pairs; ++pair) {
    bool telemetry_first = pair % 2 == 1;
    uint64_t scrapes = 0;
    Row telemetry;
    if (telemetry_first) {
      telemetry = MeasureRow(schema, plan, connections, duration_ms,
                             /*telemetry=*/true, &scrapes);
    }
    Row baseline = MeasureRow(schema, plan, connections, duration_ms);
    if (!telemetry_first) {
      telemetry = MeasureRow(schema, plan, connections, duration_ms,
                             /*telemetry=*/true, &scrapes);
    }
    double base = baseline.load.completed_per_sec();
    double with = telemetry.load.completed_per_sec();
    double delta = base > 0 ? (base - with) / base : 0.0;
    bool sound =
        baseline.load.dropped == 0 && telemetry.load.dropped == 0 &&
        scrapes > 0;
    std::printf(
        "E17 %4d sessions, pair %d (%s first): baseline %.1f conv/s, "
        "telemetry %.1f conv/s (delta %+.1f%%, %llu scrapes)%s\n",
        connections, pair + 1, telemetry_first ? "telemetry" : "baseline",
        base, with, delta * 100.0, static_cast<unsigned long long>(scrapes),
        sound ? "" : " [UNSOUND]");
    result.sound = result.sound && sound;
    result.scrapes = pair == 0 ? scrapes : std::min(result.scrapes, scrapes);
    baselines.push_back(base);
    telemetries.push_back(with);
    result.deltas.push_back(delta);
  }
  result.baseline_per_sec = Median(baselines);
  result.telemetry_per_sec = Median(telemetries);
  result.delta = Median(result.deltas);
  return result;
}

struct Shape {
  int connections;
  int duration_ms;
};

int RunAll(bool smoke, const std::string& json_path) {
  Schema schema = testing::MakeDatabase(testing::CompanyDdl()).schema();
  RestructuringPlan plan = testing::Figure44Plan();

  std::vector<Shape> shapes;
  if (smoke) {
    shapes = {{200, 1500}};
  } else {
    shapes = {{8, 2000},   {64, 2000},   {200, 2500},
              {400, 3000}, {1000, 4000}, {2000, 5000}};
  }

  std::printf("E13/E16 daemon load: closed-loop sessions over loopback TCP\n"
              "%12s %10s %12s %14s %9s %10s %10s %6s\n",
              "connections", "completed", "backpressure", "conversions/s",
              "p50(ms)", "p99(ms)", "dropped", "idle");
  std::vector<Row> rows;
  bool sound = true;
  for (const Shape& shape : shapes) {
    Row row = MeasureRow(schema, plan, shape.connections, shape.duration_ms);
    const LoadReport& load = row.load;
    std::printf("%12d %10llu %12llu %14.1f %9.1f %10.1f %10llu %6d\n",
                row.connections,
                static_cast<unsigned long long>(load.completed()),
                static_cast<unsigned long long>(load.backpressure),
                load.completed_per_sec(),
                static_cast<double>(load.PercentileUs(50)) / 1000.0,
                static_cast<double>(load.PercentileUs(99)) / 1000.0,
                static_cast<unsigned long long>(load.dropped),
                load.idle_sessions);
    // The zero-drop contract holds at every scale; every session at the
    // >= 200 tier must also complete at least one conversion ("sustained",
    // not merely connected).
    if (load.dropped != 0) sound = false;
    if (row.connections >= 200 && load.idle_sessions != 0) sound = false;
    rows.push_back(std::move(row));
  }
  if (!sound) {
    std::fprintf(stderr,
                 "bench_daemon: FAILED (dropped requests or idle sessions "
                 "at >= 200 connections)\n");
    return 1;
  }
  if (!CheckDrainUnderTraffic(schema, plan)) {
    std::fprintf(stderr,
                 "bench_daemon: FAILED (drain-under-traffic contract)\n");
    return 1;
  }

  // E17: telemetry overhead. Smoke keeps it to one short pair and gates
  // only on soundness (zero drops, at least one live scrape); the full run
  // gates the 400-session row's median delta over 9 pairs on the <3%
  // throughput ceiling. Per-pair deltas spread about +-6% on a 4-core host,
  // so fewer pairs leave the median too loose to test a 3% claim.
  E17Result e17 =
      MeasureTelemetryOverhead(schema, plan, smoke ? 64 : 400,
                               smoke ? 1000 : 3000, smoke ? 1 : 9);
  if (!e17.sound) {
    std::fprintf(stderr,
                 "bench_daemon: FAILED (E17 pair dropped requests or saw no "
                 "scrape)\n");
    return 1;
  }
  std::printf("E17 median over %zu pair(s): delta %+.1f%%\n",
              e17.deltas.size(), e17.delta * 100.0);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "bench_daemon: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    char line[320];
    std::snprintf(line, sizeof(line),
                  "  \"host\": {\"nproc\": %u, \"compiler\": \"gcc %s\", "
                  "\"build_type\": \"%s\"},\n",
                  std::thread::hardware_concurrency(), __VERSION__,
                  DBPC_BUILD_TYPE);
    out << "{\n  \"experiment\": \"E13/E16/E17\",\n  \"tool\": "
        << "\"bench_daemon\",\n"
        << line
        << "  \"unit\": \"client-observed round-trip latency (us), "
        << "completed conversions/sec, closed loop\",\n  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const LoadReport& load = rows[i].load;
      std::snprintf(line, sizeof(line),
                    "    {\"connections\": %d, \"completed\": %llu, "
                    "\"backpressure\": %llu, \"dropped\": %llu, "
                    "\"conversions_per_sec\": %.1f, \"p50_us\": %llu, "
                    "\"p99_us\": %llu}%s\n",
                    rows[i].connections,
                    static_cast<unsigned long long>(load.completed()),
                    static_cast<unsigned long long>(load.backpressure),
                    static_cast<unsigned long long>(load.dropped),
                    load.completed_per_sec(),
                    static_cast<unsigned long long>(load.PercentileUs(50)),
                    static_cast<unsigned long long>(load.PercentileUs(99)),
                    i + 1 < rows.size() ? "," : "");
      out << line;
    }
    out << "  ],\n";
    std::snprintf(line, sizeof(line),
                  "  \"e17\": {\"connections\": %d, "
                  "\"baseline_conversions_per_sec\": %.1f, "
                  "\"telemetry_conversions_per_sec\": %.1f, "
                  "\"delta_pct\": %.2f, \"scrapes\": %llu, "
                  "\"deltas_pct\": [",
                  e17.connections, e17.baseline_per_sec,
                  e17.telemetry_per_sec, e17.delta * 100.0,
                  static_cast<unsigned long long>(e17.scrapes));
    out << line;
    for (size_t i = 0; i < e17.deltas.size(); ++i) {
      std::snprintf(line, sizeof(line), "%s%.2f", i > 0 ? ", " : "",
                    e17.deltas[i] * 100.0);
      out << line;
    }
    out << "]}\n}\n";
  }
  // Checked after the JSON is written, so a failing run still records
  // what it measured.
  if (!smoke && e17.delta >= 0.03) {
    std::fprintf(stderr,
                 "bench_daemon: FAILED (E17 median telemetry overhead "
                 "%.1f%% >= 3%% ceiling)\n",
                 e17.delta * 100.0);
    return 1;
  }
  std::printf("daemon load sound: zero dropped requests, drain-under-traffic "
              "contract held\n");
  return 0;
}

}  // namespace
}  // namespace dbpc

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_daemon [--smoke] [--json <file>]\n");
      return 2;
    }
  }
  return dbpc::RunAll(smoke, json_path);
}
