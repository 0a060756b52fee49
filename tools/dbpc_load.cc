// dbpc_load — load generator for a running dbpcd.
//
// Opens N concurrent sessions and drives closed-loop (or rate-limited)
// SUBMIT + RESULT WAIT round trips for a fixed duration, then reports
// client-observed latency percentiles, sustained conversions/sec and an
// exact account of every request: accepted / refused / failed /
// backpressured — and, the number that matters for the daemon's contract,
// requests dropped without any response (a healthy daemon keeps this 0:
// overload is answered with `-ERR unavailable`, never a silent drop).
//
//   dbpc_load --port 7411 --connections 64 --duration-ms 2000
//
// Flags:
//   --host <addr>          daemon address (default 127.0.0.1)
//   --port <n>             daemon port (required)
//   --connections <n>      concurrent sessions (default 8)
//   --duration-ms <n>      how long each session submits (default 2000)
//   --rps <n>              global submit rate cap; 0 = closed loop (default)
//   --open-loop            open-loop mode (requires --rps > 0): latency is
//                          measured from each request's *scheduled* arrival
//                          time, not from when the worker got around to
//                          sending it, so a slow server shows up as rising
//                          latency (coordinated-omission-corrected) instead
//                          of silently lowering the offered rate
//   --deadline-ms <n>      per-request deadline_ms= on every SUBMIT
//   --malformed-pct <n>    percent of payloads replaced by non-CPL garbage
//                          (exercises the parse-error path; default 0)
//   --trace-pct <n>        percent of submits with trace=1 (default 0)
//   --program <file>       CPL payload source, repeatable; round-robin mix.
//                          Without it, the driver's two company-schema
//                          programs (DefaultLoadPayloads) are used.
//   --report <file>        write the summary as JSON ("-" for stdout)
//   --scrape-url <url>     dbpcd admin endpoint (http://host:port or
//                          host:port); /metrics is scraped before and
//                          after the run and the daemon-side queue depth
//                          and conversions/sec land in the JSON report
//                          next to the client-observed numbers
//   --drain                finish by sending DRAIN and checking it succeeds
//   --quiet                suppress the human-readable summary
//
// Sessions are driven by the library's load driver (RunLoad, daemon/load.h),
// the same one bench_daemon uses.
//
// Exit status: 0 when every submitted request got a response (even an
// error one), any --drain succeeded, and any --scrape-url answered both
// scrapes; 1 otherwise; 2 on usage errors.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "api/dbpc.h"

namespace {

using namespace dbpc;

/// Splits "http://host:port" (or bare "host:port") into its parts.
bool ParseScrapeUrl(const std::string& url, std::string* host, int* port) {
  std::string rest = url;
  const std::string scheme = "http://";
  if (rest.rfind(scheme, 0) == 0) rest = rest.substr(scheme.size());
  size_t slash = rest.find('/');
  if (slash != std::string::npos) rest = rest.substr(0, slash);
  size_t colon = rest.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  *host = rest.substr(0, colon);
  *port = std::atoi(rest.c_str() + colon + 1);
  return *port > 0 && *port <= 65535;
}

/// The value of one exposition line ("<series> <value>"), or -1 when the
/// series is absent. Series names are matched at line starts only, so
/// "# TYPE <series> gauge" headers never shadow the sample.
double SeriesValue(const std::string& body, const std::string& series) {
  std::string needle = series + " ";
  size_t at;
  if (body.rfind(needle, 0) == 0) {
    at = 0;
  } else {
    at = body.find("\n" + needle);
    if (at == std::string::npos) return -1.0;
    ++at;
  }
  return std::atof(body.c_str() + at + needle.size());
}

/// One /metrics scrape reduced to the numbers the report records.
struct ScrapeSample {
  bool ok = false;
  double queue_depth = 0.0;
  double conversions_total = 0.0;
  double conversions_per_sec_10s = 0.0;
};

ScrapeSample ScrapeDaemon(const std::string& host, int port) {
  ScrapeSample sample;
  Result<HttpResponse> response = HttpGet(host, port, "/metrics");
  if (!response.ok() || response->status_code != 200) return sample;
  sample.ok = true;
  sample.queue_depth = SeriesValue(response->body, "dbpc_daemon_queue_depth");
  sample.conversions_total =
      SeriesValue(response->body, "dbpc_service_conversions_total");
  sample.conversions_per_sec_10s = SeriesValue(
      response->body, "dbpc_service_conversions_per_sec{window=\"10s\"}");
  return sample;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: dbpc_load --port <n> [--host <addr>] [--connections <n>] "
      "[--duration-ms <n>] [--rps <n>] [--open-loop] [--deadline-ms <n>] "
      "[--malformed-pct <n>] [--trace-pct <n>] [--program <file>]... "
      "[--report <file>] [--scrape-url <http://host:port>] [--drain] "
      "[--quiet]\n"
      "       --open-loop requires --rps > 0 (a fixed offered rate)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  LoadOptions config;
  std::string report_path;
  std::string scrape_url;
  bool drain = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](int* out) {
      if (i + 1 >= argc) return false;
      *out = std::atoi(argv[++i]);
      return true;
    };
    if (arg == "--host" && i + 1 < argc) {
      config.host = argv[++i];
    } else if (arg == "--port") {
      if (!next(&config.port)) return Usage();
    } else if (arg == "--connections") {
      if (!next(&config.connections)) return Usage();
    } else if (arg == "--duration-ms") {
      if (!next(&config.duration_ms)) return Usage();
    } else if (arg == "--rps") {
      if (!next(&config.rps)) return Usage();
    } else if (arg == "--open-loop") {
      config.open_loop = true;
    } else if (arg == "--deadline-ms") {
      if (!next(&config.deadline_ms)) return Usage();
    } else if (arg == "--malformed-pct") {
      if (!next(&config.malformed_pct)) return Usage();
    } else if (arg == "--trace-pct") {
      if (!next(&config.trace_pct)) return Usage();
    } else if (arg == "--program" && i + 1 < argc) {
      std::ifstream in(argv[++i]);
      if (!in) {
        std::fprintf(stderr, "dbpc_load: cannot open %s\n", argv[i]);
        return 2;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      config.payloads.push_back(buffer.str());
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg == "--scrape-url" && i + 1 < argc) {
      scrape_url = argv[++i];
    } else if (arg == "--drain") {
      drain = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return Usage();
    }
  }
  if (config.port <= 0 || config.connections < 1 || config.duration_ms < 1 ||
      config.malformed_pct < 0 || config.malformed_pct > 100 ||
      config.trace_pct < 0 || config.trace_pct > 100 ||
      (config.open_loop && config.rps <= 0)) {
    return Usage();
  }

  std::string scrape_host;
  int scrape_port = 0;
  if (!scrape_url.empty() &&
      !ParseScrapeUrl(scrape_url, &scrape_host, &scrape_port)) {
    std::fprintf(stderr, "dbpc_load: cannot parse --scrape-url \"%s\"\n",
                 scrape_url.c_str());
    return 2;
  }
  ScrapeSample scrape_before;
  if (!scrape_url.empty()) {
    scrape_before = ScrapeDaemon(scrape_host, scrape_port);
    if (!scrape_before.ok) {
      std::fprintf(stderr, "dbpc_load: initial scrape of %s failed\n",
                   scrape_url.c_str());
    }
  }

  LoadReport total = RunLoad(config);
  uint64_t p50 = total.PercentileUs(50);
  uint64_t p99 = total.PercentileUs(99);

  // Scraped before any --drain, while the 10s rate window still covers the
  // load interval.
  ScrapeSample scrape_after;
  if (!scrape_url.empty()) scrape_after = ScrapeDaemon(scrape_host, scrape_port);

  Status drained = Status::OK();
  if (drain) {
    Result<std::unique_ptr<DaemonClient>> client =
        DaemonClient::Connect(config.host, config.port);
    drained = client.ok() ? (*client)->Drain() : client.status();
  }

  std::string daemon_json;
  if (!scrape_url.empty()) {
    char scrape_buffer[512];
    if (scrape_before.ok && scrape_after.ok) {
      std::snprintf(
          scrape_buffer, sizeof(scrape_buffer),
          "  \"daemon\": {\n"
          "    \"queue_depth_before\": %.0f,\n"
          "    \"queue_depth_after\": %.0f,\n"
          "    \"conversions_total_before\": %.0f,\n"
          "    \"conversions_total_after\": %.0f,\n"
          "    \"conversions_per_sec_10s\": %.1f\n"
          "  },\n",
          scrape_before.queue_depth, scrape_after.queue_depth,
          scrape_before.conversions_total, scrape_after.conversions_total,
          scrape_after.conversions_per_sec_10s);
    } else {
      std::snprintf(scrape_buffer, sizeof(scrape_buffer),
                    "  \"daemon\": \"scrape failed\",\n");
    }
    daemon_json = scrape_buffer;
  }

  char buffer[2048];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\n"
      "  \"mode\": \"%s\",\n"
      "  \"offered_rps\": %d,\n"
      "  \"connections\": %d,\n"
      "  \"duration_s\": %.3f,\n"
      "  \"submitted\": %llu,\n"
      "  \"accepted\": %llu,\n"
      "  \"refused\": %llu,\n"
      "  \"failed\": %llu,\n"
      "  \"backpressure\": %llu,\n"
      "  \"dropped_without_response\": %llu,\n"
      "  \"connect_errors\": %llu,\n"
      "  \"conversions_per_sec\": %.1f,\n"
      "  \"p50_us\": %llu,\n"
      "  \"p99_us\": %llu,\n"
      "%s"
      "  \"drain\": \"%s\"\n"
      "}\n",
      config.open_loop ? "open-loop" : "closed-loop", config.rps,
      config.connections, total.elapsed_s,
      static_cast<unsigned long long>(total.submitted),
      static_cast<unsigned long long>(total.accepted),
      static_cast<unsigned long long>(total.refused),
      static_cast<unsigned long long>(total.failed),
      static_cast<unsigned long long>(total.backpressure),
      static_cast<unsigned long long>(total.dropped),
      static_cast<unsigned long long>(total.connect_errors),
      total.completed_per_sec(), static_cast<unsigned long long>(p50),
      static_cast<unsigned long long>(p99), daemon_json.c_str(),
      drain ? drained.ToString().c_str() : "not requested");

  if (!quiet) std::fputs(buffer, stderr);
  if (!report_path.empty()) {
    if (report_path == "-") {
      std::fputs(buffer, stdout);
    } else {
      std::ofstream out(report_path);
      if (!out) {
        std::fprintf(stderr, "dbpc_load: cannot write %s\n",
                     report_path.c_str());
        return 2;
      }
      out << buffer;
    }
  }
  bool clean = total.dropped == 0 && total.connect_errors == 0 &&
               (!drain || drained.ok()) &&
               (scrape_url.empty() || (scrape_before.ok && scrape_after.ok));
  return clean ? 0 : 1;
}
