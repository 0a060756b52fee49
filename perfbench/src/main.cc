// perfbench — the dbpc benchmark: one command, three workloads, every
// output checked. See README.md for the metrics, the workloads and why each
// exists; run.py builds this binary and the daemon from source.
//
//   perfbench --workload serve-hot|serve-cold|migrate --seed N --seconds S
//             --trace 0|1 --root <checkout> --dbpcd <binary> --workdir <dir>
//             [--smoke] [--stamp key=value ...]
//
// The last line of standard output is the result object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics under --trace 0 and the per-layer metrics
// (from a run that also records spans) under --trace 1.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "layers.h"
#include "serve_io.h"
#include "util.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string root = ".";
  std::string dbpcd;
  std::string workdir = ".";
  std::vector<std::string> stamps;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve-hot|serve-cold|migrate --seed N --seconds S --trace 0|1 "
               "--root DIR --dbpcd PATH --workdir DIR [--smoke] "
               "[--stamp k=v]...\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      a.trace = value() == "1";
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--root") {
      a.root = value();
    } else if (arg == "--dbpcd") {
      a.dbpcd = value();
    } else if (arg == "--workdir") {
      a.workdir = value();
    } else if (arg == "--stamp") {
      a.stamps.push_back(value());
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (a.workload != "serve-hot" && a.workload != "serve-cold" &&
      a.workload != "migrate") {
    Usage("unknown workload");
  }
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  return a;
}

/// The thread budget: one generator thread, one reactor, and the rest of
/// the cores as conversion workers, so the load never competes with the
/// daemon for a core it needs.
struct Budget {
  int nproc = 1;
  int generator_threads = 1;
  int io_threads = 1;
  int workers = 1;
  int connections = 1;
};

Budget MakeBudget() {
  Budget b;
  b.nproc = static_cast<int>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
  b.workers = std::max(1, b.nproc - b.generator_threads - b.io_threads);
  b.connections = b.nproc;
  return b;
}

/// Shortest round-trip decimal form: every digit as measured.
std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

struct Output {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
    std::printf("  %-34s %16.4f %s\n", name.c_str(), value, unit.c_str());
  }
  void Problem(const std::string& what) {
    correct = false;
    std::printf("  FAILED: %s\n", what.c_str());
  }
  void Count(uint64_t attempted_n, uint64_t failed_n) {
    attempted += attempted_n;
    failed += failed_n;
  }
  int Print() const {
    std::string json = "{\"correct\": ";
    json += correct && failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) json += ", ";
      json += "\"" + metrics[i].first + "\": {\"value\": " +
              Num(metrics[i].second.first) + ", \"unit\": \"" +
              metrics[i].second.second + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct && failed == 0 ? 0 : 1;
  }
};

double PeakRssSelfMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void PrintPhase(const char* name, const PhaseResult& phase) {
  std::printf("  phase %-12s attempted=%llu succeeded=%llu failed=%llu "
              "backpressured=%llu\n",
              name, static_cast<unsigned long long>(phase.attempted()),
              static_cast<unsigned long long>(phase.succeeded()),
              static_cast<unsigned long long>(phase.failed()),
              static_cast<unsigned long long>(phase.backpressured()));
}

/// Unit of a per-layer metric, from its name.
std::string LayerUnit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("us.p50") || ends("us.p99")) return "us";
  if (ends("records_per_s")) return "1/s";
  if (ends("_s")) return "s";
  if (ends("ratio")) return "ratio";
  return "count";
}

// ---------------------------------------------------------------- serve --

/// Per-workload serve settings. The open-loop rates sit near a fifth of each
/// workload's closed-loop saturation on a 4-core host (1 reactor, 2
/// workers): at half, a host stall of a few tens of milliseconds filled the
/// admission queue often enough to make the latencies unsteady. They are
/// fixed so that runs on one host are comparable.
struct ServeSettings {
  double open_rate = 0;     ///< requests/s in the open-loop phase
  int depth = 8;            ///< in-flight requests per connection, closed loop
  uint64_t warmup = 0;      ///< closed-loop requests before measuring
  int setups = 3;           ///< set-ups per run (setup_s is their median)
};

ServeSettings SettingsFor(const Args& args) {
  ServeSettings s;
  if (args.workload == "serve-hot") {
    s.open_rate = 6000;
    // Every template is cached many times over, and the load has run long
    // enough (about 2 s) for the host to give the vCPUs full speed.
    s.warmup = 60000;
  } else {
    s.open_rate = 1200;
    // More distinct programs than the template cache (4096 entries) and
    // the daemon's retained results (8192) hold, so the measured phases run
    // at steady memory with a full cache that evicts.
    s.warmup = 20000;
  }
  if (args.smoke) {
    s.open_rate /= 4;
    s.warmup = 300;
    s.setups = 1;
  }
  return s;
}

/// A started daemon plus connected generator; request indices continue
/// across phases so every payload is distinct where the workload says so.
struct ServeSession {
  std::unique_ptr<DaemonProcess> daemon;
  std::unique_ptr<LoadGenerator> load;
  uint64_t next_index = 0;
  std::deque<PhaseResult> phases;  ///< every phase, warm-up included

  const PhaseResult& Closed(const PayloadFn& make, double seconds, int depth,
                            uint64_t max_requests = UINT64_MAX) {
    phases.push_back(
        load->ClosedLoop(make, next_index, seconds, depth, max_requests));
    next_index += phases.back().attempted();
    return phases.back();
  }
  const PhaseResult& Open(const PayloadFn& make, double rate, double seconds) {
    phases.push_back(load->OpenLoop(make, next_index, rate, seconds));
    next_index += phases.back().attempted();
    return phases.back();
  }
};

/// Checks every answer of every phase against the uncached reference.
void VerifyServe(const Conversion& conversion, const Budget& budget,
                 const PayloadFn& make,
                 const std::vector<const PhaseResult*>& phases, Output* out) {
  uint64_t attempted = 0, failed = 0, refused = 0;
  for (const PhaseResult* p : phases) {
    attempted += p->attempted();
    refused += p->backpressured();
    for (const RequestRecord& r : p->requests) {
      if (!r.ok && !r.backpressured && ++failed <= 3) {
        std::printf("  request %llu not answered: %s\n",
                    static_cast<unsigned long long>(r.index), r.error.c_str());
      }
    }
  }
  const int64_t t0 = NowNs();
  Reference reference(conversion);
  const uint64_t mismatches =
      VerifyAnswers(phases, make, reference, budget.nproc);
  std::printf("  verified %llu answers against the uncached reference in "
              "%.2fs: %llu mismatches, %llu unanswered, %llu refused by "
              "backpressure\n",
              static_cast<unsigned long long>(attempted - failed - refused),
              SecondsBetween(t0, NowNs()),
              static_cast<unsigned long long>(mismatches),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(refused));
  if (mismatches > 0) out->Problem("daemon answers differ from the reference");
  if (failed > 0) out->Problem("requests not answered with a result");
  out->Count(attempted, failed + mismatches);
}

/// The generator must keep its schedule, or a starved generator would
/// pass for a slow daemon. The run is invalid when the generator's median
/// lateness exceeds this share of the measured p50 latency, with a 250 us
/// floor for scheduler noise; a
/// generator that cannot keep up falls further behind with every request,
/// so its median lateness grows. Rare hiccups show in the p99 instead.
constexpr double kLatenessBound = 0.25;

void CheckSchedule(const PhaseResult& open, Output* out) {
  const std::vector<double> late = LatenessUs(open);
  const double limit =
      std::max(250.0, kLatenessBound * Percentile(LatenciesUs(open), 50));
  std::printf("  generator lateness p50 %.1f us (limit %.1f us), p90 %.1f "
              "us, p99 %.1f us\n",
              Percentile(late, 50), limit, Percentile(late, 90),
              Percentile(late, 99));
  if (Percentile(late, 50) > limit) {
    out->Problem("load generator fell behind its schedule");
  }
}

/// The daemon's own view of a traced phase plus the layer timings it
/// needs; fills the daemon.*, template_cache.* and stage metrics and prints
/// the latency budget against the client-observed p50.
struct DaemonLayers {
  const PhaseResult* plain = nullptr;   ///< untraced open-loop phase
  const PhaseResult* traced = nullptr;  ///< traced open-loop phase
  MetricsData before;
  MetricsData after;
};

/// An untraced and a traced open-loop phase back to back (their p50
/// difference is the tracing overhead), with METRICS snapshots around the
/// traced one and a span per request and per client round trip.
DaemonLayers RunDaemonPhases(ServeSession* session, const PayloadFn& make,
                             double rate, double phase_s, SpanLog* spans,
                             Output* out) {
  DaemonLayers d;
  d.plain = &session->Open(make, rate, phase_s);
  d.before = session->daemon->Metrics();
  d.traced = &session->Open(make, rate, phase_s);
  d.after = session->daemon->Metrics();
  for (const RequestRecord& r : d.traced->requests) {
    if (!r.ok) continue;
    int32_t root = spans->Add("request", r.due_ns, r.done_ns, -1, r.index);
    spans->Add("daemon.submit", r.sent_ns, r.acked_ns, root, r.index);
    spans->Add("daemon.result", r.result_ns, r.done_ns, root, r.index);
  }
  PrintPhase("untraced", *d.plain);
  PrintPhase("traced", *d.traced);
  CheckSchedule(*d.traced, out);
  return d;
}

/// `workload_path` says whether the daemon is the workload's own
/// conversion path; when not (migrate), the stage metrics stay those of the
/// workload's in-process ConvertSystem.
void DaemonLayerMetrics(const DaemonLayers& d, const SpanLog& spans,
                        const std::vector<double>& hit_us, bool workload_path,
                        LayerMetrics* layers) {
  const MetricsData& a = d.after;
  const MetricsData& b = d.before;
  const double client_p50 = Percentile(LatenciesUs(*d.traced), 50);
  const HistogramData request_h = a.HistogramDelta(b, "daemon.request_us");
  const double completed = static_cast<double>(request_h.count);
  const double hits =
      static_cast<double>(a.Counter("cache.hits") - b.Counter("cache.hits"));
  const double hit_share = completed > 0 ? hits / completed : 0;
  const double request_p50 = HistogramQuantile(request_h, 0.5);
  auto& m = *layers;
  m["daemon.submit_ack_us.p50"] = Median(spans.SelfMicros("daemon.submit"));
  m["daemon.result_us.p50"] = Median(spans.SelfMicros("daemon.result"));
  m["daemon.queue_wait_us.p50"] =
      HistogramQuantile(a.HistogramDelta(b, "daemon.queue_wait_us"), 0.5);
  m["daemon.request_us.p50"] = request_p50;
  m["daemon.wire_us.p50"] = client_p50 - request_p50;
  m["daemon.backpressure"] = static_cast<double>(
      a.Counter("daemon.submits_rejected") - b.Counter("daemon.submits_rejected"));
  m["loadgen.late_us.p99"] = Percentile(LatenessUs(*d.traced), 99);
  m["template_cache.hit_ratio"] = hit_share;
  m["template_cache.evictions"] = static_cast<double>(
      a.Counter("cache.evictions") - b.Counter("cache.evictions"));
  // METRICS does not refresh the sampled cache.entries gauge, so residency
  // is derived: every miss inserts one entry, evictions remove them.
  m["template_cache.entries"] = static_cast<double>(
      a.Counter("cache.misses") - a.Counter("cache.evictions"));

  // The budget: each layer's p50 time per request, requests that skip a
  // layer counting as zero, against the client-observed p50. The rows plus
  // the remainder add up to that p50 by construction.
  std::vector<std::pair<std::string, double>> rows;
  rows.push_back({"wire + reactor (client p50 - server p50)",
                  m["daemon.wire_us.p50"]});
  rows.push_back({"admission + queue wait", m["daemon.queue_wait_us.p50"]});
  rows.push_back({"parse", m["lang.parse_us.p50"]});
  rows.push_back({"cache lookup (hit path)",
                  hit_share > 0.5 && !hit_us.empty()
                      ? Percentile(hit_us, 100 * (hit_share - 0.5) / hit_share)
                      : 0});
  double pipeline = m["lang.parse_us.p50"];
  for (const char* stage : {"analyze", "convert", "optimize", "generate"}) {
    const HistogramData h =
        a.HistogramDelta(b, std::string("stage.") + stage + "_us");
    if (workload_path) {
      m[std::string(stage) + ".us.p50"] = HistogramQuantile(h, 0.5);
    }
    const double share = completed > 0 ? h.count / completed : 0;
    const double us = ZeroInflatedMedian(h, share);
    char name[64];
    std::snprintf(name, sizeof(name), "%s (on %.1f%% of requests)", stage,
                  100 * share);
    rows.push_back({name, us});
    pipeline += us;
  }
  double explained = 0;
  std::printf("\n  latency budget at p50 (traced phase, %zu requests):\n",
              d.traced->requests.size());
  for (const auto& [name, us] : rows) {
    std::printf("    %-44s %10.1f us\n", name.c_str(), us);
    explained += us;
  }
  std::printf("    %-44s %10.1f us\n", "unexplained remainder",
              client_p50 - explained);
  std::printf("    %-44s %10.1f us\n", "= client-observed latency p50",
              client_p50);
  std::printf("  parse + Figure 4.1 stages = %.1f%% of the server-side p50 "
              "(%.1f us); template cache hit ratio %.3f\n",
              100 * pipeline / request_p50, request_p50, hit_share);
  std::printf("  tracing overhead: traced p50 %.1f us - untraced p50 %.1f us "
              "= %.1f us\n",
              client_p50, Percentile(LatenciesUs(*d.plain), 50),
              client_p50 - Percentile(LatenciesUs(*d.plain), 50));
  std::printf("  cross-check of stage p50s against timed in-process calls: "
              "analyze %.1f us (converter says %.1f), convert %.1f (%.1f), "
              "generate %.1f (timed call %.1f)\n",
              m["analyze.us.p50"], m["crosscheck.analyze_us.p50"],
              m["convert.us.p50"], m["crosscheck.convert_us.p50"],
              m["generate.us.p50"], m["crosscheck.generate_us.p50"]);
}

/// Prints the per-layer metrics and writes the span file.
int FinishTraced(const Args& args, const SpanLog& spans,
                 const LayerMetrics& layers, Output* out) {
  const std::string path = args.workdir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  if (spans.WriteChromeTrace(path)) {
    std::printf("  %zu spans written to %s\n", spans.size(), path.c_str());
  }
  std::printf("\n");
  for (const auto& [name, value] : layers) {
    if (name.rfind("crosscheck.", 0) == 0) continue;
    out->Metric(name, value, LayerUnit(name));
  }
  return out->Print();
}

DaemonConfig MakeDaemonConfig(const Args& args, const Budget& budget) {
  DaemonConfig config;
  config.binary = args.dbpcd;
  config.schema = args.root + "/samples/company.ddl";
  config.plan = args.root + "/samples/fig44.plan";
  config.workdir = args.workdir;
  config.jobs = budget.workers;
  config.io_threads = budget.io_threads;
  return config;
}

int RunServe(const Args& args, const Budget& budget,
             const Conversion& conversion) {
  const ServeSettings settings = SettingsFor(args);
  Output out;
  std::unique_ptr<HotMix> hot;
  std::unique_ptr<ColdMix> cold;
  PayloadFn make;
  std::vector<double> setup_s;
  std::deque<PhaseResult> retired;  // phases of earlier set-ups, verified too
  ServeSession session;
  const int setups = args.trace ? 1 : settings.setups;
  for (int s = 0; s < setups; ++s) {
    if (session.daemon) {
      session.daemon->Stop();
      for (PhaseResult& p : session.phases) retired.push_back(std::move(p));
      session = ServeSession();
    }
    // Set-up: input generation, daemon start, warm-up.
    const int64_t t0 = NowNs();
    if (args.workload == "serve-hot") {
      hot = std::make_unique<HotMix>(args.seed);
      make = [&hot](uint64_t i) { return hot->Make(i); };
    } else {
      cold = std::make_unique<ColdMix>(args.seed);
      make = [&cold](uint64_t i) { return cold->Make(i); };
    }
    session.daemon =
        std::make_unique<DaemonProcess>(MakeDaemonConfig(args, budget));
    session.load = std::make_unique<LoadGenerator>(session.daemon->port(),
                                                   budget.connections);
    session.Closed(make, 600, settings.depth, settings.warmup);
    setup_s.push_back(SecondsBetween(t0, NowNs()));
  }
  std::vector<const PhaseResult*> all;
  for (const PhaseResult& p : retired) all.push_back(&p);

  if (!args.trace) {
    const PhaseResult& closed =
        session.Closed(make, 0.4 * args.seconds, settings.depth);
    const PhaseResult& open =
        session.Open(make, settings.open_rate, 0.6 * args.seconds);
    const double peak_rss = session.daemon->PeakRssMb();
    session.daemon->Stop();
    std::printf("%s: %zu set-ups; closed loop %.1fs, %d connections x depth "
                "%d; open loop %.1fs at %.0f req/s\n",
                args.workload.c_str(), setup_s.size(), 0.4 * args.seconds,
                budget.connections, settings.depth, 0.6 * args.seconds,
                settings.open_rate);
    PrintPhase("warm-up", session.phases.front());
    PrintPhase("closed-loop", closed);
    PrintPhase("open-loop", open);
    const std::vector<double> lat = LatenciesUs(open);
    out.Metric("setup_s", Median(setup_s), "s");
    const std::vector<double> windows = WindowRates(closed, 10);
    std::printf("  closed-loop window rates:");
    for (double r : windows) std::printf(" %.0f", r);
    std::printf("\n");
    out.Metric("throughput_rps", Median(windows), "conv/s");
    out.Metric("latency_p50_us", WindowedLatencyUs(open, 50, 10), "us");
    out.Metric("latency_p90_us", WindowedLatencyUs(open, 90, 10), "us");
    out.Metric("peak_rss_mb", peak_rss, "MiB");
    std::printf("  pooled over %zu requests: latency p50 %.1f us, p90 %.1f "
                "us; diagnostic p99 %.1f us (%zu samples above it)\n",
                lat.size(), Percentile(lat, 50), Percentile(lat, 90),
                Percentile(lat, 99), lat.size() / 100);
    CheckSchedule(open, &out);
    for (const PhaseResult& p : session.phases) all.push_back(&p);
    VerifyServe(conversion, budget, make, all, &out);
    return out.Print();
  }

  SpanLog spans;
  const DaemonLayers d = RunDaemonPhases(&session, make, settings.open_rate,
                                         0.3 * args.seconds, &spans, &out);
  session.daemon->Stop();
  for (const PhaseResult& p : session.phases) all.push_back(&p);
  VerifyServe(conversion, budget, make, all, &out);

  // In-process layers on the payloads the traced phase sent.
  std::vector<Payload> sample;
  for (const RequestRecord& r : d.traced->requests) {
    if (sample.size() >= (args.smoke ? 200u : 2000u)) break;
    sample.push_back(make(r.index));
  }
  LayerMetrics layers;
  std::vector<double> hit_us;
  dbpc::ServiceOptions service_options;
  service_options.supervisor = DaemonLikeOptions();
  std::vector<ConvertedProgram> converted =
      MeasureProgramLayers(conversion, service_options, sample, budget.workers,
                           &spans, &layers, &hit_us);
  // The data layers on this workload's converted programs, over a small
  // COMPANY instance: timing only. The serve path's correctness gate is the
  // byte comparison above.
  if (converted.size() > 300) converted.resize(300);
  const dbpc::Database small = BuildCompany(conversion.schema, args.seed, 20, 50);
  Translated translated = MeasureTranslate(conversion, small, &spans, &layers);
  const uint64_t run_errors = MeasureRuns(small, &translated.target, converted,
                                          /*compare=*/false, &spans, &layers);
  if (run_errors > 0) out.Problem("converted programs failed to run");
  out.Count(converted.size(), run_errors);
  DaemonLayerMetrics(d, spans, hit_us, /*workload_path=*/true, &layers);
  return FinishTraced(args, spans, layers, &out);
}

// -------------------------------------------------------------- migrate --

/// The migrate sizes: a COMPANY source of `divisions` x `emps_per_div`
/// employees and `copies` rounds of the application-system mix.
struct MigrateSettings {
  int divisions = 120;
  int emps_per_div = 250;
  int copies = 12;
  int setups = 3;
  int min_passes = 3;
  double daemon_rate = 1500;  ///< traced run only: the daemon side phase
};

MigrateSettings MigrateSettingsFor(const Args& args) {
  MigrateSettings s;
  if (args.smoke) {
    s.divisions = 20;
    s.emps_per_div = 50;
    s.copies = 1;
    s.setups = 1;
    s.min_passes = 2;
    s.daemon_rate = 400;
  }
  return s;
}

/// ServiceOptions of the migration's conversion step: strictly automatic
/// (every accepted program must run equivalently), cost-based over the
/// translated database's statistics.
dbpc::ServiceOptions MigrateServiceOptions(int jobs,
                                           const dbpc::StatisticsCatalog* stats) {
  dbpc::ServiceOptions options;
  options.jobs = jobs;
  options.supervisor.mode = dbpc::AnalystMode::kStrict;
  options.supervisor.statistics = stats;
  return options;
}

/// The known section 1.1 defect this benchmark found, reproduced on every
/// migrate run so it stays visible while the migrate gate runs on sort
/// keys that end in a unique field: SORT ON a non-unique key is classified
/// automatic, but after the Figure 4.4 restructuring tied rows come out in
/// another order.
void ProbeSortTies(const Conversion& conversion) {
  using dbpc::Value;
  dbpc::Database source = Must(dbpc::Database::Create(conversion.schema), "db");
  const dbpc::RecordId div = Must(
      source.StoreRecord({"DIV",
                          {{"DIV-NAME", Value::String("MACHINERY")},
                           {"DIV-LOC", Value::String("EAST")}},
                          {}}),
      "store DIV");
  // Name order (A-1, A-2) differs from department order (ADMIN, SALES).
  const std::pair<const char*, const char*> employees[] = {{"A-1", "SALES"},
                                                           {"A-2", "ADMIN"}};
  for (const auto& [name, dept] : employees) {
    Must(source.StoreRecord({"EMP",
                             {{"EMP-NAME", Value::String(name)},
                              {"DEPT-NAME", Value::String(dept)},
                              {"AGE", Value::Int(30)}},
                             {{"DIV-EMP", div}}}),
         "store EMP");
  }
  dbpc::Program program = Must(dbpc::ParseProgram(R"(PROGRAM TIES.
  FOR EACH E IN SORT(FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP)) ON (AGE) DO
    GET EMP-NAME OF E INTO N.
    DISPLAY N.
  END-FOR.
END PROGRAM.)"),
                               "probe program");
  auto supervisor = Must(dbpc::ConversionSupervisor::Create(
                             conversion.schema, conversion.plan.View(),
                             MigrateServiceOptions(1, nullptr).supervisor),
                         "probe supervisor");
  dbpc::PipelineOutcome outcome =
      Must(supervisor.ConvertProgram(program), "probe conversion");
  dbpc::Database target = Must(
      dbpc::TranslateDatabase(source, conversion.plan.View()), "translate");
  const bool reproduced =
      outcome.accepted &&
      Must(dbpc::TraceOf(source, program, {}), "probe run") !=
          Must(dbpc::TraceOf(target, outcome.conversion.converted, {}),
               "probe run");
  std::printf("  known defect, not gated: SORT ON a non-unique key reorders "
              "ties after conversion: %s\n",
              reproduced ? "reproduced" : "not reproduced");
}

int RunMigrate(const Args& args, const Budget& budget,
               const Conversion& conversion) {
  const MigrateSettings settings = MigrateSettingsFor(args);
  Output out;
  dbpc::Database source = Must(dbpc::Database::Create(conversion.schema), "db");
  std::vector<dbpc::ConversionRequest> system;
  std::vector<double> setup_s;
  // Set-up: bulk-build the source database and generate the system. The
  // repeats for setup_s run after the passes, on a host already under load.
  auto set_up = [&] {
    const int64_t t0 = NowNs();
    source = BuildCompany(conversion.schema, args.seed, settings.divisions,
                          settings.emps_per_div);
    system = MigrateSystem(args.seed, settings.copies);
    setup_s.push_back(SecondsBetween(t0, NowNs()));
  };
  set_up();
  std::vector<dbpc::Program> originals;
  for (const dbpc::ConversionRequest& r : system) {
    originals.push_back(Must(dbpc::ParseProgram(r.source), "parse system"));
    originals.back().name = r.name;
  }
  std::printf("migrate: %zu source records, %zu programs, jobs=%d\n",
              source.RecordCount(), system.size(), budget.nproc);

  if (args.trace) {
    SpanLog spans;
    LayerMetrics layers;
    Translated translated = MeasureTranslate(conversion, source, &spans, &layers);
    std::vector<Payload> payloads;
    for (const dbpc::ConversionRequest& r : system) {
      payloads.push_back({r.name, r.source, false});
    }
    std::vector<double> hit_us;
    std::vector<ConvertedProgram> converted = MeasureProgramLayers(
        conversion, MigrateServiceOptions(budget.nproc, &translated.catalog),
        payloads, budget.nproc, &spans, &layers, &hit_us);
    const uint64_t failures = MeasureRuns(source, &translated.target, converted,
                                          /*compare=*/true, &spans, &layers);
    if (failures > 0) out.Problem("converted programs ran differently");
    out.Count(converted.size(), failures);

    // The daemon layers on this workload's programs: a side phase, off the
    // migrate path itself, so every layer is measured on every workload.
    ServeSession session;
    session.daemon =
        std::make_unique<DaemonProcess>(MakeDaemonConfig(args, budget));
    session.load = std::make_unique<LoadGenerator>(session.daemon->port(),
                                                   budget.connections);
    PayloadFn make = [&system](uint64_t i) {
      const dbpc::ConversionRequest& r = system[i % system.size()];
      Payload p;
      p.name = "R-" + std::to_string(i);
      p.source = "PROGRAM " + p.name + "." + r.source.substr(r.source.find('\n'));
      return p;
    };
    const DaemonLayers d = RunDaemonPhases(&session, make, settings.daemon_rate,
                                           0.2 * args.seconds, &spans, &out);
    session.daemon->Stop();
    std::vector<const PhaseResult*> phases;
    for (const PhaseResult& p : session.phases) phases.push_back(&p);
    VerifyServe(conversion, budget, make, phases, &out);
    DaemonLayerMetrics(d, spans, hit_us, /*workload_path=*/false, &layers);
    return FinishTraced(args, spans, layers, &out);
  }

  // Whole migrations, each from the same source: translate + collect,
  // convert the system, run every accepted program on the result.
  std::vector<double> rates, run_p50, run_p90, translate_s, convert_s, run_s;
  std::vector<ConvertedProgram> accepted;
  std::vector<uint64_t> first_traces;
  uint64_t failures = 0;
  const int64_t start = NowNs();
  int passes = 0;
  while (passes < settings.min_passes ||
         SecondsBetween(start, NowNs()) < args.seconds) {
    const int64_t t0 = NowNs();
    dbpc::Database target = Must(
        dbpc::TranslateDatabase(source, conversion.plan.View()), "translate");
    dbpc::StatisticsCatalog catalog = dbpc::StatisticsCatalog::Collect(target);
    const int64_t t1 = NowNs();
    auto service = Must(
        dbpc::ConversionService::Create(
            conversion.schema, conversion.plan.View(),
            MigrateServiceOptions(budget.nproc, &catalog)),
        "service");
    const int64_t t2 = NowNs();
    dbpc::SystemConversionReport report =
        Must(service->ConvertSystem(system), "ConvertSystem");
    const int64_t t3 = NowNs();
    std::vector<ConvertedProgram> pass_programs;
    std::vector<const dbpc::Program*> programs;
    std::vector<bool> writes;
    for (size_t i = 0; i < report.outcomes.size(); ++i) {
      dbpc::PipelineOutcome& o = report.outcomes[i];
      if (!o.accepted) continue;
      pass_programs.push_back(
          {originals[i], std::move(o.conversion.converted), o.classification});
    }
    for (const ConvertedProgram& p : pass_programs) {
      programs.push_back(&p.converted);
      writes.push_back(WritesDatabase(p.source));
    }
    const SystemRun run = RunSystem(&target, programs, writes, nullptr);
    failures += run.errors;
    double pass_run_s = 0;
    for (double us : run.run_us) pass_run_s += us / 1e6;
    run_p50.push_back(Percentile(run.run_us, 50));
    run_p90.push_back(Percentile(run.run_us, 90));
    translate_s.push_back(SecondsBetween(t0, t1));
    convert_s.push_back(SecondsBetween(t2, t3));
    run_s.push_back(pass_run_s);
    rates.push_back(static_cast<double>(system.size()) /
                    (translate_s.back() + convert_s.back() + pass_run_s));
    if (passes == 0) {
      first_traces = run.traces;
      accepted = std::move(pass_programs);
    } else if (run.traces != first_traces) {
      out.Problem("migration passes disagree");
      ++failures;
    }
    ++passes;
    out.Count(system.size(), 0);
  }

  // Section 1.1: each accepted program, run the same way on the source
  // database, must show the same non-database I/O as its conversion did.
  dbpc::Database reference = source;
  std::vector<const dbpc::Program*> sources;
  std::vector<bool> writes;
  for (const ConvertedProgram& p : accepted) {
    sources.push_back(&p.source);
    writes.push_back(WritesDatabase(p.source));
  }
  const SystemRun expected = RunSystem(&reference, sources, writes, nullptr);
  const uint64_t differing =
      CountDifferences(accepted, first_traces, expected.traces);
  if (differing > 0) out.Problem("converted programs ran differently");
  failures += differing + expected.errors;
  out.failed += failures;
  while (static_cast<int>(setup_s.size()) < settings.setups) set_up();
  ProbeSortTies(conversion);

  std::printf("  %d passes; per pass: translate %.4fs, convert %.4fs "
              "(jobs=%d), run %.4fs; %zu of %zu programs accepted\n",
              passes, Median(translate_s), Median(convert_s), budget.nproc,
              Median(run_s), accepted.size(), system.size());
  std::printf("  translate_s %.6f s\n  convert_s %.6f s\n  run_s %.6f s\n",
              Median(translate_s), Median(convert_s), Median(run_s));
  out.Metric("setup_s", Median(setup_s), "s");
  out.Metric("throughput_rps", Median(rates), "conv/s");
  out.Metric("latency_p50_us", Median(run_p50), "us");
  out.Metric("latency_p90_us", Median(run_p90), "us");
  out.Metric("peak_rss_mb", PeakRssSelfMb(), "MiB");
  return out.Print();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  SetDieHook(KillDaemons);
  const Args args = ParseArgs(argc, argv);
  const Budget budget = MakeBudget();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? " (smoke)" : "");
  std::printf("host: nproc=%d compiler=\"gcc %s\" build=%s threads: "
              "generator=%d reactor=%d workers=%d connections=%d",
              budget.nproc, __VERSION__, PERFBENCH_BUILD_TYPE,
              budget.generator_threads, budget.io_threads, budget.workers,
              budget.connections);
  for (const std::string& s : args.stamps) std::printf(" %s", s.c_str());
  std::printf("\n");
  if (budget.generator_threads + budget.io_threads + budget.workers >
      budget.nproc) {
    std::printf("  note: %d cores cannot hold the thread budget\n",
                budget.nproc);
  }
  const Conversion conversion =
      Conversion::Load(args.root + "/samples/company.ddl",
                       args.root + "/samples/fig44.plan");
  return args.workload == "migrate" ? RunMigrate(args, budget, conversion)
                                    : RunServe(args, budget, conversion);
}
