#include "layers.h"

#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

double Us(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e3;
}

}  // namespace

Conversion Conversion::Load(const std::string& ddl_path,
                            const std::string& plan_path) {
  return {Must(dbpc::ParseDdl(ReadFile(ddl_path)), ddl_path),
          Must(dbpc::ParsePlan(ReadFile(plan_path)), plan_path)};
}

dbpc::SupervisorOptions DaemonLikeOptions() {
  dbpc::SupervisorOptions options;
  options.mode = dbpc::AnalystMode::kAssisted;
  options.analyst = dbpc::ApproveAllAnalyst();
  return options;
}

Reference::Reference(const Conversion& conversion)
    : supervisor_(Must(dbpc::ConversionSupervisor::Create(
                           conversion.schema, conversion.plan.View(),
                           DaemonLikeOptions()),
                       "reference supervisor")) {}

ResultPrint Reference::Print(const Payload& payload) const {
  dbpc::Result<dbpc::Program> parsed = dbpc::ParseProgram(payload.source);
  if (!parsed.ok()) {
    dbpc::ConversionResponse failed;
    failed.state = dbpc::JobState::kFailed;
    return Fingerprint(failed);
  }
  dbpc::Program program = std::move(parsed).value();
  program.name = payload.name;
  dbpc::PipelineOutcome outcome =
      Must(supervisor_.ConvertProgram(program), "reference conversion");
  const std::string source =
      outcome.accepted ? dbpc::GenerateCplSource(outcome.conversion.converted)
                       : std::string();
  return Fingerprint(dbpc::JobState::kDone, outcome, source);
}

uint64_t VerifyAnswers(const std::vector<const PhaseResult*>& phases,
                       const PayloadFn& make, const Reference& reference,
                       int threads) {
  std::vector<const RequestRecord*> answered;
  for (const PhaseResult* phase : phases) {
    for (const RequestRecord& r : phase->requests) {
      if (r.ok) answered.push_back(&r);
    }
  }
  std::vector<uint64_t> mismatches(threads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < answered.size(); i += threads) {
        const Payload payload = make(answered[i]->index);
        if (!(reference.Print(payload) == answered[i]->print)) {
          if (++mismatches[t] <= 3) {
            std::printf("  answer for %s differs from the reference\n",
                        payload.name.c_str());
          }
        }
      }
    });
  }
  uint64_t total = 0;
  for (int t = 0; t < threads; ++t) {
    pool[t].join();
    total += mismatches[t];
  }
  return total;
}

std::vector<ConvertedProgram> MeasureProgramLayers(
    const Conversion& conversion, const dbpc::ServiceOptions& service_options,
    const std::vector<Payload>& payloads, int jobs, SpanLog* spans,
    LayerMetrics* out, std::vector<double>* hit_us) {
  const auto plan = conversion.plan.View();
  std::vector<dbpc::Program> programs;
  std::vector<double> parse_us;
  for (size_t i = 0; i < payloads.size(); ++i) {
    const int64_t t0 = NowNs();
    dbpc::Result<dbpc::Program> parsed = dbpc::ParseProgram(payloads[i].source);
    const int64_t t1 = NowNs();
    spans->Add("lang.parse", t0, t1, -1, i);
    parse_us.push_back(Us(t0, t1));
    programs.push_back(Must(std::move(parsed), "parse payload"));
    programs.back().name = payloads[i].name;
  }
  (*out)["lang.parse_us.p50"] = Median(parse_us);

  // The service as the workload's converter runs it: one worker, its own
  // template cache, payloads in arrival order.
  {
    dbpc::ServiceOptions options = service_options;
    options.jobs = 1;
    auto service = Must(dbpc::ConversionService::Create(conversion.schema, plan,
                                                        options),
                        "service");
    std::vector<double> convert_us;
    for (size_t i = 0; i < payloads.size(); ++i) {
      dbpc::ConversionRequest request;
      request.name = payloads[i].name;
      request.source = payloads[i].source;
      const int64_t t0 = NowNs();
      dbpc::ConversionResponse response = service->Convert(request, i + 1);
      const int64_t t1 = NowNs();
      if (response.state != dbpc::JobState::kDone) Die("in-process Convert failed");
      spans->Add("service.convert", t0, t1, -1, i);
      convert_us.push_back(Us(t0, t1));
    }
    (*out)["service.convert_us.p50"] = Median(convert_us);
  }

  // Warm ConvertProgram: the second conversion of a program is a hit.
  {
    dbpc::TemplateCache cache;
    dbpc::SupervisorOptions options = service_options.supervisor;
    options.cache = &cache;
    auto supervisor = Must(
        dbpc::ConversionSupervisor::Create(conversion.schema, plan, options),
        "cached supervisor");
    for (size_t i = 0; i < programs.size(); ++i) {
      Must(supervisor.ConvertProgram(programs[i]), "warm conversion");
      const int64_t t0 = NowNs();
      dbpc::PipelineOutcome hit =
          Must(supervisor.ConvertProgram(programs[i]), "cached conversion");
      const int64_t t1 = NowNs();
      if (!hit.cache_hit) continue;  // analyst conversions are never memoized
      spans->Add("template_cache.hit", t0, t1, -1, i);
      hit_us->push_back(Us(t0, t1));
    }
    (*out)["template_cache.hit_us.p50"] = Median(*hit_us);
  }

  // The uncached pipeline: stage times as the converter reports them and a
  // timed Program Generator call, to cross-check the daemon's stage.*_us.
  std::vector<ConvertedProgram> converted;
  {
    dbpc::SupervisorOptions options = service_options.supervisor;
    options.cache = nullptr;
    auto supervisor = Must(
        dbpc::ConversionSupervisor::Create(conversion.schema, plan, options),
        "uncached supervisor");
    std::vector<double> analyze_us, convert_us, generate_us;
    for (size_t i = 0; i < programs.size(); ++i) {
      dbpc::PipelineOutcome outcome =
          Must(supervisor.ConvertProgram(programs[i]), "uncached conversion");
      analyze_us.push_back(static_cast<double>(outcome.conversion.analyze_micros));
      convert_us.push_back(static_cast<double>(outcome.conversion.convert_micros));
      if (!outcome.accepted) continue;
      const int64_t t0 = NowNs();
      std::string text = dbpc::GenerateCplSource(outcome.conversion.converted);
      const int64_t t1 = NowNs();
      spans->Add("generate", t0, t1, -1, i);
      generate_us.push_back(Us(t0, t1));
      converted.push_back({programs[i], std::move(outcome.conversion.converted),
                           outcome.classification});
    }
    (*out)["crosscheck.analyze_us.p50"] = Median(analyze_us);
    (*out)["crosscheck.convert_us.p50"] = Median(convert_us);
    (*out)["crosscheck.generate_us.p50"] = Median(generate_us);
  }

  // The whole batch through ConvertSystem, at `jobs` workers and at one.
  std::vector<dbpc::ConversionRequest> requests;
  for (const Payload& p : payloads) {
    dbpc::ConversionRequest request;
    request.name = p.name;
    request.source = p.source;
    requests.push_back(std::move(request));
  }
  for (int workers : {jobs, 1}) {
    dbpc::ServiceOptions options = service_options;
    options.jobs = workers;
    auto service = Must(dbpc::ConversionService::Create(conversion.schema, plan,
                                                        options),
                        "batch service");
    const int64_t t0 = NowNs();
    Must(service->ConvertSystem(requests), "ConvertSystem");
    const int64_t t1 = NowNs();
    spans->Add(workers == 1 && jobs != 1 ? "service.convert_system_jobs1"
                                         : "service.convert_system",
               t0, t1, -1, 0);
    (*out)[workers == 1 ? "service.convert_system_jobs1_s"
                        : "service.convert_system_s"] = Us(t0, t1) / 1e6;
    if (workers == jobs) {
      const MetricsData metrics = ParseMetricsJson(service->metrics().ToJson());
      (*out)["optimize.plans_costed"] =
          static_cast<double>(metrics.Counter("optimizer.plans_costed"));
      for (const char* stage : {"analyze", "convert", "optimize", "generate"}) {
        auto h = metrics.histograms.find(std::string("stage.") + stage + "_us");
        (*out)[std::string(stage) + ".us.p50"] =
            h == metrics.histograms.end() ? 0 : HistogramQuantile(h->second, 0.5);
      }
    }
  }
  return converted;
}

SystemRun RunSystem(dbpc::Database* db,
                    const std::vector<const dbpc::Program*>& programs,
                    const std::vector<bool>& writes, SpanLog* spans) {
  db->ResetStats();
  dbpc::Database work = *db;
  dbpc::Interpreter reader(db, dbpc::IoScript{});
  dbpc::Interpreter writer(&work, dbpc::IoScript{});
  SystemRun out;
  for (size_t i = 0; i < programs.size(); ++i) {
    dbpc::Interpreter& interpreter = writes[i] ? writer : reader;
    const int64_t t0 = NowNs();
    dbpc::Result<dbpc::RunResult> run = interpreter.Run(*programs[i]);
    const int64_t t1 = NowNs();
    out.run_us.push_back(Us(t0, t1));
    if (spans != nullptr) spans->Add("lang.run", t0, t1, -1, i);
    if (!run.ok()) {
      std::printf("  %s failed to run: %s\n", programs[i]->name.c_str(),
                  run.status().ToString().c_str());
      ++out.errors;
      out.traces.push_back(0);
      continue;
    }
    out.steps += run->steps;
    out.traces.push_back(dbpc::Fingerprint64(run->trace.ToString()));
  }
  const dbpc::OpStats& a = db->stats();
  const dbpc::OpStats& b = work.stats();
  out.ops.records_read = a.records_read + b.records_read;
  out.ops.records_written = a.records_written + b.records_written;
  out.ops.records_erased = a.records_erased + b.records_erased;
  out.ops.members_scanned = a.members_scanned + b.members_scanned;
  out.ops.links_changed = a.links_changed + b.links_changed;
  out.ops.index_probes = a.index_probes + b.index_probes;
  out.ops.index_hits = a.index_hits + b.index_hits;
  return out;
}

Translated MeasureTranslate(const Conversion& conversion,
                            const dbpc::Database& source, SpanLog* spans,
                            LayerMetrics* out) {
  const int64_t t0 = NowNs();
  dbpc::Database target = Must(
      dbpc::TranslateDatabase(source, conversion.plan.View()), "translate");
  const int64_t t1 = NowNs();
  dbpc::StatisticsCatalog catalog = dbpc::StatisticsCatalog::Collect(target);
  const int64_t t2 = NowNs();
  target.RebuildIndexes();
  const int64_t t3 = NowNs();
  spans->Add("restructure.translate", t0, t1, -1, 0);
  spans->Add("optimize.stats_collect", t1, t2, -1, 0);
  spans->Add("engine.rebuild_indexes", t2, t3, -1, 0);
  (*out)["restructure.translate_s"] = Us(t0, t1) / 1e6;
  (*out)["optimize.stats_collect_s"] = Us(t1, t2) / 1e6;
  (*out)["engine.rebuild_indexes_s"] = Us(t2, t3) / 1e6;
  (*out)["restructure.records"] = static_cast<double>(target.RecordCount());
  (*out)["restructure.records_per_s"] =
      static_cast<double>(source.RecordCount()) / (Us(t0, t1) / 1e6);
  return {std::move(target), std::move(catalog)};
}

uint64_t MeasureRuns(const dbpc::Database& source, dbpc::Database* target,
                     const std::vector<ConvertedProgram>& programs,
                     bool compare, SpanLog* spans, LayerMetrics* out) {
  std::vector<const dbpc::Program*> converted, original;
  std::vector<bool> writes;
  for (const ConvertedProgram& p : programs) {
    converted.push_back(&p.converted);
    original.push_back(&p.source);
    writes.push_back(WritesDatabase(p.source));
  }
  const SystemRun run = RunSystem(target, converted, writes, spans);
  double run_s = 0;
  for (double us : run.run_us) run_s += us / 1e6;
  (*out)["lang.run_us.p50"] = Median(run.run_us);
  (*out)["lang.run_s"] = run_s;
  (*out)["lang.steps"] = static_cast<double>(run.steps);
  (*out)["engine.ops_total"] = static_cast<double>(run.ops.Total());
  (*out)["engine.records_read"] = static_cast<double>(run.ops.records_read);
  (*out)["engine.members_scanned"] =
      static_cast<double>(run.ops.members_scanned);
  (*out)["engine.index_probes"] = static_cast<double>(run.ops.index_probes);
  if (!compare) return run.errors;

  dbpc::Database reference = source;
  const SystemRun expected = RunSystem(&reference, original, writes, nullptr);
  return run.errors + expected.errors +
         CountDifferences(programs, run.traces, expected.traces);
}

uint64_t CountDifferences(const std::vector<ConvertedProgram>& programs,
                          const std::vector<uint64_t>& converted_traces,
                          const std::vector<uint64_t>& source_traces) {
  uint64_t differing = 0;
  for (size_t i = 0; i < programs.size(); ++i) {
    if (programs[i].classification != dbpc::Convertibility::kAutomatic ||
        converted_traces[i] == source_traces[i]) {
      continue;
    }
    std::printf("  section 1.1 violated: %s ran differently after "
                "conversion\n",
                programs[i].source.name.c_str());
    ++differing;
  }
  return differing;
}

}  // namespace perfbench
