#include "convert/template_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "convert/provenance.h"
#include "corpus/corpus.h"
#include "generate/generator.h"
#include "optimize/stats.h"
#include "service/service.h"
#include "supervisor/supervisor.h"
#include "testing/fixtures.h"

namespace dbpc {
namespace {

using testing::Figure44Plan;

Schema CompanySchema() {
  return testing::MakeDatabase(testing::CompanyDdl()).schema();
}

/// Deterministic corpus programs of one shape (all convert automatically
/// for kMarylandReport; kAmbiguousOwner consults the analyst).
std::vector<Program> ShapePrograms(CorpusShape shape, int count) {
  CorpusMix mix;
  mix.maryland_reports = shape == CorpusShape::kMarylandReport ? count : 0;
  mix.sorted_reports = shape == CorpusShape::kSortedReport ? count : 0;
  mix.navigational_reports = 0;
  mix.nested_navigational = 0;
  mix.updates = 0;
  mix.deletions = 0;
  mix.stores = 0;
  mix.file_reports = 0;
  mix.ambiguous_owner = shape == CorpusShape::kAmbiguousOwner ? count : 0;
  mix.status_dependent = 0;
  mix.erase_in_scan = 0;
  mix.runtime_variable = shape == CorpusShape::kRuntimeVariable ? count : 0;
  std::vector<Program> out;
  for (CorpusProgram& p : GenerateCompanyCorpus(mix, 1979)) {
    out.push_back(std::move(p.program));
  }
  return out;
}

Program OneMarylandReport() { return ShapePrograms(CorpusShape::kMarylandReport, 1)[0]; }

CachedConversion EntryFor(const Program& program, const std::string& context) {
  CachedConversion entry;
  entry.context = context;
  entry.canonical_body = program.body;
  entry.result.converted = program;
  entry.result.converted.name.clear();
  entry.accepted = true;
  return entry;
}

// --- options ---------------------------------------------------------------

TEST(TemplateCacheOptionsTest, DefaultsValidate) {
  EXPECT_TRUE(TemplateCacheOptions{}.Validate().ok());
}

TEST(TemplateCacheOptionsTest, RejectsNonPositiveShardsAndCapacity) {
  TemplateCacheOptions options;
  options.shards = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.shards = -3;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.shards = 1;
  options.capacity = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  // A disabled cache still validates its numbers: the service rejects a
  // nonsensical config before anyone flips enabled back on.
  options.enabled = false;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ServiceOptionsTest, InvalidCacheOptionsRejectedAtServiceEntry) {
  RestructuringPlan plan = Figure44Plan();
  ServiceOptions options;
  options.cache.capacity = -1;
  Result<std::unique_ptr<ConversionService>> service =
      ConversionService::Create(CompanySchema(), plan.View(), options);
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
}

// --- fingerprints ----------------------------------------------------------

TEST(FingerprintTest, DeterministicAndDiscriminating) {
  EXPECT_EQ(Fingerprint64("abc"), Fingerprint64("abc"));
  EXPECT_NE(Fingerprint64("abc"), Fingerprint64("abd"));
  EXPECT_NE(Fingerprint64(""), Fingerprint64(" "));
  EXPECT_NE(MixFingerprints(1, 2), MixFingerprints(2, 1));
}

TEST(CanonicalProgramTextTest, ExcludesNameAndProvenance) {
  Program a = OneMarylandReport();
  Program b = a;
  b.name = "SOMETHING-ELSE";
  EXPECT_EQ(CanonicalProgramText(a), CanonicalProgramText(b));

  // Provenance stamps render nowhere in ToSource, so canonical text (and
  // with it the memo key) is insensitive to them.
  Program stamped = a;
  StampSourceProvenance(&stamped, "test", "prestamp");
  EXPECT_EQ(CanonicalProgramText(a), CanonicalProgramText(stamped));

  // The body is what remains; a different body is a different template.
  ASSERT_FALSE(a.body.empty());
  Program truncated = a;
  truncated.body.pop_back();
  EXPECT_NE(CanonicalProgramText(a), CanonicalProgramText(truncated));
}

// --- LRU / sharding mechanics ----------------------------------------------

TEST(TemplateCacheTest, LruEvictsLeastRecentlyUsed) {
  Program program = OneMarylandReport();
  TemplateCacheOptions options;
  options.shards = 1;
  options.capacity = 2;
  TemplateCache cache(options);
  cache.Insert(1, EntryFor(program, "ctx"));
  cache.Insert(2, EntryFor(program, "ctx"));
  // Touch key 1 so key 2 is the least recently used.
  EXPECT_NE(cache.Lookup(1, "ctx", program), nullptr);
  EXPECT_EQ(cache.Insert(3, EntryFor(program, "ctx")), 1u);

  EXPECT_EQ(cache.Lookup(2, "ctx", program), nullptr);
  EXPECT_NE(cache.Lookup(1, "ctx", program), nullptr);
  EXPECT_NE(cache.Lookup(3, "ctx", program), nullptr);
  TemplateCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.inserts, 3u);
}

TEST(TemplateCacheTest, ReinsertRefreshesInsteadOfEvicting) {
  Program program = OneMarylandReport();
  TemplateCacheOptions options;
  options.shards = 1;
  options.capacity = 2;
  TemplateCache cache(options);
  cache.Insert(1, EntryFor(program, "old"));
  EXPECT_EQ(cache.Insert(1, EntryFor(program, "new")), 0u);
  EXPECT_EQ(cache.Stats().entries, 1u);
  EXPECT_EQ(cache.Lookup(1, "old", program), nullptr);
  EXPECT_NE(cache.Lookup(1, "new", program), nullptr);
}

TEST(TemplateCacheTest, ShardingKeepsEntriesWithinCapacity) {
  Program program = OneMarylandReport();
  TemplateCacheOptions options;
  options.shards = 4;
  options.capacity = 8;
  TemplateCache cache(options);
  for (uint64_t key = 0; key < 64; ++key) {
    cache.Insert(key, EntryFor(program, "ctx"));
  }
  TemplateCacheStats stats = cache.Stats();
  EXPECT_LE(stats.entries, 8u);
  EXPECT_EQ(stats.entries + stats.evictions, 64u);
  // Most recently inserted keys survive per shard.
  EXPECT_NE(cache.Lookup(63, "ctx", program), nullptr);
}

TEST(TemplateCacheTest, ClearCountsInvalidations) {
  Program program = OneMarylandReport();
  TemplateCache cache;
  cache.Insert(1, EntryFor(program, "ctx"));
  cache.Insert(2, EntryFor(program, "ctx"));
  EXPECT_EQ(cache.Clear(), 2u);
  EXPECT_EQ(cache.Stats().invalidations, 2u);
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Lookup(1, "ctx", program), nullptr);
}

TEST(TemplateCacheTest, VerificationTurnsCollisionsIntoMisses) {
  Program program = OneMarylandReport();
  TemplateCache cache;
  cache.Insert(1, EntryFor(program, "context A"));
  // Same 64-bit key, different key material: must miss, never serve.
  EXPECT_EQ(cache.Lookup(1, "context B", program), nullptr);
  Program other = program;
  other.body.pop_back();
  EXPECT_EQ(cache.Lookup(1, "context A", other), nullptr);
  EXPECT_NE(cache.Lookup(1, "context A", program), nullptr);
}

// --- supervisor integration ------------------------------------------------

struct Pipeline {
  Schema schema = CompanySchema();
  RestructuringPlan plan = Figure44Plan();
  TemplateCache cache;

  ConversionSupervisor Make(SupervisorOptions options = {},
                            bool with_cache = true) {
    if (with_cache) options.cache = &cache;
    Result<ConversionSupervisor> supervisor =
        ConversionSupervisor::Create(schema, plan.View(), options);
    EXPECT_TRUE(supervisor.ok()) << supervisor.status();
    return std::move(supervisor).value();
  }
};

TEST(TemplateCacheSupervisorTest, HitServesIdenticalArtifactsWithOwnName) {
  Pipeline p;
  ConversionSupervisor cached = p.Make();
  ConversionSupervisor uncached = p.Make({}, /*with_cache=*/false);

  Program first = OneMarylandReport();
  Program second = first;
  second.name = "SECOND-PROGRAM";

  PipelineOutcome cold = std::move(cached.ConvertProgram(first)).value();
  EXPECT_FALSE(cold.cache_hit);
  ASSERT_TRUE(cold.accepted);
  PipelineOutcome warm = std::move(cached.ConvertProgram(second)).value();
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_FALSE(warm.cache_key.empty());
  EXPECT_EQ(warm.cache_key, cold.cache_key);

  // The served program carries the *second* program's identity...
  EXPECT_EQ(warm.conversion.converted.name, "SECOND-PROGRAM");
  // ...and is otherwise byte-identical to the uncached pipeline's output.
  PipelineOutcome reference = std::move(uncached.ConvertProgram(second)).value();
  EXPECT_EQ(GenerateCplSource(warm.conversion.converted),
            GenerateCplSource(reference.conversion.converted));
  EXPECT_EQ(ProvenanceListing("X", warm.conversion.source_statements,
                              warm.conversion.converted),
            ProvenanceListing("X", reference.conversion.source_statements,
                              reference.conversion.converted));
  EXPECT_EQ(warm.classification, reference.classification);
  EXPECT_EQ(p.cache.Stats().hits, 1u);
}

// Regression (the provenance-split bug class): programs differing only in
// Provenance stamps share one memo entry, and a hit is fully stamped with
// per-program statement ids.
TEST(TemplateCacheSupervisorTest, ProvenanceOnlyDifferencesShareOneEntry) {
  Pipeline p;
  ConversionSupervisor supervisor = p.Make();

  Program plain = OneMarylandReport();
  Program stamped = plain;
  // Stamps from some earlier pipeline pass; operator== ignores them and so
  // must the memo key.
  StampSourceProvenance(&stamped, "previous", "stale-stamp");

  PipelineOutcome cold = std::move(supervisor.ConvertProgram(plain)).value();
  ASSERT_TRUE(cold.accepted);
  PipelineOutcome warm = std::move(supervisor.ConvertProgram(stamped)).value();
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(p.cache.Stats().entries, 1u);

  // The served conversion is totally stamped and its listing matches the
  // cold conversion's statement ids (the canonical bodies are identical,
  // so the pre-order numbering is too).
  EXPECT_EQ(UnstampedCount(warm.conversion.converted), 0u);
  EXPECT_EQ(ProvenanceListing(warm.conversion.converted.name,
                              warm.conversion.source_statements,
                              warm.conversion.converted),
            ProvenanceListing(cold.conversion.converted.name,
                              cold.conversion.source_statements,
                              cold.conversion.converted));
}

// Regression (the stale-statistics bug class): mutating the statistics
// catalog — or pointing a differently-switched supervisor at the same
// cache — must never serve the previously optimized fragment.
TEST(TemplateCacheSupervisorTest, StaleStatisticsAreNeverServed) {
  Pipeline p;
  StatisticsCatalog catalog;
  SupervisorOptions options;
  options.statistics = &catalog;
  ConversionSupervisor supervisor = p.Make(options);

  Program program = OneMarylandReport();
  PipelineOutcome cold = std::move(supervisor.ConvertProgram(program)).value();
  ASSERT_TRUE(cold.accepted);
  PipelineOutcome warm = std::move(supervisor.ConvertProgram(program)).value();
  EXPECT_TRUE(warm.cache_hit);

  // In-place catalog mutation: same pointer, new contents, new key.
  Database db = testing::MakeCompanyDatabase();
  testing::FillCompany(&db, 3, 4);
  Database translated =
      std::move(dbpc::TranslateDatabase(db, p.plan.View())).value();
  catalog = StatisticsCatalog::Collect(translated);
  PipelineOutcome after_mutation =
      std::move(supervisor.ConvertProgram(program)).value();
  EXPECT_FALSE(after_mutation.cache_hit);
  // The refreshed statistics are now memoized under their own key.
  PipelineOutcome after_mutation_warm =
      std::move(supervisor.ConvertProgram(program)).value();
  EXPECT_TRUE(after_mutation_warm.cache_hit);

  // Toggling option switches addresses different entries even on a shared
  // cache: optimizer, index configuration, template lifting.
  SupervisorOptions no_optimizer;
  no_optimizer.run_optimizer = false;
  EXPECT_FALSE(std::move(p.Make(no_optimizer).ConvertProgram(program))
                   .value()
                   .cache_hit);
  SupervisorOptions no_indexes;
  no_indexes.index.enabled = false;
  no_indexes.index.auto_join_indexes = false;
  EXPECT_FALSE(std::move(p.Make(no_indexes).ConvertProgram(program))
                   .value()
                   .cache_hit);
  SupervisorOptions no_lifting;
  no_lifting.analyzer.lift_templates = false;
  EXPECT_FALSE(std::move(p.Make(no_lifting).ConvertProgram(program))
                   .value()
                   .cache_hit);
}

TEST(TemplateCacheSupervisorTest, AnalystConversionsAreNeverMemoized) {
  Pipeline p;
  SupervisorOptions options;
  options.analyst = ApproveAllAnalyst();
  ConversionSupervisor supervisor = p.Make(options);

  Program program = ShapePrograms(CorpusShape::kAmbiguousOwner, 1)[0];
  PipelineOutcome first = std::move(supervisor.ConvertProgram(program)).value();
  ASSERT_EQ(first.classification, Convertibility::kNeedsAnalyst);
  ASSERT_FALSE(first.analyst_log.empty());
  PipelineOutcome second =
      std::move(supervisor.ConvertProgram(program)).value();
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(p.cache.Stats().entries, 0u);
  // Both conversions consulted the analyst afresh.
  EXPECT_EQ(first.analyst_log, second.analyst_log);
}

TEST(TemplateCacheSupervisorTest, RefusalsAreMemoizedToo) {
  Pipeline p;
  ConversionSupervisor supervisor = p.Make();
  Program program = ShapePrograms(CorpusShape::kRuntimeVariable, 1)[0];
  PipelineOutcome cold = std::move(supervisor.ConvertProgram(program)).value();
  ASSERT_EQ(cold.classification, Convertibility::kNotConvertible);
  PipelineOutcome warm = std::move(supervisor.ConvertProgram(program)).value();
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.classification, Convertibility::kNotConvertible);
  EXPECT_FALSE(warm.accepted);
}

TEST(TemplateCacheSupervisorTest, TracedConversionsBypassTheCache) {
  Pipeline p;
  SpanCollector cached_spans;
  SupervisorOptions options;
  options.spans = &cached_spans;
  ConversionSupervisor supervisor = p.Make(options);

  Program program = OneMarylandReport();
  PipelineOutcome first = std::move(supervisor.ConvertProgram(program)).value();
  PipelineOutcome second =
      std::move(supervisor.ConvertProgram(program)).value();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(p.cache.Stats().hits, 0u);
  EXPECT_EQ(p.cache.Stats().entries, 0u);

  // The traced forest matches an uncached supervisor's exactly.
  SpanCollector plain_spans;
  SupervisorOptions plain_options;
  plain_options.spans = &plain_spans;
  ConversionSupervisor plain = p.Make(plain_options, /*with_cache=*/false);
  (void)std::move(plain.ConvertProgram(program)).value();
  (void)std::move(plain.ConvertProgram(program)).value();
  EXPECT_EQ(cached_spans.ToText(false), plain_spans.ToText(false));
}

// Golden output for the --explain marker (dbpcc prints this line verbatim
// on a memoized outcome; candidate costs below it are historical).
TEST(TemplateCacheSupervisorTest, ExplainCacheLineGolden) {
  PipelineOutcome outcome;
  EXPECT_EQ(ExplainCacheLine(outcome), "");
  outcome.cache_hit = true;
  outcome.cache_key = "0x00000000deadbeef";
  EXPECT_EQ(ExplainCacheLine(outcome),
            "  plan: cached (memo key 0x00000000deadbeef); candidate costs "
            "below were enumerated when the cache entry was populated\n");
}

// --- service integration ---------------------------------------------------

TEST(TemplateCacheServiceTest, WorkersShareOneCacheAndCountersLand) {
  RestructuringPlan plan = Figure44Plan();
  std::vector<Program> distinct = ShapePrograms(CorpusShape::kMarylandReport, 4);
  std::vector<ConversionRequest> requests;
  for (int repeat = 0; repeat < 6; ++repeat) {
    for (const Program& program : distinct) {
      ConversionRequest request;
      request.program = program;
      requests.push_back(std::move(request));
    }
  }

  ServiceOptions cached_options;
  cached_options.jobs = 4;
  cached_options.supervisor.analyst = ApproveAllAnalyst();
  std::unique_ptr<ConversionService> cached =
      std::move(ConversionService::Create(CompanySchema(), plan.View(),
                                          cached_options))
          .value();
  ASSERT_NE(cached->cache(), nullptr);

  ServiceOptions uncached_options = cached_options;
  uncached_options.jobs = 1;
  uncached_options.cache.enabled = false;
  std::unique_ptr<ConversionService> uncached =
      std::move(ConversionService::Create(CompanySchema(), plan.View(),
                                          uncached_options))
          .value();
  ASSERT_EQ(uncached->cache(), nullptr);

  SystemConversionReport warm_report =
      std::move(cached->ConvertSystem(requests)).value();
  SystemConversionReport cold_report =
      std::move(uncached->ConvertSystem(requests)).value();

  // Byte-identical reports cache on/off, any worker count.
  EXPECT_EQ(warm_report.ToText(), cold_report.ToText());
  ASSERT_EQ(warm_report.outcomes.size(), cold_report.outcomes.size());
  for (size_t i = 0; i < warm_report.outcomes.size(); ++i) {
    EXPECT_EQ(
        GenerateCplSource(warm_report.outcomes[i].conversion.converted),
        GenerateCplSource(cold_report.outcomes[i].conversion.converted));
  }

  // 4 distinct templates, 24 requests, all shards and workers sharing the
  // one memo; the counters land in the service registry (and from there
  // in --metrics-json and daemon METRICS). Workers racing on the same
  // cold template each miss and convert independently (the memo does not
  // coalesce in-flight conversions), so under a 4-worker pool the miss
  // count is at least one per template but can reach one per worker per
  // template; every lookup is exactly one hit or one miss either way.
  MetricsRegistry& metrics = cached->metrics();
  const uint64_t misses = metrics.GetCounter("cache.misses")->Value();
  const uint64_t hits = metrics.GetCounter("cache.hits")->Value();
  EXPECT_GE(misses, 4u);
  EXPECT_LE(misses, 4u * static_cast<uint64_t>(cached_options.jobs));
  EXPECT_EQ(hits + misses, requests.size());
  EXPECT_EQ(cached->cache()->Stats().entries, 4u);
  for (const char* key :
       {"cache.hits", "cache.misses", "cache.evictions",
        "cache.invalidations", "cache.traced_bypass"}) {
    EXPECT_NE(metrics.ToJson().find(key), std::string::npos) << key;
  }
  EXPECT_EQ(metrics.GetCounter("cache.misses")->Value() +
                metrics.GetCounter("cache.hits")->Value(),
            requests.size());

  // Operational flush: entries drop and the invalidation is counted.
  cached->InvalidateCache();
  EXPECT_EQ(cached->cache()->Stats().entries, 0u);
  EXPECT_EQ(metrics.GetCounter("cache.invalidations")->Value(), 4u);
}

TEST(TemplateCacheServiceTest, ExternalCacheIsSharedAcrossServices) {
  RestructuringPlan plan = Figure44Plan();
  TemplateCache shared;
  ServiceOptions options;
  options.supervisor.cache = &shared;
  std::unique_ptr<ConversionService> a =
      std::move(ConversionService::Create(CompanySchema(), plan.View(),
                                          options))
          .value();
  std::unique_ptr<ConversionService> b =
      std::move(ConversionService::Create(CompanySchema(), plan.View(),
                                          options))
          .value();
  EXPECT_EQ(a->cache(), &shared);
  EXPECT_EQ(b->cache(), &shared);

  ConversionRequest request;
  request.program = OneMarylandReport();
  (void)a->Convert(request, 1);
  ConversionResponse warm = b->Convert(request, 2);
  EXPECT_TRUE(warm.outcome.cache_hit);
  EXPECT_EQ(b->metrics().GetCounter("cache.hits")->Value(), 1u);
}

// --- concurrency (runs under -DDBPC_SANITIZE=thread in check.sh) -----------

TEST(TemplateCacheConcurrencyTest, ParallelLookupsAndInsertsAreSafe) {
  Program program = OneMarylandReport();
  TemplateCacheOptions options;
  options.shards = 4;
  options.capacity = 32;  // small: forces concurrent eviction
  TemplateCache cache(options);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::atomic<uint64_t> served{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        uint64_t key = static_cast<uint64_t>((t * 7 + i) % 64);
        std::shared_ptr<const CachedConversion> entry =
            cache.Lookup(key, "ctx", program);
        if (entry != nullptr) {
          // Read through the entry while another thread may evict it.
          served.fetch_add(entry->canonical_body.size());
        } else {
          cache.Insert(key, EntryFor(program, "ctx"));
        }
        if (i % 500 == 0 && t == 0) cache.Clear();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  TemplateCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_LE(stats.entries, 32u);
  EXPECT_GT(served.load(), 0u);
}

TEST(TemplateCacheConcurrencyTest, ServiceBatchUnderContention) {
  RestructuringPlan plan = Figure44Plan();
  std::vector<Program> distinct = ShapePrograms(CorpusShape::kSortedReport, 3);
  std::vector<ConversionRequest> requests;
  for (int repeat = 0; repeat < 16; ++repeat) {
    for (const Program& program : distinct) {
      ConversionRequest request;
      request.program = program;
      requests.push_back(std::move(request));
    }
  }
  ServiceOptions options;
  options.jobs = 8;
  options.supervisor.analyst = ApproveAllAnalyst();
  std::unique_ptr<ConversionService> service =
      std::move(ConversionService::Create(CompanySchema(), plan.View(),
                                          options))
          .value();
  SystemConversionReport report =
      std::move(service->ConvertSystem(requests)).value();
  EXPECT_EQ(report.outcomes.size(), requests.size());
  MetricsRegistry& metrics = service->metrics();
  EXPECT_EQ(metrics.GetCounter("cache.hits")->Value() +
                metrics.GetCounter("cache.misses")->Value(),
            requests.size());
  // Every outcome for one template is identical regardless of which
  // worker (or the cache) produced it.
  for (size_t i = distinct.size(); i < report.outcomes.size(); ++i) {
    EXPECT_EQ(GenerateCplSource(report.outcomes[i].conversion.converted),
              GenerateCplSource(
                  report.outcomes[i % distinct.size()].conversion.converted));
  }
}

}  // namespace
}  // namespace dbpc
