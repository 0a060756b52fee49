#include "common/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace dbpc {
namespace {

TEST(CounterTest, IncrementsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.SumMicros(), 0u);
  EXPECT_EQ(h.MinMicros(), 0u);
  EXPECT_EQ(h.MaxMicros(), 0u);
  EXPECT_EQ(h.MeanMicros(), 0.0);
  EXPECT_EQ(h.PercentileMicros(50), 0u);
}

TEST(HistogramTest, RecordsSummaryStatistics) {
  Histogram h;
  h.Record(1);
  h.Record(10);
  h.Record(100);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.SumMicros(), 111u);
  EXPECT_EQ(h.MinMicros(), 1u);
  EXPECT_EQ(h.MaxMicros(), 100u);
  EXPECT_DOUBLE_EQ(h.MeanMicros(), 37.0);
}

TEST(HistogramTest, BucketsArePowersOfTwo) {
  Histogram h;
  h.Record(0);    // bucket 0: [0, 2)
  h.Record(1);    // bucket 0
  h.Record(2);    // bucket 1: [2, 4)
  h.Record(3);    // bucket 1
  h.Record(4);    // bucket 2: [4, 8)
  h.Record(500);  // bucket 8: [256, 512)
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(8), 1u);
}

TEST(HistogramTest, HugeSamplesLandInLastBucket) {
  Histogram h;
  h.Record(UINT64_MAX);
  EXPECT_EQ(h.BucketCount(Histogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.MaxMicros(), UINT64_MAX);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucketCappedAtMax) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.Record(1);
  h.Record(1000);
  // p50 falls in the [0,2) bucket and interpolates to 2*50/99 = 1 — not
  // the bucket's upper bound 2, which overstated fast percentiles by up
  // to 2x. p99.9 reaches the 1000us sample, whose in-bucket estimate
  // (1024) is capped at the observed max.
  EXPECT_EQ(h.PercentileMicros(50), 1u);
  EXPECT_EQ(h.PercentileMicros(99.9), 1000u);
}

TEST(HistogramTest, PercentileNeverBelowObservedMin) {
  Histogram h;
  h.Record(3);
  h.Record(3);
  // Interpolation inside [2,4) would put p50 at 3 exactly by luck of the
  // math, but a low rank must still clamp up to the observed min.
  EXPECT_GE(h.PercentileMicros(1), 3u);
  EXPECT_EQ(h.PercentileMicros(50), 3u);
  EXPECT_EQ(h.PercentileMicros(100), 3u);
}

TEST(HistogramTest, PercentileSpreadsEvenlyAcrossOneBucket) {
  Histogram h;
  // 8 samples spread over [256,512): estimates walk the bucket linearly
  // instead of all answering the upper bound.
  for (int i = 0; i < 8; ++i) h.Record(256 + 32 * static_cast<uint64_t>(i));
  uint64_t p25 = h.PercentileMicros(25);  // pos 2 of 8 -> 256 + 256*2/8
  uint64_t p75 = h.PercentileMicros(75);  // pos 6 of 8 -> 256 + 256*6/8
  EXPECT_EQ(p25, 320u);
  EXPECT_EQ(p75, 448u);
}

TEST(MetricsRegistryTest, NamesAreStableAndDistinct) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("a");
  Counter* b = registry.GetCounter("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, registry.GetCounter("a"));
  EXPECT_NE(static_cast<void*>(registry.GetHistogram("a")),
            static_cast<void*>(a));
}

TEST(MetricsRegistryTest, JsonSnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("zeta")->Increment(3);
  registry.GetCounter("alpha")->Increment();
  registry.GetHistogram("lat")->Record(5);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"alpha\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"zeta\": 3"), std::string::npos) << json;
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\"")) << json;
  EXPECT_NE(json.find("\"lat\": {\"count\": 1, \"sum_us\": 5"),
            std::string::npos)
      << json;
  // Snapshotting twice without activity is deterministic.
  EXPECT_EQ(json, registry.ToJson());
}

TEST(MetricsRegistryTest, JsonSnapshotEscapesNames) {
  // Program/stage names flow into metric names verbatim; quotes,
  // backslashes and control characters must not break the JSON.
  MetricsRegistry registry;
  registry.GetCounter("programs.RPT \"Q3\" \\ final")->Increment();
  registry.GetHistogram("stage.weird\nname")->Record(1);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"programs.RPT \\\"Q3\\\" \\\\ final\": 1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"stage.weird\\nname\""), std::string::npos) << json;
  // No raw quote-in-name survives: every line has an even quote count.
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    size_t quotes = 0;
    for (size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '"' && (i == 0 || line[i - 1] != '\\')) ++quotes;
    }
    EXPECT_EQ(quotes % 2, 0u) << line;
  }
}

TEST(MetricsRegistryTest, JsonSnapshotReportsPercentileEstimates) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat");
  // 90 fast samples in [0,2), 10 slow ones at 1000us: p50 interpolates
  // inside the first bucket (2*50/90 = 1); p95 and p99 interpolate within
  // the slow tail's [512,1024) bucket (512 + 512*5/10 and 512 + 512*9/10).
  for (int i = 0; i < 90; ++i) h->Record(1);
  for (int i = 0; i < 10; ++i) h->Record(1000);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"p50_us\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95_us\": 768"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_us\": 972"), std::string::npos) << json;
  // Field order within a histogram object is fixed.
  EXPECT_LT(json.find("\"p50_us\""), json.find("\"p95_us\"")) << json;
  EXPECT_LT(json.find("\"p95_us\""), json.find("\"p99_us\"")) << json;
}

TEST(MetricsRegistryTest, PercentileFieldsStayEscapedUnderHostileNames) {
  // The percentile fields extend the histogram JSON object; a hostile
  // histogram name must not break the object shape around them.
  MetricsRegistry registry;
  registry.GetHistogram("stage.\"evil\"\\name")->Record(3);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"stage.\\\"evil\\\"\\\\name\": {\"count\": 1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"p95_us\": 3"), std::string::npos) << json;
}

TEST(MetricsRegistryTest, ResetIsolatesSnapshots) {
  // Reset() gives tests a clean registry without re-registering names:
  // the percentile estimates drop back to zero with the buckets.
  MetricsRegistry registry;
  registry.GetHistogram("lat")->Record(500);
  EXPECT_NE(registry.ToJson().find("\"p95_us\": 500"), std::string::npos);
  registry.Reset();
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"p50_us\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95_us\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_us\": 0"), std::string::npos) << json;
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsNames) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment(7);
  registry.GetHistogram("h")->Record(7);
  registry.Reset();
  EXPECT_EQ(registry.GetCounter("c")->Value(), 0u);
  EXPECT_EQ(registry.GetHistogram("h")->Count(), 0u);
  EXPECT_NE(registry.ToJson().find("\"c\": 0"), std::string::npos);
}

TEST(GaugeTest, MovesBothWaysAndResets) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Add(5);
  g.Sub(2);
  EXPECT_EQ(g.Value(), 3);
  g.Sub(7);
  EXPECT_EQ(g.Value(), -4);  // signed: transient dips below zero are legal
  g.Set(42);
  EXPECT_EQ(g.Value(), 42);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(GaugeTest, ConcurrentAddSubBalancesToZero) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) {
        g.Add(1);
        g.Sub(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(g.Value(), 0);
}

TEST(RollingRateTest, WindowAveragesAtTheSeam) {
  RollingRate rate;
  // 30 events at second 100, 10 at second 101, observed at second 101:
  // 1s window sees only the current second, 10s averages both.
  rate.TickAtSecond(100, 30);
  rate.TickAtSecond(101, 10);
  EXPECT_EQ(rate.Total(), 40u);
  EXPECT_DOUBLE_EQ(rate.PerSecondAtSecond(101, 1), 10.0);
  EXPECT_DOUBLE_EQ(rate.PerSecondAtSecond(101, 10), 4.0);
  EXPECT_DOUBLE_EQ(rate.PerSecondAtSecond(101, 60), 40.0 / 60.0);
}

TEST(RollingRateTest, OldSecondsAgeOutOfTheWindow) {
  RollingRate rate;
  rate.TickAtSecond(100, 50);
  // Within the 10s window the burst is visible; 15 seconds later it is not.
  EXPECT_DOUBLE_EQ(rate.PerSecondAtSecond(105, 10), 5.0);
  EXPECT_DOUBLE_EQ(rate.PerSecondAtSecond(115, 10), 0.0);
  // The ring recycles the same slot 64 seconds later without double count.
  rate.TickAtSecond(100 + RollingRate::kWindowSeconds, 7);
  EXPECT_DOUBLE_EQ(
      rate.PerSecondAtSecond(100 + RollingRate::kWindowSeconds, 1), 7.0);
  EXPECT_EQ(rate.Total(), 57u);
}

TEST(RollingRateTest, ConcurrentTickersLoseNothingWithinASecond) {
  RollingRate rate;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  // Stamp the slot once up front: slot recycling deliberately tolerates a
  // one-second smear under concurrency, and this test pins the steady
  // state (everyone ticking an already-stamped second), not the seam.
  rate.TickAtSecond(500, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rate] {
      for (int i = 0; i < kPerThread; ++i) rate.TickAtSecond(500, 1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(rate.Total(), uint64_t{kThreads} * kPerThread);
  EXPECT_DOUBLE_EQ(rate.PerSecondAtSecond(500, 1),
                   static_cast<double>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, SnapshotCarriesEveryMetricKind) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment(3);
  registry.GetGauge("g")->Set(-5);
  registry.GetRate("r")->TickAtSecond(100, 4);
  registry.GetHistogram("h")->Record(10);
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "c");
  EXPECT_EQ(snap.counters[0].second, 3u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "g");
  EXPECT_EQ(snap.gauges[0].second, -5);
  ASSERT_EQ(snap.rates.size(), 1u);
  EXPECT_EQ(snap.rates[0].name, "r");
  EXPECT_EQ(snap.rates[0].total, 4u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "h");
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.histograms[0].buckets[3], 1u);  // 10us -> [8,16)
}

TEST(MetricsRegistryTest, JsonSnapshotIncludesGaugesAndRates) {
  MetricsRegistry registry;
  registry.GetGauge("daemon.queue_depth")->Set(12);
  registry.GetRate("service.conversions")->TickAtSecond(100, 5);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"daemon.queue_depth\": 12"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"service.conversions\": {\"total\": 5"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"per_sec_1s\""), std::string::npos) << json;
  // Section order is fixed: counters, gauges, rates, histograms.
  EXPECT_LT(json.find("\"counters\""), json.find("\"gauges\"")) << json;
  EXPECT_LT(json.find("\"gauges\""), json.find("\"rates\"")) << json;
  EXPECT_LT(json.find("\"rates\""), json.find("\"histograms\"")) << json;
}

TEST(MetricsRegistryTest, ConcurrentRecordingLosesNothing) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter* counter = registry.GetCounter("shared.counter");
      Histogram* histogram = registry.GetHistogram("shared.histogram");
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        histogram->Record(static_cast<uint64_t>(i % 1024));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("shared.counter")->Value(),
            uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(registry.GetHistogram("shared.histogram")->Count(),
            uint64_t{kThreads} * kPerThread);
}

}  // namespace
}  // namespace dbpc
