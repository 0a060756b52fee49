#include "common/timeline.h"

#include <gtest/gtest.h>

#include "service/worker_pool.h"

namespace dbpc {
namespace {

using Clock = RequestTimeline::Clock;
using std::chrono::microseconds;

TEST(RequestTimelineTest, UnstampedMarkYieldsNoDuration) {
  RequestTimeline timeline;
  EXPECT_FALSE(timeline.Has(Mark::kPickup));
  timeline.Stamp(Mark::kPickup);
  EXPECT_TRUE(timeline.Has(Mark::kPickup));
  EXPECT_EQ(timeline.Micros(Mark::kPickup, Mark::kResponded), std::nullopt);
  EXPECT_EQ(timeline.Micros(Mark::kAdmitted, Mark::kPickup), std::nullopt);
}

TEST(RequestTimelineTest, RestampingTheAttemptRestartsItsDurations) {
  const Clock::time_point t0 = Clock::now();
  RequestTimeline timeline;
  timeline.StampAt(Mark::kAdmitted, t0);
  timeline.StampAt(Mark::kPickup, t0 + microseconds(5));
  timeline.StampAt(Mark::kAttemptStart, t0 + microseconds(6));
  timeline.StampAt(Mark::kAnalyzeStart, t0 + microseconds(8));
  timeline.StampAt(Mark::kAnalyzed, t0 + microseconds(20));
  timeline.StampAt(Mark::kAttemptEnd, t0 + microseconds(60));
  EXPECT_EQ(timeline.Micros(Mark::kAnalyzeStart, Mark::kAnalyzed), 12u);

  // A retry drops the failed attempt's marks and keeps the request's.
  timeline.StampAt(Mark::kAttemptStart, t0 + microseconds(100));
  EXPECT_FALSE(timeline.Has(Mark::kAnalyzed));
  EXPECT_EQ(timeline.Micros(Mark::kAttemptStart, Mark::kAttemptEnd),
            std::nullopt);
  EXPECT_EQ(timeline.Micros(Mark::kAdmitted, Mark::kPickup), 5u);

  // The retry is a cache hit: only the durations whose marks are both
  // stamped get a sample, so attempt and generate do and the stages don't.
  timeline.StampAt(Mark::kAttemptEnd, t0 + microseconds(103));
  timeline.StampAt(Mark::kGenerated, t0 + microseconds(110));
  MetricsRegistry metrics;
  RecordDurations(timeline, &metrics,
                  {kAnalyzeUs, kConvertUs, kOptimizeUs, kProgramTotalUs,
                   kGenerateUs});
  MetricsSnapshot snapshot = metrics.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 2u);
  EXPECT_EQ(snapshot.histograms[0].name, "program.total_us");
  EXPECT_EQ(snapshot.histograms[0].sum_us, 3u);
  EXPECT_EQ(snapshot.histograms[1].name, "stage.generate_us");
  EXPECT_EQ(snapshot.histograms[1].sum_us, 7u);
}

TEST(RequestTimelineTest, MicrosNeverGoesNegative) {
  const Clock::time_point t0 = Clock::now();
  RequestTimeline timeline;
  timeline.StampAt(Mark::kAnalyzeStart, t0 + microseconds(40));
  timeline.StampAt(Mark::kAnalyzed, t0);  // end before start
  EXPECT_EQ(timeline.Micros(Mark::kAnalyzeStart, Mark::kAnalyzed), 0u);
  timeline.StampAt(Mark::kConverted, t0 - std::chrono::nanoseconds(999));
  EXPECT_EQ(timeline.Micros(Mark::kAnalyzed, Mark::kConverted), 0u);
}

TEST(RequestTimelineTest, AdmittedOnOneThreadAndFinishedOnAnother) {
  // The daemon's shape: the admission mark travels with the pool task.
  RequestTimeline seen;
  WorkerPool pool(2);
  pool.Submit([admitted = Clock::now(), &seen] {
    seen.StampAt(Mark::kAdmitted, admitted);
    seen.Stamp(Mark::kPickup);
    seen.Stamp(Mark::kResponded);
    seen.Stamp(Mark::kPublished);
  });
  pool.Wait();
  uint64_t queue_wait = *seen.Micros(Mark::kAdmitted, Mark::kPickup);
  uint64_t convert = *seen.Micros(Mark::kPickup, Mark::kResponded);
  EXPECT_LE(queue_wait + convert,
            *seen.Micros(Mark::kAdmitted, Mark::kPublished));
}

}  // namespace
}  // namespace dbpc
