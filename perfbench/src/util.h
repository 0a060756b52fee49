#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

// Small shared pieces of the benchmark: clocks, order statistics, result
// fingerprints, the benchmark's own span log, and the METRICS-snapshot
// reader used to take before/after deltas of the daemon's histograms.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "api/dbpc.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Aborts the benchmark on a library error in set-up: a benchmark must not
/// measure a failure path by accident.
[[noreturn]] void Die(const std::string& what);
/// Runs `hook` inside Die before exiting (used to stop child processes).
void SetDieHook(void (*hook)());

inline void Check(const dbpc::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

template <typename T>
T Must(dbpc::Result<T> result, const std::string& what) {
  Check(result.status(), what);
  return std::move(result).value();
}

/// Linear-interpolated percentile (0 <= p <= 100); NaN when empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

/// 128-bit fingerprint of a conversion result as the wire carries it:
/// state, classification, accepted flag and converted source. Two results
/// with equal fingerprints are byte-identical barring a 128-bit collision.
struct ResultPrint {
  uint64_t a = 0;
  uint64_t b = 0;
  bool operator==(const ResultPrint&) const = default;
};
ResultPrint Fingerprint(const dbpc::ConversionResponse& response);
ResultPrint Fingerprint(dbpc::JobState state,
                        const dbpc::PipelineOutcome& outcome,
                        const std::string& converted_source);

/// The benchmark's own spans: one per call into a layer, kept in memory
/// and written out as a Chrome trace_event file when the run ends. (The
/// library's SpanCollector renders spans only as text; the latency budget
/// needs each span's self time as a number.)
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint64_t request = 0;
  };

  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent, uint64_t request);

  /// Self time (duration minus the time covered by child spans) of every
  /// span called `name`, in microseconds.
  std::vector<double> SelfMicros(const std::string& name) const;

  /// Writes the spans as Chrome trace_event JSON ("X" events).
  bool WriteChromeTrace(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

/// One histogram out of a METRICS snapshot.
struct HistogramData {
  uint64_t count = 0;
  /// (inclusive upper bound, count) per non-empty power-of-two bucket.
  std::map<uint64_t, uint64_t> buckets;
};

/// The parts of the daemon's METRICS JSON the benchmark reads.
struct MetricsData {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramData> histograms;

  uint64_t Counter(const std::string& name) const;
  /// `after - before` for one histogram.
  HistogramData HistogramDelta(const MetricsData& before,
                               const std::string& name) const;
};

/// Parses MetricsRegistry::ToJson output.
MetricsData ParseMetricsJson(const std::string& json);

/// Interpolated quantile (0 < q < 1) of a bucketed histogram; 0 if empty.
double HistogramQuantile(const HistogramData& h, double q);

/// The p50 of a layer's time per request when only `share` of requests
/// enter the layer and `h` holds the times of those that do: requests that
/// skip it count as zero.
double ZeroInflatedMedian(const HistogramData& h, double share);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
