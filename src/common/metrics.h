#ifndef DBPC_COMMON_METRICS_H_
#define DBPC_COMMON_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dbpc {

/// A monotonically increasing event count. Increment is lock-free; safe to
/// call from any number of worker threads concurrently.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A point-in-time level (queue depth, inflight jobs, busy workers). All
/// operations are lock-free and safe from any thread. Unlike Counter the
/// value is signed and can move both ways.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Sub(int64_t delta = 1) {
    value_.fetch_sub(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// An event rate over sliding windows: a ring of per-second buckets stamped
/// with their wall second, summed on read over the last 1/10/60 seconds.
/// Tick is lock-free; a bucket being recycled concurrently with a read can
/// at worst smear one second's worth of events, which is fine for telemetry.
class RollingRate {
 public:
  static constexpr int kWindowSeconds = 64;  ///< ring size; > largest window

  /// Records `n` events at the current wall second.
  void Tick(uint64_t n = 1) { TickAtSecond(NowSecond(), n); }

  /// Events/sec averaged over the trailing `window_seconds` (1, 10, or 60).
  double PerSecond(int window_seconds) const {
    return PerSecondAtSecond(NowSecond(), window_seconds);
  }

  uint64_t Total() const { return total_.load(std::memory_order_relaxed); }

  void Reset();

  /// Deterministic seams for tests: the same operations against an explicit
  /// second stamp instead of the clock.
  void TickAtSecond(uint64_t second, uint64_t n);
  double PerSecondAtSecond(uint64_t now_second, int window_seconds) const;

 private:
  static uint64_t NowSecond() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  struct Bucket {
    std::atomic<uint64_t> second{0};
    std::atomic<uint64_t> count{0};
  };
  Bucket buckets_[kWindowSeconds];
  std::atomic<uint64_t> total_{0};
};

/// A latency histogram with fixed exponential (power-of-two) buckets over
/// microseconds: bucket i counts samples in [2^i, 2^(i+1)) us, with bucket 0
/// covering [0, 2). Recording is lock-free. 32 buckets span > 1 hour.
class Histogram {
 public:
  static constexpr int kBuckets = 32;

  void Record(uint64_t micros);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t SumMicros() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t MinMicros() const;  ///< 0 when empty.
  uint64_t MaxMicros() const;  ///< 0 when empty.
  uint64_t BucketCount(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  double MeanMicros() const {
    uint64_t n = Count();
    return n == 0 ? 0.0 : static_cast<double>(SumMicros()) / n;
  }
  /// Estimate of the p-th percentile (0 < p <= 100): the rank is located in
  /// its power-of-two bucket, then linearly interpolated within the bucket,
  /// clamped to the observed [min, max]. 0 when empty.
  uint64_t PercentileMicros(double p) const;

  void Reset();

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> buckets_[kBuckets] = {};
};

/// The inclusive upper bound reported for histogram bucket i (the first
/// value of bucket i+1): 2^(i+1).
inline uint64_t HistogramBucketUpperBound(int bucket) {
  return uint64_t{2} << bucket;
}

/// A point-in-time copy of every metric in a registry: plain values, no
/// atomics, no locks. Taken under the registry mutex and then rendered
/// outside it, so a slow scrape can never stall hot-path registration.
/// Shared by the JSON snapshot and the Prometheus exposition renderer.
struct MetricsSnapshot {
  struct HistogramData {
    std::string name;
    uint64_t count = 0;
    uint64_t sum_us = 0;
    uint64_t min_us = 0;
    uint64_t max_us = 0;
    uint64_t mean_us = 0;  ///< rounded to the nearest microsecond
    uint64_t p50_us = 0;
    uint64_t p95_us = 0;
    uint64_t p99_us = 0;
    uint64_t buckets[Histogram::kBuckets] = {};  ///< per-bucket (not cumulative)
  };
  struct RateData {
    std::string name;
    uint64_t total = 0;
    double per_sec_1s = 0.0;
    double per_sec_10s = 0.0;
    double per_sec_60s = 0.0;
  };
  std::vector<std::pair<std::string, uint64_t>> counters;  ///< name-sorted
  std::vector<std::pair<std::string, int64_t>> gauges;     ///< name-sorted
  std::vector<RateData> rates;                             ///< name-sorted
  std::vector<HistogramData> histograms;                   ///< name-sorted
};

/// A process-local registry of named counters, gauges, rolling rates and
/// histograms, snapshotable to JSON. Lookup takes a lock; the returned
/// pointers are stable for the registry's lifetime, so hot paths should look
/// up once and cache.
///
/// Naming convention: dotted lowercase paths, e.g. "stage.analyze_us",
/// "programs.automatic".
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  RollingRate* GetRate(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Adds each positive count to its named counter; a count <= 0 neither
  /// increments nor registers the counter.
  void AddCounts(
      std::initializer_list<std::pair<const char*, int64_t>> counts);

  /// Copies every metric's current value. Holds `mu_` only for the copy;
  /// callers format the result outside the lock.
  MetricsSnapshot Snapshot() const;

  /// JSON snapshot, deterministic (names sorted): counters as integers,
  /// gauges as integers, rates as {total, per_sec_1s, per_sec_10s,
  /// per_sec_60s}, histograms as {count, sum_us, min_us, max_us, mean_us,
  /// p50_us, p95_us, p99_us, buckets: [[upper_bound_us, count], ...]} with
  /// empty buckets elided. Percentiles are interpolated within their
  /// power-of-two bucket and clamped to the observed [min, max].
  std::string ToJson() const;

  /// Zeroes every metric (names stay registered).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<RollingRate>> rates_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace dbpc

#endif  // DBPC_COMMON_METRICS_H_
