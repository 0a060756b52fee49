#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/string_util.h"

namespace dbpc {

namespace {

int BucketIndex(uint64_t micros) {
  int bucket = 0;
  while (bucket < Histogram::kBuckets - 1 &&
         micros >= (uint64_t{2} << bucket)) {
    ++bucket;
  }
  return bucket;
}

/// The first value that lands in `bucket`: 0 for bucket 0, else 2^bucket.
uint64_t BucketLowerBound(int bucket) {
  return bucket == 0 ? 0 : uint64_t{1} << bucket;
}

/// Lowers `candidate` into an atomic minimum (CAS loop; relaxed is enough —
/// the value is only read by snapshots).
void AtomicMin(std::atomic<uint64_t>* target, uint64_t candidate) {
  uint64_t current = target->load(std::memory_order_relaxed);
  while (candidate < current &&
         !target->compare_exchange_weak(current, candidate,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>* target, uint64_t candidate) {
  uint64_t current = target->load(std::memory_order_relaxed);
  while (candidate > current &&
         !target->compare_exchange_weak(current, candidate,
                                        std::memory_order_relaxed)) {
  }
}

std::string FormatRate(double per_sec) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", per_sec);
  return buf;
}

}  // namespace

void RollingRate::TickAtSecond(uint64_t second, uint64_t n) {
  Bucket& b = buckets_[second % kWindowSeconds];
  uint64_t stamped = b.second.load(std::memory_order_acquire);
  if (stamped != second) {
    // Recycle the slot for the new second. Exactly one ticker wins the CAS
    // and zeroes the count; losers observe the new stamp and just add.
    if (b.second.compare_exchange_strong(stamped, second,
                                         std::memory_order_acq_rel)) {
      b.count.store(0, std::memory_order_relaxed);
    }
  }
  b.count.fetch_add(n, std::memory_order_relaxed);
  total_.fetch_add(n, std::memory_order_relaxed);
}

double RollingRate::PerSecondAtSecond(uint64_t now_second,
                                      int window_seconds) const {
  if (window_seconds <= 0) return 0.0;
  window_seconds = std::min(window_seconds, kWindowSeconds - 1);
  uint64_t events = 0;
  for (int i = 0; i < kWindowSeconds; ++i) {
    uint64_t stamped = buckets_[i].second.load(std::memory_order_acquire);
    if (stamped > now_second) continue;  // clock skew between tickers
    if (now_second - stamped >= static_cast<uint64_t>(window_seconds)) {
      continue;  // outside the window (also skips never-stamped slots)
    }
    events += buckets_[i].count.load(std::memory_order_relaxed);
  }
  return static_cast<double>(events) / window_seconds;
}

void RollingRate::Reset() {
  for (auto& b : buckets_) {
    b.second.store(0, std::memory_order_relaxed);
    b.count.store(0, std::memory_order_relaxed);
  }
  total_.store(0, std::memory_order_relaxed);
}

void Histogram::Record(uint64_t micros) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(micros, std::memory_order_relaxed);
  AtomicMin(&min_, micros);
  AtomicMax(&max_, micros);
  buckets_[BucketIndex(micros)].fetch_add(1, std::memory_order_relaxed);
}

uint64_t Histogram::MinMicros() const {
  uint64_t v = min_.load(std::memory_order_relaxed);
  return v == UINT64_MAX ? 0 : v;
}

uint64_t Histogram::MaxMicros() const {
  return max_.load(std::memory_order_relaxed);
}

uint64_t Histogram::PercentileMicros(double p) const {
  uint64_t total = Count();
  if (total == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * total + 0.5);
  rank = std::clamp<uint64_t>(rank, 1, total);
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    uint64_t in_bucket = BucketCount(i);
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= rank) {
      // Interpolate linearly within the bucket: the rank-th sample of this
      // bucket, assuming samples spread evenly over [lower, upper).
      uint64_t pos = rank - seen;  // 1-based position within the bucket
      double lower = static_cast<double>(BucketLowerBound(i));
      double width =
          static_cast<double>(HistogramBucketUpperBound(i)) - lower;
      uint64_t estimate = static_cast<uint64_t>(
          lower + width * static_cast<double>(pos) /
                      static_cast<double>(in_bucket));
      return std::clamp(estimate, MinMicros(), MaxMicros());
    }
    seen += in_bucket;
  }
  return MaxMicros();
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

void MetricsRegistry::AddCounts(
    std::initializer_list<std::pair<const char*, int64_t>> counts) {
  for (const auto& [name, count] : counts) {
    if (count > 0) GetCounter(name)->Increment(static_cast<uint64_t>(count));
  }
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

RollingRate* MetricsRegistry::GetRate(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<RollingRate>& slot = rates_[name];
  if (!slot) slot = std::make_unique<RollingRate>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->Value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->Value());
  }
  snap.rates.reserve(rates_.size());
  for (const auto& [name, rate] : rates_) {
    MetricsSnapshot::RateData data;
    data.name = name;
    data.total = rate->Total();
    data.per_sec_1s = rate->PerSecond(1);
    data.per_sec_10s = rate->PerSecond(10);
    data.per_sec_60s = rate->PerSecond(60);
    snap.rates.push_back(std::move(data));
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.name = name;
    data.count = h->Count();
    data.sum_us = h->SumMicros();
    data.min_us = h->MinMicros();
    data.max_us = h->MaxMicros();
    data.mean_us = static_cast<uint64_t>(h->MeanMicros() + 0.5);
    data.p50_us = h->PercentileMicros(50);
    data.p95_us = h->PercentileMicros(95);
    data.p99_us = h->PercentileMicros(99);
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      data.buckets[i] = h->BucketCount(i);
    }
    snap.histograms.push_back(std::move(data));
  }
  return snap;
}

std::string MetricsRegistry::ToJson() const {
  // Copy under the lock, format outside it: a slow reader must not stall
  // GetCounter/GetHistogram registration on the request path.
  MetricsSnapshot snap = Snapshot();
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out << (first ? "\n" : ",\n") << "    \"" << EscapeJsonString(name)
        << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out << (first ? "\n" : ",\n") << "    \"" << EscapeJsonString(name)
        << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"rates\": {";
  first = true;
  for (const auto& rate : snap.rates) {
    out << (first ? "\n" : ",\n") << "    \"" << EscapeJsonString(rate.name)
        << "\": {\"total\": " << rate.total
        << ", \"per_sec_1s\": " << FormatRate(rate.per_sec_1s)
        << ", \"per_sec_10s\": " << FormatRate(rate.per_sec_10s)
        << ", \"per_sec_60s\": " << FormatRate(rate.per_sec_60s) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& h : snap.histograms) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    \"" << EscapeJsonString(h.name) << "\": {\"count\": " << h.count
        << ", \"sum_us\": " << h.sum_us << ", \"min_us\": " << h.min_us
        << ", \"max_us\": " << h.max_us << ", \"mean_us\": " << h.mean_us
        << ", \"p50_us\": " << h.p50_us << ", \"p95_us\": " << h.p95_us
        << ", \"p99_us\": " << h.p99_us << ", \"buckets\": [";
    bool first_bucket = true;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      uint64_t n = h.buckets[i];
      if (n == 0) continue;
      if (!first_bucket) out << ", ";
      first_bucket = false;
      out << "[" << HistogramBucketUpperBound(i) << ", " << n << "]";
    }
    out << "]}";
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, rate] : rates_) rate->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace dbpc
