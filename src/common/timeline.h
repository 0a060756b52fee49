#ifndef DBPC_COMMON_TIMELINE_H_
#define DBPC_COMMON_TIMELINE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <optional>

#include "common/metrics.h"

namespace dbpc {

/// The instants of one conversion request, in the order they happen.
enum class Mark : uint8_t {
  kAdmitted,       ///< Daemon: the job entered the admission queue.
  kPickup,         ///< Service: Convert began.
  kAttemptStart,   ///< Service: one pipeline attempt began.
  kAnalyzeStart,   ///< Converter: the Program Analyzer began.
  kAnalyzed,       ///< Converter: the Program Analyzer finished.
  kConverted,      ///< Converter: rewriting finished (kAnalyzed if refused).
  kOptimizeStart,  ///< Supervisor: the optimizer began.
  kOptimizeEnd,    ///< Supervisor: the optimizer finished.
  kAttemptEnd,     ///< Service: the pipeline attempt returned.
  kGenerated,      ///< Service: the Program Generator emitted the source.
  kResponded,      ///< Service: the response was complete.
  kPublished,      ///< Daemon: the result was visible to RESULT.
  kCount,
};

/// One request's steady-clock marks in a fixed array. Marks are stamped in
/// enum order and stamping one clears every later one, so re-stamping
/// kAttemptStart for a retry drops the failed attempt's marks. One thread
/// writes a timeline at a time.
class RequestTimeline {
 public:
  using Clock = std::chrono::steady_clock;

  void Stamp(Mark mark) { StampAt(mark, Clock::now()); }
  void StampAt(Mark mark, Clock::time_point at) {
    auto i = static_cast<size_t>(mark);
    marks_[i] = at;
    while (++i < marks_.size()) marks_[i] = Clock::time_point();
  }

  /// The clock's epoch marks "not stamped": a steady clock never reads it.
  bool Has(Mark mark) const { return At(mark) != Clock::time_point(); }
  Clock::time_point At(Mark mark) const {
    return marks_[static_cast<size_t>(mark)];
  }

  /// Whole microseconds from `from` to `to`, nullopt unless both are
  /// stamped; an end stamped before its start reads 0.
  std::optional<uint64_t> Micros(Mark from, Mark to) const {
    if (!Has(from) || !Has(to)) return std::nullopt;
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                  At(to) - At(from))
                  .count();
    return us > 0 ? static_cast<uint64_t>(us) : 0;
  }

 private:
  std::array<Clock::time_point, static_cast<size_t>(Mark::kCount)> marks_{};
};

/// A reported duration: its histogram and the two marks that bound it.
struct TimedMetric {
  const char* histogram;
  Mark from;
  Mark to;
};

inline constexpr TimedMetric kQueueWaitUs{"daemon.queue_wait_us",
                                          Mark::kAdmitted, Mark::kPickup};
inline constexpr TimedMetric kAnalyzeUs{"stage.analyze_us",
                                        Mark::kAnalyzeStart, Mark::kAnalyzed};
inline constexpr TimedMetric kConvertUs{"stage.convert_us", Mark::kAnalyzed,
                                        Mark::kConverted};
inline constexpr TimedMetric kOptimizeUs{
    "stage.optimize_us", Mark::kOptimizeStart, Mark::kOptimizeEnd};
inline constexpr TimedMetric kProgramTotalUs{
    "program.total_us", Mark::kAttemptStart, Mark::kAttemptEnd};
inline constexpr TimedMetric kGenerateUs{"stage.generate_us",
                                         Mark::kAttemptEnd, Mark::kGenerated};
inline constexpr TimedMetric kRequestUs{"daemon.request_us", Mark::kAdmitted,
                                        Mark::kPublished};

/// Records one sample for each of `durations` whose marks are both stamped
/// (nothing when `metrics` is null).
inline void RecordDurations(const RequestTimeline& timeline,
                            MetricsRegistry* metrics,
                            std::initializer_list<TimedMetric> durations) {
  if (metrics == nullptr) return;
  for (const TimedMetric& d : durations) {
    if (std::optional<uint64_t> us = timeline.Micros(d.from, d.to)) {
      metrics->GetHistogram(d.histogram)->Record(*us);
    }
  }
}

}  // namespace dbpc

#endif  // DBPC_COMMON_TIMELINE_H_
