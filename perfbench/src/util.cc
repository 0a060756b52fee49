#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>

namespace perfbench {

namespace {
void (*g_die_hook)() = nullptr;
}  // namespace

void SetDieHook(void (*hook)()) { g_die_hook = hook; }

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  if (g_die_hook != nullptr) g_die_hook();
  std::fflush(stderr);
  std::exit(2);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

ResultPrint PrintOf(const std::string& text) {
  return {dbpc::Fingerprint64(text),
          static_cast<uint64_t>(std::hash<std::string>{}(text)) ^
              (static_cast<uint64_t>(text.size()) << 48)};
}

std::string ResultText(dbpc::JobState state, dbpc::Convertibility c,
                       bool accepted, const std::string& source) {
  std::string text = dbpc::JobStateName(state);
  text += '|';
  text += dbpc::ConvertibilityName(c);
  text += accepted ? "|1|" : "|0|";
  text += source;
  return text;
}

}  // namespace

ResultPrint Fingerprint(const dbpc::ConversionResponse& response) {
  return PrintOf(ResultText(response.state, response.classification,
                            response.accepted, response.converted_source));
}

ResultPrint Fingerprint(dbpc::JobState state,
                        const dbpc::PipelineOutcome& outcome,
                        const std::string& converted_source) {
  return PrintOf(ResultText(state, outcome.classification, outcome.accepted,
                            converted_source));
}

int32_t SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                     int32_t parent, uint64_t request) {
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<double> SpanLog::SelfMicros(const std::string& name) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    out.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                      child_ns[i]) /
                  1e3);
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                  "1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d, \"request\": %llu}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<double>(s.start_ns - epoch) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, static_cast<unsigned long long>(s.request));
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

uint64_t MetricsData::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

HistogramData MetricsData::HistogramDelta(const MetricsData& before,
                                          const std::string& name) const {
  HistogramData out;
  auto it = histograms.find(name);
  if (it == histograms.end()) return out;
  out = it->second;
  auto prev = before.histograms.find(name);
  if (prev == before.histograms.end()) return out;
  out.count -= prev->second.count;
  for (const auto& [bound, n] : prev->second.buckets) {
    out.buckets[bound] -= n;
    if (out.buckets[bound] == 0) out.buckets.erase(bound);
  }
  return out;
}

namespace {

/// Minimal scanner over the fixed shape MetricsRegistry::ToJson writes:
/// {"counters": {..}, "gauges": {..}, "rates": {..}, "histograms": {..}}.
class Scanner {
 public:
  explicit Scanner(const std::string& text) : s_(text) {}

  void SkipSpace() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void Expect(char c) {
    if (!Eat(c)) Die(std::string("METRICS json: expected '") + c + "'");
  }
  std::string String() {
    Expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) ++pos_;
      out += s_[pos_++];
    }
    Expect('"');
    return out;
  }
  double Number() {
    SkipSpace();
    char* end = nullptr;
    double v = std::strtod(s_.c_str() + pos_, &end);
    if (end == s_.c_str() + pos_) Die("METRICS json: expected a number");
    pos_ = static_cast<size_t>(end - s_.c_str());
    return v;
  }
  /// Skips any JSON value (objects, arrays, strings, numbers).
  void SkipValue() {
    SkipSpace();
    if (pos_ >= s_.size()) Die("METRICS json: truncated");
    char c = s_[pos_];
    if (c == '"') {
      String();
    } else if (c == '{' || c == '[') {
      char close = c == '{' ? '}' : ']';
      ++pos_;
      if (Eat(close)) return;
      do {
        if (c == '{') {
          String();
          Expect(':');
        }
        SkipValue();
      } while (Eat(','));
      Expect(close);
    } else {
      Number();
    }
  }

 private:
  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

MetricsData ParseMetricsJson(const std::string& json) {
  MetricsData data;
  Scanner in(json);
  in.Expect('{');
  if (in.Eat('}')) return data;
  do {
    std::string section = in.String();
    in.Expect(':');
    in.Expect('{');
    if (in.Eat('}')) continue;
    do {
      std::string name = in.String();
      in.Expect(':');
      if (section == "counters") {
        data.counters[name] = static_cast<uint64_t>(in.Number());
      } else if (section == "histograms") {
        HistogramData h;
        in.Expect('{');
        do {
          std::string key = in.String();
          in.Expect(':');
          if (key == "count") {
            h.count = static_cast<uint64_t>(in.Number());
          } else if (key == "buckets") {
            in.Expect('[');
            if (!in.Eat(']')) {
              do {
                in.Expect('[');
                uint64_t bound = static_cast<uint64_t>(in.Number());
                in.Expect(',');
                h.buckets[bound] = static_cast<uint64_t>(in.Number());
                in.Expect(']');
              } while (in.Eat(','));
              in.Expect(']');
            }
          } else {
            in.SkipValue();
          }
        } while (in.Eat(','));
        in.Expect('}');
        data.histograms[name] = std::move(h);
      } else {
        in.SkipValue();
      }
    } while (in.Eat(','));
    in.Expect('}');
  } while (in.Eat(','));
  in.Expect('}');
  return data;
}

double HistogramQuantile(const HistogramData& h, double q) {
  uint64_t total = 0;
  for (const auto& [bound, n] : h.buckets) total += n;
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total);
  double seen = 0;
  for (const auto& [bound, n] : h.buckets) {
    if (seen + static_cast<double>(n) >= rank) {
      // Bucket (bound/2, bound]; the first bucket holds 0..2.
      const double lo = bound <= 2 ? 0.0 : static_cast<double>(bound) / 2;
      const double frac = n == 0 ? 0 : (rank - seen) / static_cast<double>(n);
      return lo + (static_cast<double>(bound) - lo) * frac;
    }
    seen += static_cast<double>(n);
  }
  return static_cast<double>(h.buckets.rbegin()->first);
}

double ZeroInflatedMedian(const HistogramData& h, double share) {
  if (share <= 0.5) return 0;
  return HistogramQuantile(h, std::min(1.0, (share - 0.5) / share));
}

}  // namespace perfbench
