// Measurement helpers of the benchmark driver: sample percentiles, deltas
// of the program's obs registry series, and the bench-side span recorder.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank quantile of `v` (sorted in place). +inf entries stand for
/// failed or refused requests, which miss every latency limit. 0 for an
/// empty sample.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// A copy of one obs::Histogram's buckets and sum, so two snapshots give
/// the distribution of the observations made between them.
struct HistSnap {
  std::array<uint64_t, ibseg::obs::Histogram::kNumBounds + 1> buckets{};
  double sum = 0.0;

  static HistSnap of(const ibseg::obs::Histogram& h) {
    HistSnap s;
    for (size_t i = 0; i < s.buckets.size(); ++i) {
      s.buckets[i] = h.bucket_count(i);
    }
    s.sum = h.sum();
    return s;
  }

  HistSnap minus(const HistSnap& before) const {
    HistSnap d;
    for (size_t i = 0; i < buckets.size(); ++i) {
      d.buckets[i] = buckets[i] - before.buckets[i];
    }
    d.sum = sum - before.sum;
    return d;
  }

  HistSnap plus(const HistSnap& other) const {
    HistSnap d;
    for (size_t i = 0; i < buckets.size(); ++i) {
      d.buckets[i] = buckets[i] + other.buckets[i];
    }
    d.sum = sum + other.sum;
    return d;
  }

  uint64_t count() const {
    uint64_t n = 0;
    for (uint64_t b : buckets) n += b;
    return n;
  }

  /// Same interpolation as obs::Histogram::quantile, over the delta.
  double quantile(double q) const {
    const uint64_t n = count();
    if (n == 0) return 0.0;
    const auto& bounds = ibseg::obs::Histogram::bounds();
    double rank = std::clamp(q * static_cast<double>(n), 1.0,
                             static_cast<double>(n));
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] == 0) continue;
      if (static_cast<double>(seen + buckets[i]) >= rank) {
        if (i == bounds.size()) return bounds.back();
        const double lo = i == 0 ? 0.0 : bounds[i - 1];
        const double frac = (rank - static_cast<double>(seen)) /
                            static_cast<double>(buckets[i]);
        return lo + (bounds[i] - lo) * frac;
      }
      seen += buckets[i];
    }
    return bounds.back();
  }
};

/// Looks up an already-registered series of the global registry (the
/// registry returns the existing instance for a known name + labels).
inline ibseg::obs::Histogram& registry_histogram(
    const std::string& name, const ibseg::obs::Labels& labels = {}) {
  return ibseg::obs::MetricsRegistry::global().histogram(name, "", labels);
}

inline ibseg::obs::Counter& registry_counter(
    const std::string& name, const ibseg::obs::Labels& labels = {}) {
  return ibseg::obs::MetricsRegistry::global().counter(name, "", labels);
}

/// One bench-side span: a call into a layer, timed from outside.
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;      ///< 0 = root
  uint64_t request = 0;     ///< spans of one request share this
  double start_us = 0.0;    ///< since the recorder's origin
  double end_us = 0.0;
};

/// Keeps spans in memory until the run ends. Disabled recorders cost one
/// branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (0 when disabled).
  uint64_t record(std::string name, uint64_t parent, uint64_t request,
                  Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = std::move(name);
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = request;
    s.start_us = us_since_origin(start);
    s.end_us = us_since_origin(end);
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  /// Reserves an id for a parent span whose end is not known yet.
  uint64_t open(std::string name, uint64_t parent, uint64_t request,
                Clock::time_point start) {
    return record(std::move(name), parent, request, start, start);
  }

  void close(uint64_t id, Clock::time_point end) {
    if (!enabled_ || id == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_us = us_since_origin(end);
  }

  /// Durations in ms of every span named `name`.
  std::vector<double> durations_ms(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back((s.end_us - s.start_us) / 1000.0);
    }
    return out;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double us_since_origin(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
