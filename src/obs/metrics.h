#ifndef TAURUS_OBS_METRICS_H_
#define TAURUS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/latency_histogram.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace taurus {

/// Monotonic counter (atomic; safe to increment from worker threads).
/// Adding 0 skips the atomic read-modify-write, so callers fold per-query
/// counts unconditionally without contending on the cache line.
class Counter {
 public:
  void Increment(int64_t n = 1) {
    if (n != 0) v_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Last-written-value gauge (atomic store/load).
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Thread-safe registry of named counters, gauges and latency histograms.
/// Names follow the `taurus.<subsystem>.<name>` convention (DESIGN.md
/// section 10). Get* registers on first use and returns a stable pointer,
/// so hot paths resolve their metric once and then touch only an atomic.
///
/// The engine gives every Database its own registry (deterministic for
/// tests, mirroring MySQL's session-vs-global status split); Global() is
/// the process-wide instance for code without a Database at hand.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name) TAURUS_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) TAURUS_EXCLUDES(mu_);
  LatencyHistogram* GetHistogram(const std::string& name) TAURUS_EXCLUDES(mu_);

  /// One JSON object, keys sorted: counters as integers, gauges as
  /// numbers, histograms as {count, sum_ms, p50, p95, p99, max_ms}.
  std::string ToJson() const TAURUS_EXCLUDES(mu_);

  /// Flat (name, value-string) rows for the SHOW STATUS statement;
  /// histograms expand into `.count` / `.p50` / `.p95` / `.p99` /
  /// `.max_ms` rows.
  std::vector<std::pair<std::string, std::string>> Snapshot() const
      TAURUS_EXCLUDES(mu_);

  /// Zeroes every registered metric (registration survives).
  void Reset() TAURUS_EXCLUDES(mu_);

  static MetricsRegistry& Global();

 private:
  /// Leaf rank: registration/serialization only; metric objects are
  /// atomic, so hot-path updates never come near this lock.
  mutable Mutex mu_{LockRank::kMetricsRegistry, "obs.metrics_registry"};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      TAURUS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      TAURUS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_
      TAURUS_GUARDED_BY(mu_);
};

}  // namespace taurus

#endif  // TAURUS_OBS_METRICS_H_
