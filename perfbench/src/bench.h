// Shared pieces of the perfbench benchmark: options, result checksums,
// sample statistics, the per-layer ledger and the run outcome that main.cc
// prints. See perfbench/README.md for the workloads and metrics.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "types/value.h"

namespace perfbench {

inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  /// Directory holding <workload>.txt stored checksums for the default seed.
  std::string checksum_dir;
  /// When set, the warm-up checksums are written to <checksum_dir> instead
  /// of being compared (regenerates the stored set).
  bool write_checksums = false;
};

/// Order-insensitive digest of a result set: the row count plus a sum of
/// per-row hashes. Integers and strings hash exactly; doubles are rounded to
/// 9 significant digits so summation-order noise cannot flip a checksum.
struct Checksum {
  int64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Checksum& o) const {
    return rows == o.rows && hash == o.hash;
  }
  bool operator!=(const Checksum& o) const { return !(*this == o); }
};

Checksum ResultChecksum(const std::vector<taurus::Row>& rows);
std::string FormatChecksum(const Checksum& c);
/// Reads "<key> <rows> <hash-hex>" lines; returns false when the file is
/// missing or malformed.
bool ReadChecksums(const std::string& path,
                   std::map<std::string, Checksum>* out);
bool WriteChecksums(const std::string& path,
                    const std::vector<std::pair<std::string, Checksum>>& all);

// --- sample statistics ---
double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
double GeoMean(const std::vector<double>& v);
double PeakRssMb();

/// Per-layer accounting for the traced run: each stage keeps its call count
/// and summed self time; counters keep plain sums.
struct Ledger {
  struct Stage {
    int64_t calls = 0;
    double self_ms = 0.0;
  };
  std::map<std::string, Stage> stages;
  std::map<std::string, double> counts;

  void Time(const std::string& stage, double ms) {
    Stage& s = stages[stage];
    ++s.calls;
    s.self_ms += ms;
  }
  void Count(const std::string& name, double v = 1.0) { counts[name] += v; }
  double SelfMs(const std::string& stage) const {
    auto it = stages.find(stage);
    return it == stages.end() ? 0.0 : it->second.self_ms;
  }
  int64_t Calls(const std::string& stage) const {
    auto it = stages.find(stage);
    return it == stages.end() ? 0 : it->second.calls;
  }
  double Get(const std::string& name) const {
    auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  }
  void Merge(const Ledger& o) {
    for (const auto& [k, s] : o.stages) {
      stages[k].calls += s.calls;
      stages[k].self_ms += s.self_ms;
    }
    for (const auto& [k, v] : o.counts) counts[k] += v;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: the headline counters, the metrics for the
/// final JSON line, and human-readable report lines printed before it.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;
};

/// Live counters the hang watchdog reads while a statement is running.
struct Progress {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  /// Name of a statement in flight (the last one started), for the report.
  std::atomic<const std::string*> current{nullptr};
  /// Set by the workload once set-up and warm-up are done: the timed phase's
  /// expected length in seconds (the watchdog limit is a multiple of it).
  std::atomic<double> timed_expected_s{0.0};
};

/// Measurement samples of one run's timed phase (tracing off). Latencies
/// are kept as a uniform reservoir of at most kMaxSamples (Algorithm R), so
/// the benchmark's own memory stays the same whatever the throughput and
/// does not move peak_rss_mb; the counters cover every statement.
struct TimedSamples {
  static constexpr size_t kMaxSamples = size_t{1} << 16;
  std::vector<float> latency_ms;         ///< sampled completed statements
  std::vector<uint16_t> group;           ///< their statement groups
  std::vector<std::string> group_names;  ///< indexed by `group`
  std::vector<double> pass_s;            ///< wall time of whole passes
  double wall_s = 0.0;                   ///< the timed phase
  /// Process peak RSS when the timed phase ended, taken before the report
  /// copies the samples.
  double peak_rss_mb = 0.0;
  int64_t attempted = 0;
  int64_t errors = 0;
  int64_t mismatches = 0;
  int64_t rejected = 0;
  int64_t completed = 0;  ///< statements completed, sampled or not
  double sum_ms = 0.0;    ///< their summed latency
  std::mt19937_64 rng;    ///< reservoir slot choice (fixed default seed)

  void Add(size_t g, double ms);
  void Merge(const TimedSamples& o);
};

/// Set-up timing. One set-up is a data build (schema, generation, load,
/// ANALYZE) plus a warm-up pass; a run repeats whole set-ups (see
/// RepeatSetups in workloads.h) and setup_s is their median.
struct SetupTimes {
  std::vector<double> setup_s;  ///< each whole set-up
  double data_s = 0.0;          ///< the last set-up's data build
  double warmup_s = 0.0;        ///< the last set-up's warm-up pass
};

/// Appends the end-to-end metrics and their report lines.
void ReportEndToEnd(const SetupTimes& setup, const TimedSamples& t,
                    Outcome* out);

/// Appends the per-layer metrics of a traced run: `ledger` and the traced
/// latencies (compile + execute + overhead + admission wait per statement)
/// from the traced phase, `untraced` from the untraced phase of the same
/// process.
void ReportLayers(const Ledger& ledger, const TimedSamples& traced,
                  const TimedSamples& untraced, Outcome* out);

/// Adds the outcome's failure counters from the samples.
void CountFailures(const TimedSamples& t, Outcome* out);

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
