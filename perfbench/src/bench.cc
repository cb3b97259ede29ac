#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  // splitmix64 finalizer over the running value.
  uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashBytes(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t HashValue(const taurus::Value& v) {
  using Kind = taurus::Value::Kind;
  switch (v.kind()) {
    case Kind::kNull:
      return Mix(1, 0);
    case Kind::kInt:
      return Mix(2, static_cast<uint64_t>(v.AsInt()));
    case Kind::kDouble: {
      char buf[32];
      double d = v.AsDouble();
      if (d == 0.0) d = 0.0;  // fold -0.0
      std::snprintf(buf, sizeof(buf), "%.9g", d);
      return Mix(3, HashBytes(buf));
    }
    case Kind::kString:
      return Mix(4, HashBytes(v.AsString()));
  }
  return 0;
}

}  // namespace

Checksum ResultChecksum(const std::vector<taurus::Row>& rows) {
  Checksum c;
  c.rows = static_cast<int64_t>(rows.size());
  for (const taurus::Row& row : rows) {
    uint64_t h = 0x5bd1e995ULL;
    for (const taurus::Value& v : row) h = Mix(h, HashValue(v));
    c.hash += h;  // addition is order-insensitive across rows
  }
  return c;
}

std::string FormatChecksum(const Checksum& c) {
  return Fmt("%" PRId64 " %016" PRIx64, c.rows, c.hash);
}

bool ReadChecksums(const std::string& path,
                   std::map<std::string, Checksum>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key, hex;
    Checksum c;
    if (!(ls >> key >> c.rows >> hex)) return false;
    c.hash = std::stoull(hex, nullptr, 16);
    (*out)[key] = c;
  }
  return true;
}

bool WriteChecksums(const std::string& path,
                    const std::vector<std::pair<std::string, Checksum>>& all) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# <statement> <rows> <order-insensitive hash>\n";
  for (const auto& [key, c] : all) {
    out << key << ' ' << FormatChecksum(c) << '\n';
  }
  return static_cast<bool>(out);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Fmt(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

void TimedSamples::Add(size_t g, double ms) {
  ++completed;
  sum_ms += ms;
  size_t slot = latency_ms.size();
  if (slot == kMaxSamples) {
    slot = static_cast<size_t>(rng() % static_cast<uint64_t>(completed));
    if (slot >= kMaxSamples) return;
    latency_ms[slot] = static_cast<float>(ms);
    group[slot] = static_cast<uint16_t>(g);
    return;
  }
  if (slot == 0) {  // never reallocate: a copy would raise peak RSS
    latency_ms.reserve(kMaxSamples);
    group.reserve(kMaxSamples);
  }
  latency_ms.push_back(static_cast<float>(ms));
  group.push_back(static_cast<uint16_t>(g));
}

void TimedSamples::Merge(const TimedSamples& o) {
  latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                    o.latency_ms.end());
  group.insert(group.end(), o.group.begin(), o.group.end());
  if (group_names.empty()) group_names = o.group_names;
  pass_s.insert(pass_s.end(), o.pass_s.begin(), o.pass_s.end());
  attempted += o.attempted;
  errors += o.errors;
  mismatches += o.mismatches;
  rejected += o.rejected;
  completed += o.completed;
  sum_ms += o.sum_ms;
}

namespace {

/// The sampled latencies split by statement group.
std::vector<std::vector<double>> ByGroup(const TimedSamples& t) {
  std::vector<std::vector<double>> by_group(t.group_names.size());
  for (size_t i = 0; i < t.group.size(); ++i) {
    by_group[t.group[i]].push_back(t.latency_ms[i]);
  }
  return by_group;
}

}  // namespace

void CountFailures(const TimedSamples& t, Outcome* out) {
  out->attempted += t.attempted;
  out->failed += t.errors + t.mismatches + t.rejected;
  if (t.errors + t.mismatches + t.rejected > 0) out->correct = false;
}

void ReportEndToEnd(const SetupTimes& setup, const TimedSamples& t,
                    Outcome* out) {
  const std::vector<double> all(t.latency_ms.begin(), t.latency_ms.end());
  const std::vector<std::vector<double>> by_group = ByGroup(t);
  std::vector<double> group_medians;
  for (const auto& g : by_group) {
    if (!g.empty()) group_medians.push_back(Median(g));
  }
  const double n = static_cast<double>(t.completed);
  const double sampled = static_cast<double>(all.size());
  auto add = [out](const char* name, double v, const char* unit) {
    out->metrics.push_back({name, v, unit});
  };
  add("setup_s", Median(setup.setup_s), "s");
  add("peak_rss_mb", t.peak_rss_mb, "MB");
  add("latency_p50_ms", Median(all), "ms");
  add("suite_s", Median(t.pass_s), "s");
  add("query_geomean_ms", GeoMean(group_medians), "ms");
  add("throughput_qps", t.wall_s > 0 ? n / t.wall_s : 0.0, "1/s");

  std::string per_group;
  for (size_t g = 0; g < by_group.size(); ++g) {
    if (g % 8 == 0) per_group += "\n ";
    per_group +=
        Fmt(" %s=%.3f", t.group_names[g].c_str(), Median(by_group[g]));
  }
  out->lines.push_back("median ms per statement group:" + per_group);
  out->lines.push_back(Fmt(
      "setup: median of %zu set-ups %.3f s (the last: data build %.3f s + "
      "warm-up pass %.3f s)",
      setup.setup_s.size(), Median(setup.setup_s), setup.data_s,
      setup.warmup_s));
  std::string passes;
  for (size_t i = 0; i < t.pass_s.size() && i < 8; ++i) {
    passes += Fmt(" %.3f", t.pass_s[i]);
  }
  out->lines.push_back(Fmt(
      "timed phase: %.3f s, %zu whole passes (s:%s%s), %.0f statements "
      "completed",
      t.wall_s, t.pass_s.size(), passes.c_str(),
      t.pass_s.size() > 8 ? " ..." : "", n));
  const int64_t failed = t.errors + t.mismatches + t.rejected;
  out->lines.push_back(Fmt(
      "failed_share %.6f  (%" PRId64 " of %" PRId64
      " attempted: %" PRId64 " errors, %" PRId64 " result mismatches, %" PRId64
      " admission rejections)",
      t.attempted > 0 ? static_cast<double>(failed) / t.attempted : 0.0,
      failed, t.attempted, t.errors, t.mismatches, t.rejected));
  // A tail percentile is reported only with at least ten samples beyond it.
  for (double p : {0.95, 0.99}) {
    const double beyond = sampled * (1.0 - p);
    if (beyond >= 10.0) {
      out->lines.push_back(Fmt("latency_p%.0f_ms %.4f ms  (%.0f samples, %.0f "
                               "beyond)",
                               p * 100, Quantile(all, p), sampled, beyond));
    } else {
      out->lines.push_back(Fmt("latency_p%.0f_ms not reported: %.0f samples "
                               "leave %.1f beyond it (< 10)",
                               p * 100, sampled, beyond));
    }
  }
}

void ReportLayers(const Ledger& l, const TimedSamples& traced,
                  const TimedSamples& untraced, Outcome* out) {
  const double e = static_cast<double>(std::max<int64_t>(traced.completed, 1));
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto add = [out](const std::string& name, double v, const char* unit) {
    out->metrics.push_back({name, v, unit});
  };
  // Stage self times, mean per statement execution. Together they add up to
  // the traced per-statement latency (see the reconciliation below).
  static const char* const kStages[] = {
      "parser.parse",       "frontend.bind",       "frontend.prepare",
      "frontend.fingerprint", "bridge.route",      "bridge.orca_detour",
      "myopt.optimize",     "engine.freeze",       "engine.thaw",
      "myopt.refine",       "engine.compile_self", "exec.execute",
      "engine.overhead",    "server.admission_wait"};
  double stage_sum = 0.0;
  out->lines.push_back(Fmt("%-24s %10s %14s %12s", "layer stage", "calls",
                           "self_ms total", "ms/stmt"));
  for (const char* s : kStages) {
    const double per = l.SelfMs(s) / e;
    stage_sum += per;
    out->lines.push_back(Fmt("%-24s %10" PRId64 " %14.3f %12.5f", s,
                             l.Calls(s), l.SelfMs(s), per));
    add(std::string(s) + "_ms", per, "ms");
  }
  // Timed outside the per-statement sum: the bench's own Admit/Release
  // round trip, and Database::Compile wall time split by cache outcome.
  for (const char* s : {"server.admit_release", "engine.compile_hit",
                        "engine.compile_miss"}) {
    const double per_call = ratio(l.SelfMs(s), static_cast<double>(l.Calls(s)));
    out->lines.push_back(Fmt("%-24s %10" PRId64 " %14.3f %12.5f (ms/call)", s,
                             l.Calls(s), l.SelfMs(s), per_call));
    add(std::string(s) + "_ms", per_call, "ms");
  }

  const double detours = l.Get("bridge.detours");
  const double result_rows = l.Get("exec.result_rows");
  const double batch = l.Get("exec.batch_driver_rows");
  const double volcano = l.Get("exec.volcano_driver_rows");
  const double busy = l.Get("exec.worker_busy_ms");
  const double idle = l.Get("exec.worker_idle_ms");
  const double compiles = l.Get("engine.compiles");
  const double hits = l.Get("engine.cache_hits");
  add("exec.rows_scanned_per_result_row",
      ratio(l.Get("exec.rows_scanned"), std::max(result_rows, 1.0)), "ratio");
  add("exec.index_lookups", l.Get("exec.index_lookups") / e, "count/stmt");
  add("exec.parallel_pipelines", l.Get("exec.parallel_pipelines") / e,
      "count/stmt");
  add("exec.batch_pipelines", l.Get("exec.batch_pipelines") / e, "count/stmt");
  add("exec.batch_row_share", ratio(batch, batch + volcano), "ratio");
  add("exec.worker_busy_ms", busy / e, "ms");
  add("exec.worker_idle_ms", idle / e, "ms");
  add("exec.worker_utilization", ratio(busy, busy + idle), "ratio");
  add("orca.partitions_evaluated",
      ratio(l.Get("orca.partitions_evaluated"), detours), "count/detour");
  add("orca.memo_groups", ratio(l.Get("orca.memo_groups"), detours),
      "count/detour");
  add("mdp.dxl_requests", ratio(l.Get("mdp.dxl_requests"), detours),
      "count/detour");
  add("mdp.cache_hit_ratio",
      ratio(l.Get("mdp.cache_hits"), l.Get("mdp.dxl_requests")), "ratio");
  add("bridge.fallback_share",
      ratio(l.Get("bridge.fallbacks"), l.Get("bridge.engine_detours")),
      "ratio");
  add("engine.plan_cache.hit_ratio", ratio(hits, compiles), "ratio");
  add("engine.plan_cache.evictions", l.Get("engine.plan_cache.evictions") / e,
      "count/stmt");
  add("server.queued_share", l.Get("server.queued") / e, "ratio");
  add("server.shed_share", l.Get("server.shed") / e, "ratio");
  add("server.rejected", l.Get("server.rejected"), "count");
  add("workloads.datagen_s", l.Get("workloads.datagen_s"), "s");
  add("storage.bulk_load_s", l.Get("storage.bulk_load_s"), "s");
  add("catalog.analyze_s", l.Get("catalog.analyze_s"), "s");
  add("workloads.empty_results", l.Get("workloads.empty_results"), "count");

  out->lines.push_back(Fmt(
      "base counts: %.0f statements, %.0f Database::Compile calls (%.0f cache "
      "hits), %.0f replayed detours (%.0f engine detours, %.0f fallbacks), "
      "%.0f mdp requests (%.0f cache hits, %.0f serialized), %.0f rows "
      "scanned for %.0f result rows, "
      "%.0f batch + %.0f volcano driver rows, worker busy %.3f + idle %.3f ms",
      e, compiles, hits, detours, l.Get("bridge.engine_detours"),
      l.Get("bridge.fallbacks"), l.Get("mdp.dxl_requests"),
      l.Get("mdp.cache_hits"), l.Get("mdp.dxl_serialized"),
      l.Get("exec.rows_scanned"), result_rows, batch,
      volcano, busy, idle));

  // Reconciliation. Per statement, the stage self times sum to the traced
  // latency by construction (compile_self and overhead are remainders), so
  // the check is against the untraced phase: statement by statement, the
  // traced median must account for the untraced median within the stated
  // tolerance (statement-matched, as the mix's overall p50 lands on a
  // different statement from run to run when few passes fit).
  constexpr double kTolerance = 0.25;
  const std::vector<std::vector<double>> traced_g = ByGroup(traced);
  const std::vector<std::vector<double>> untraced_g = ByGroup(untraced);
  std::vector<double> ratios;
  for (size_t g = 0; g < traced_g.size() && g < untraced_g.size(); ++g) {
    if (traced_g[g].empty() || untraced_g[g].empty()) continue;
    ratios.push_back(Median(traced_g[g]) / Median(untraced_g[g]));
  }
  const double matched = Median(ratios);
  const bool ok = !ratios.empty() && std::fabs(matched - 1.0) <= kTolerance;
  const double traced_p50 = Median(std::vector<double>(
      traced.latency_ms.begin(), traced.latency_ms.end()));
  const double untraced_p50 = Median(std::vector<double>(
      untraced.latency_ms.begin(), untraced.latency_ms.end()));
  auto mean = [](const TimedSamples& t) {
    return t.completed > 0 ? t.sum_ms / static_cast<double>(t.completed) : 0.0;
  };
  add("tracing.overhead_ms", traced_p50 - untraced_p50, "ms");
  out->lines.push_back(Fmt(
      "reconciliation: stage sum %.5f ms/stmt = traced mean %.5f ms "
      "(untraced mean %.5f ms over %lld statements)",
      stage_sum, mean(traced), mean(untraced),
      static_cast<long long>(untraced.completed)));
  out->lines.push_back(Fmt(
      "reconciliation: traced p50 %.5f ms vs untraced latency_p50_ms %.5f "
      "ms: tracing overhead %+.5f ms",
      traced_p50, untraced_p50, traced_p50 - untraced_p50));
  out->lines.push_back(Fmt(
      "reconciliation: traced/untraced median per statement group, median "
      "over %zu groups: %.3f, tolerance %.0f%% -> %s",
      ratios.size(), matched, kTolerance * 100,
      ok ? "reconciled" : "NOT reconciled"));
}

}  // namespace perfbench
