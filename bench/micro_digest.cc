// Workload-introspection overhead: the statement-digest fold plus the
// flight-recorder ring append happen once per query end, under two leaf
// locks (DESIGN.md section 15). This bench bounds their cost on the
// worst case for fixed per-query overhead — the fastest query we have
// (a plan-cache hit over a 5-row table), where the fold is the largest
// fraction of total work.
//
//   qps_on        — full Database::Query hot path, digests + recorder on
//   qps_off       — same loop with both stores disabled
//   overhead_pct  — (qps_off - qps_on) / qps_off * 100
//   record_ns     — raw DigestStore::Record cost, isolated
//
// Modes alternate across rounds (off/on/off/on/...) and each mode keeps
// its best round, so drift in either direction hurts both sides equally.
// The acceptance bar is overhead_pct <= 2 on the hit path.
//
// Usage: micro_digest [--ms=300] [--json]
//   --json writes BENCH_digest.json for CI trending.

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "engine/database.h"
#include "obs/digest_store.h"
#include "workloads/tpch.h"

using namespace taurus_bench;  // NOLINT

namespace {

/// Completed queries/sec of `duration_ms` of back-to-back Query calls.
double MeasureQueryQps(taurus::Database* db, const std::string& sql,
                       int duration_ms) {
  auto start = std::chrono::steady_clock::now();
  auto deadline = start + std::chrono::milliseconds(duration_ms);
  long long ops = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    auto r = db->Query(sql, taurus::OptimizerPath::kMySql);
    if (!r.ok()) std::abort();
    ++ops;
  }
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return static_cast<double>(ops) / secs;
}

}  // namespace

int main(int argc, char** argv) {
  const int duration_ms = static_cast<int>(ArgInt(argc, argv, "--ms=", 300));
  const bool json = ArgFlag(argc, argv, "--json");

  taurus::Database db;
  {
    auto st = taurus::SetupTpch(&db, 0.001);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  const std::string sql = "SELECT COUNT(*) FROM region";
  // Warm: plan compiled and cached, digest row allocated.
  for (int i = 0; i < 3; ++i) {
    auto r = db.Query(sql, taurus::OptimizerPath::kMySql);
    if (!r.ok() || (i > 0 && !r->plan_cache_hit)) {
      std::fprintf(stderr, "warm run did not produce a cache hit\n");
      return 1;
    }
  }

  PrintHeader("workload-introspection overhead (digest fold + ring append)");
  std::printf("query: \"%s\" (plan-cache hit, single thread)\n", sql.c_str());

  constexpr int kRounds = 3;  // per mode, alternating; best round kept
  double qps_on = 0.0, qps_off = 0.0;
  for (int round = 0; round < 2 * kRounds; ++round) {
    const bool on = (round % 2) != 0;  // off first: cold round hits "off"
    db.digest_config().enable = on;
    db.flight_recorder_config().enable = on;
    double qps = MeasureQueryQps(&db, sql, duration_ms);
    if (on && qps > qps_on) qps_on = qps;
    if (!on && qps > qps_off) qps_off = qps;
  }
  db.digest_config().enable = true;
  db.flight_recorder_config().enable = true;

  const double overhead_pct =
      qps_off > 0.0 ? (qps_off - qps_on) / qps_off * 100.0 : 0.0;
  std::printf("\n%-22s %14.0f\n", "qps introspection on", qps_on);
  std::printf("%-22s %14.0f\n", "qps introspection off", qps_off);
  std::printf("%-22s %14.2f\n", "overhead_pct", overhead_pct);

  // Raw fold cost, isolated from the query around it.
  taurus::DigestStoreConfig cfg;
  taurus::DigestStore store(cfg);
  taurus::QueryStats sample;
  sample.fingerprint = 0x5eedf00d;
  sample.canonical = sql;
  sample.total_ms = 0.05;
  sample.used_orca = false;
  constexpr int kRecords = 200000;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kRecords; ++i) store.Record(sample, /*error=*/false);
  double record_ns = std::chrono::duration<double, std::nano>(
                         std::chrono::steady_clock::now() - t0)
                         .count() /
                     kRecords;
  std::printf("%-22s %14.1f\n", "record_ns", record_ns);

  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("qps_on", qps_on);
  metrics.emplace_back("qps_off", qps_off);
  metrics.emplace_back("overhead_pct", overhead_pct);
  metrics.emplace_back("record_ns", record_ns);
  if (json) WriteBenchJson("digest", metrics);
  return 0;
}
