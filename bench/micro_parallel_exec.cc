// Morsel-driven parallel executor scaling: a 1M-row scan-aggregate and a
// TPC-H Q3-shaped join+aggregate, each run at 1/2/4/8 workers, once with
// the vectorized batch engine (the default) and once row-at-a-time
// (ExecutorConfig::enable_batch = false, the Volcano baseline). Workers=1
// is exactly the serial executor (no pool is armed), so the first row
// doubles as the regression baseline for the parallel refactor.
//
// Expect near-linear scan-aggregate scaling up to the physical core count
// and somewhat flatter join scaling (the build side is constructed once,
// serially, and only the probe pipeline goes wide). On a single-core host
// all columns converge — the interesting number is then workers=1 vs the
// pre-refactor serial executor, which must be within noise.
//
// Usage: micro_parallel_exec [--rows=1000000] [--repeat=5] [--json]
//   --json writes BENCH_parallel_exec.json for CI trending.

#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"

using namespace taurus_bench;  // NOLINT
using taurus::Row;
using taurus::Value;

namespace {

/// Lineitem-shaped fact table plus the two dimension tables a Q3-shaped
/// join needs, at 1 : 1/4 : 1/40 row ratios (li : ord : cust).
taurus::Status Setup(taurus::Database* db, long long rows) {
  auto st = db->ExecuteSql(
      "CREATE TABLE cust (id INT NOT NULL PRIMARY KEY, "
      "mktsegment VARCHAR(10) NOT NULL)");
  if (!st.ok()) return st;
  st = db->ExecuteSql(
      "CREATE TABLE ord (id INT NOT NULL PRIMARY KEY, "
      "custkey INT NOT NULL, orderdate INT NOT NULL)");
  if (!st.ok()) return st;
  st = db->ExecuteSql(
      "CREATE TABLE li (id INT NOT NULL PRIMARY KEY, "
      "orderkey INT NOT NULL, qty DOUBLE NOT NULL, "
      "price DOUBLE NOT NULL, disc DOUBLE NOT NULL, "
      "shipdate INT NOT NULL)");
  if (!st.ok()) return st;

  const char* segments[] = {"BUILDING", "MACHINERY", "AUTO", "HOUSE",
                            "FURN"};
  taurus::Rng rng(7);
  const long long num_cust = std::max(1LL, rows / 40);
  const long long num_ord = std::max(1LL, rows / 4);
  std::vector<Row> cust;
  for (long long i = 0; i < num_cust; ++i) {
    cust.push_back({Value::Int(i), Value::Str(segments[i % 5])});
  }
  st = db->BulkLoad("cust", std::move(cust));
  if (!st.ok()) return st;
  std::vector<Row> ord;
  for (long long i = 0; i < num_ord; ++i) {
    ord.push_back({Value::Int(i), Value::Int(rng.Uniform(0, num_cust - 1)),
                   Value::Int(9000 + rng.Uniform(0, 399))});
  }
  st = db->BulkLoad("ord", std::move(ord));
  if (!st.ok()) return st;
  std::vector<Row> li;
  for (long long i = 0; i < rows; ++i) {
    li.push_back({Value::Int(i), Value::Int(rng.Uniform(0, num_ord - 1)),
                  Value::Double(1 + rng.Uniform(0, 49)),
                  Value::Double(900 + rng.NextDouble() * 100000),
                  Value::Double(rng.Uniform(0, 9) * 0.01),
                  Value::Int(9000 + rng.Uniform(0, 399))});
  }
  st = db->BulkLoad("li", std::move(li));
  if (!st.ok()) return st;
  return db->AnalyzeAll();
}

/// Best-of-`repeat` execution time; aborts the bench on query failure.
double BestMs(taurus::Database* db, const std::string& sql, int repeat,
              int* pipelines) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    auto res = db->Query(sql, taurus::OptimizerPath::kMySql);
    if (!res.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   res.status().ToString().c_str());
      std::exit(1);
    }
    if (r == 0 || res->execute_ms < best) best = res->execute_ms;
    *pipelines = res->parallel_pipelines;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const long long rows = ArgInt(argc, argv, "--rows=", 1000000);
  const int repeat = static_cast<int>(ArgInt(argc, argv, "--repeat=", 5));

  taurus::Database db;
  auto st = Setup(&db, rows);
  if (!st.ok()) {
    std::fprintf(stderr, "setup: %s\n", st.ToString().c_str());
    return 1;
  }

  const std::string scan_agg =
      "SELECT COUNT(*), SUM(qty), SUM(price * (1.0 - disc)), MIN(shipdate), "
      "MAX(shipdate) FROM li WHERE shipdate > 9050";
  // Q3 shape: selective dimension filters, two hash joins into the fact
  // scan, grouped revenue aggregate with a top-N sort.
  const std::string q3 =
      "SELECT o.id, SUM(l.price * (1.0 - l.disc)) AS revenue "
      "FROM cust c, ord o, li l "
      "WHERE c.mktsegment = 'BUILDING' AND c.id = o.custkey "
      "AND l.orderkey = o.id AND o.orderdate < 9200 AND l.shipdate > 9100 "
      "GROUP BY o.id ORDER BY revenue DESC LIMIT 10";

  PrintHeader("Morsel-driven parallel executor scaling");
  std::printf("li rows %lld, best of %d runs, hardware workers %d\n\n", rows,
              repeat, taurus::ThreadPool::HardwareWorkers());
  std::printf("%-10s %14s %14s %10s %10s %14s %14s\n", "workers",
              "scan_agg_ms", "q3_join_ms", "scan_x", "join_x", "scan_volcano",
              "join_volcano");

  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("rows", static_cast<double>(rows));
  double scan_serial = 0.0;
  double join_serial = 0.0;
  for (int workers : {1, 2, 4, 8}) {
    db.exec_config().parallel_workers = workers;
    db.exec_config().parallel_min_driver_rows = 0;
    int scan_pipes = 0;
    int join_pipes = 0;
    db.exec_config().enable_batch = true;
    double scan_ms = BestMs(&db, scan_agg, repeat, &scan_pipes);
    double join_ms = BestMs(&db, q3, repeat, &join_pipes);
    db.exec_config().enable_batch = false;
    double scan_volcano_ms = BestMs(&db, scan_agg, repeat, &scan_pipes);
    double join_volcano_ms = BestMs(&db, q3, repeat, &join_pipes);
    if (workers == 1) {
      scan_serial = scan_ms;
      join_serial = join_ms;
    }
    std::printf("%-10d %14.2f %14.2f %9.2fx %9.2fx %14.2f %14.2f%s\n",
                workers, scan_ms, join_ms,
                scan_ms > 0 ? scan_serial / scan_ms : 0.0,
                join_ms > 0 ? join_serial / join_ms : 0.0, scan_volcano_ms,
                join_volcano_ms,
                workers > 1 && scan_pipes == 0 ? "   (stayed serial)" : "");
    const std::string w = std::to_string(workers);
    metrics.emplace_back("scan_agg_ms_w" + w, scan_ms);
    metrics.emplace_back("q3_join_ms_w" + w, join_ms);
    metrics.emplace_back("scan_agg_ms_volcano_w" + w, scan_volcano_ms);
    metrics.emplace_back("q3_join_ms_volcano_w" + w, join_volcano_ms);
    if (workers == 4) {
      metrics.emplace_back("scan_speedup_w4",
                           scan_ms > 0 ? scan_serial / scan_ms : 0.0);
      metrics.emplace_back("join_speedup_w4",
                           join_ms > 0 ? join_serial / join_ms : 0.0);
    }
  }

  if (ArgFlag(argc, argv, "--json")) {
    WriteBenchJson("parallel_exec", metrics);
  }
  return 0;
}
