// Micro-benchmarks (google-benchmark) for the compilation pipeline
// stages: parsing, binding+prepare, MySQL greedy optimization, the Orca
// detour (per join-search strategy, and the EXHAUSTIVE2 join search on
// TPC-DS Q64 and Q72), the metadata provider's DXL round trip, and the
// expression-OID algebra. These are the per-component numbers behind the
// Table 1 totals.
//
// --json writes BENCH_optimizer.json (flat name -> ms/iter map) for CI
// trending; other flags pass through to google-benchmark.

#include <benchmark/benchmark.h>

#include "bench_json_reporter.h"

#include "bridge/orca_path.h"
#include "frontend/prepare.h"
#include "mdp/provider.h"
#include "myopt/mysql_optimizer.h"
#include "parser/parser.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace taurus {
namespace {

Database* SharedDb() {
  static Database* db = [] {
    auto* d = new Database();
    auto st = SetupTpch(d, 0.001);
    if (!st.ok()) std::abort();
    return d;
  }();
  return db;
}

/// TPC-DS at the benchmark's scale; only compiled, never executed.
Database* SharedTpcdsDb() {
  static Database* db = [] {
    auto* d = new Database();
    auto st = SetupTpcds(d, 0.001);
    if (!st.ok()) std::abort();
    return d;
  }();
  return db;
}

const std::string& Q5() { return TpchQueries()[4]; }

void BM_Parse(benchmark::State& state) {
  for (auto _ : state) {
    auto q = ParseSelect(Q5());
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_Parse);

void BM_BindPrepare(benchmark::State& state) {
  Database* db = SharedDb();
  for (auto _ : state) {
    auto q = ParseSelect(Q5());
    auto bound = BindStatement(db->catalog(), std::move(*q));
    BoundStatement stmt = std::move(*bound);
    auto st = PrepareStatement(&stmt);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_BindPrepare);

void BM_MySqlOptimize(benchmark::State& state) {
  Database* db = SharedDb();
  for (auto _ : state) {
    auto q = ParseSelect(Q5());
    auto bound = BindStatement(db->catalog(), std::move(*q));
    BoundStatement stmt = std::move(*bound);
    (void)PrepareStatement(&stmt);
    auto skel = MySqlOptimize(db->catalog(), &stmt);
    benchmark::DoNotOptimize(skel);
  }
}
BENCHMARK(BM_MySqlOptimize);

void BM_OrcaOptimize(benchmark::State& state) {
  Database* db = SharedDb();
  OrcaConfig config;
  config.strategy = static_cast<JoinSearchStrategy>(state.range(0));
  for (auto _ : state) {
    auto q = ParseSelect(Q5());
    auto bound = BindStatement(db->catalog(), std::move(*q));
    BoundStatement stmt = std::move(*bound);
    (void)PrepareStatement(&stmt);
    OrcaPathOptimizer orca(db->catalog(), &stmt, &db->mdp(), config);
    auto skel = orca.Optimize();
    benchmark::DoNotOptimize(skel);
  }
}
BENCHMARK(BM_OrcaOptimize)
    ->Arg(static_cast<int>(JoinSearchStrategy::kGreedy))
    ->Arg(static_cast<int>(JoinSearchStrategy::kExhaustive))
    ->Arg(static_cast<int>(JoinSearchStrategy::kExhaustive2));

/// The whole Orca detour of TPC-DS query `state.range(0)` under
/// EXHAUSTIVE2: the join search over the largest blocks in either suite
/// (Q64: 173k partition pairs, 2,053 memo groups; Q72: 17k and 515).
void BM_OrcaOptimizeTpcds(benchmark::State& state) {
  Database* db = SharedTpcdsDb();
  OrcaConfig config;
  config.strategy = JoinSearchStrategy::kExhaustive2;
  const std::string& sql =
      TpcdsQueries()[static_cast<size_t>(state.range(0)) - 1];
  for (auto _ : state) {
    auto q = ParseSelect(sql);
    auto bound = BindStatement(db->catalog(), std::move(*q));
    BoundStatement stmt = std::move(*bound);
    (void)PrepareStatement(&stmt);
    OrcaPathOptimizer orca(db->catalog(), &stmt, &db->mdp(), config);
    auto skel = orca.Optimize();
    benchmark::DoNotOptimize(skel);
  }
}
BENCHMARK(BM_OrcaOptimizeTpcds)
    ->Arg(64)
    ->Arg(72)
    ->Unit(benchmark::kMillisecond);

void BM_FullCompileOrca(benchmark::State& state) {
  Database* db = SharedDb();
  db->router_config().complex_query_threshold = 1;
  for (auto _ : state) {
    auto c = db->Compile(Q5(), OptimizerPath::kOrca);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_FullCompileOrca);

void BM_MdpDxlRoundTrip(benchmark::State& state) {
  Database* db = SharedDb();
  MetadataProvider mdp(db->catalog());  // fresh: no cache
  auto oid = mdp.RelationOidByName("lineitem");
  for (auto _ : state) {
    auto dxl = mdp.RelationToDxl(*oid);
    auto parsed = MetadataProvider::ParseRelationDxl(*dxl);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_MdpDxlRoundTrip);

void BM_MdpCachedLookup(benchmark::State& state) {
  Database* db = SharedDb();
  auto oid = db->mdp().RelationOidByName("lineitem");
  (void)db->mdp().GetRelation(*oid);  // warm
  for (auto _ : state) {
    auto rel = db->mdp().GetRelation(*oid);
    benchmark::DoNotOptimize(rel);
  }
}
BENCHMARK(BM_MdpCachedLookup);

void BM_ExprOidAlgebra(benchmark::State& state) {
  for (auto _ : state) {
    for (int64_t oid = kCmpBase; oid < kCmpBase + kNumCmpExprs; ++oid) {
      benchmark::DoNotOptimize(CommutatorOid(oid));
      benchmark::DoNotOptimize(InverseOid(oid));
    }
  }
}
BENCHMARK(BM_ExprOidAlgebra);

}  // namespace
}  // namespace taurus

int main(int argc, char** argv) {
  return taurus_bench::GBenchJsonMain(argc, argv, "optimizer");
}
