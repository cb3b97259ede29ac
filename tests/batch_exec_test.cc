// Vectorized batch executor: result equivalence against the row-at-a-time
// Volcano executor across every TPC-H and TPC-DS query on both optimizer
// paths, under serial and morsel-parallel execution, across a batch-size
// sweep that includes the degenerate size 1; selection-vector edge cases
// (all-pass / all-fail / alternating NULLs); and EXPLAIN ANALYZE actuals
// staying identical when rows move in batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "engine/database.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace taurus {
namespace {

void SortRows(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = Value::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });
}

std::string RowsText(std::vector<Row> rows) {
  SortRows(&rows);
  std::string out;
  for (const Row& r : rows) out += RowToString(r) + "\n";
  return out;
}

/// Arms the executor knobs for one comparison run. Batch mode changes only
/// *how* rows move, never which rows accumulate into which aggregate in
/// what order — so equality against Volcano is exact (doubles included),
/// unlike the serial-vs-parallel comparison where morsel partial sums
/// legitimately reassociate.
void Configure(Database* db, int workers, bool batch, int64_t batch_size) {
  db->exec_config() = ExecutorConfig();
  db->exec_config().parallel_workers = workers;
  if (workers > 1) {
    db->exec_config().morsel_rows = 64;
    db->exec_config().parallel_min_driver_rows = 0;
  }
  db->exec_config().enable_batch = batch;
  db->exec_config().batch_size = batch_size;
}

/// Runs every query of a workload in Volcano mode, then batched at each
/// batch size, asserting bitwise row equality per (query, workers) cell.
/// Returns how many batch runs actually engaged a batch pipeline.
int CheckWorkload(Database* db, const std::vector<std::string>& queries,
                  OptimizerPath path, const char* tag, int workers,
                  const std::vector<int64_t>& batch_sizes) {
  int engaged = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    SCOPED_TRACE(std::string(tag) + " query #" + std::to_string(qi + 1) +
                 " workers=" + std::to_string(workers));
    Configure(db, workers, /*batch=*/false, 1024);
    auto volcano = db->Query(queries[qi], path);
    for (int64_t bs : batch_sizes) {
      SCOPED_TRACE("batch_size=" + std::to_string(bs));
      Configure(db, workers, /*batch=*/true, bs);
      auto batch = db->Query(queries[qi], path);
      if (!volcano.ok()) {
        // A query the path can't run must fail identically batched.
        EXPECT_FALSE(batch.ok());
        if (!batch.ok()) {
          EXPECT_EQ(batch.status().code(), volcano.status().code());
        }
        continue;
      }
      EXPECT_TRUE(batch.ok()) << batch.status().ToString();
      if (!batch.ok()) continue;
      EXPECT_EQ(RowsText(batch->rows), RowsText(volcano->rows));
      // Moving rows in batches must not change what was scanned/looked up.
      EXPECT_EQ(batch->rows_scanned, volcano->rows_scanned);
      EXPECT_EQ(batch->index_lookups, volcano->index_lookups);
      EXPECT_EQ(volcano->batch_pipelines, 0);
      // A pipeline can engage yet emit zero batches (everything filtered
      // out), so `batches` alone is not asserted here.
      if (batch->batch_pipelines > 0) ++engaged;
    }
  }
  Configure(db, 1, /*batch=*/true, 1024);
  return engaged;
}

/// EXPLAIN's engine label must state what runs: at workers = 1 with batch
/// on, a query whose EXPLAIN shows no "Batch pipeline" block moves no
/// batches, not even in hash-join build sides or nested-loop outer sides.
void CheckRowLabelsRunRowAtATime(Database* db,
                                 const std::vector<std::string>& queries,
                                 OptimizerPath path, const char* tag) {
  Configure(db, 1, /*batch=*/true, 1024);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    SCOPED_TRACE(std::string(tag) + " query #" + std::to_string(qi + 1));
    auto text = db->Explain(queries[qi], path);
    auto res = db->Query(queries[qi], path);
    if (!text.ok() || !res.ok()) continue;  // failures are covered above
    if (text->find("Batch pipeline") != std::string::npos) continue;
    EXPECT_EQ(res->batches, 0) << *text;
    EXPECT_EQ(res->batch_pipelines, 0) << *text;
  }
}

const std::vector<int64_t>& FullSweep() {
  static const std::vector<int64_t> sizes{1, 3, 1024, 4096};
  return sizes;
}

// ---------------------------------------------------------------------------
// TPC-H
// ---------------------------------------------------------------------------

class TpchBatchTest : public ::testing::Test {
 protected:
  static Database* db() {
    static Database* instance = [] {
      auto* d = new Database();
      auto st = SetupTpch(d, 0.002);
      EXPECT_TRUE(st.ok()) << st.ToString();
      return d;
    }();
    return instance;
  }
};

TEST_F(TpchBatchTest, MySqlSerialMatchesVolcanoAcrossBatchSizes) {
  int engaged = CheckWorkload(db(), TpchQueries(), OptimizerPath::kMySql,
                              "tpch/mysql", /*workers=*/1, FullSweep());
  // Scan/filter/agg pipelines (Q1, Q6, ...) must actually run batched.
  EXPECT_GT(engaged, 0);
}

TEST_F(TpchBatchTest, OrcaSerialMatchesVolcanoAcrossBatchSizes) {
  int engaged = CheckWorkload(db(), TpchQueries(), OptimizerPath::kOrca,
                              "tpch/orca", /*workers=*/1, FullSweep());
  EXPECT_GT(engaged, 0);
}

TEST_F(TpchBatchTest, ParallelWorkersMatchVolcano) {
  int engaged = CheckWorkload(db(), TpchQueries(), OptimizerPath::kMySql,
                              "tpch/mysql", /*workers=*/4, {1024});
  engaged += CheckWorkload(db(), TpchQueries(), OptimizerPath::kOrca,
                           "tpch/orca", /*workers=*/4, {1024});
  // Batch chains must engage inside morsel worker clones too.
  EXPECT_GT(engaged, 0);
}

TEST_F(TpchBatchTest, RowLabelledQueriesMoveNoBatches) {
  CheckRowLabelsRunRowAtATime(db(), TpchQueries(), OptimizerPath::kMySql,
                              "tpch/mysql");
  CheckRowLabelsRunRowAtATime(db(), TpchQueries(), OptimizerPath::kOrca,
                              "tpch/orca");
}

TEST_F(TpchBatchTest, BatchCountersSurfaceInQueryResult) {
  const std::string& q6 = TpchQueries()[5];  // single-table scan aggregate
  Configure(db(), 1, /*batch=*/true, 1024);
  auto res = db()->Query(q6, OptimizerPath::kMySql);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_GT(res->batch_pipelines, 0);
  EXPECT_GT(res->batches, 0);
  EXPECT_GT(res->batch_rows, 0);
  // The knob kills the whole machinery.
  Configure(db(), 1, /*batch=*/false, 1024);
  auto off = db()->Query(q6, OptimizerPath::kMySql);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->batch_pipelines, 0);
  EXPECT_EQ(off->batches, 0);
  Configure(db(), 1, /*batch=*/true, 1024);
}

TEST_F(TpchBatchTest, ExplainShowsBatchEligibility) {
  auto text = db()->Explain(TpchQueries()[5], OptimizerPath::kMySql);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("Batch pipeline (vectorized eligible)"),
            std::string::npos)
      << *text;
  // Q6's top-level sort-free scan-aggregate is eligible; a query with an
  // index-lookup driver must render the row-mode marker with its reason.
  auto q2 = db()->Explain(TpchQueries()[1], OptimizerPath::kMySql);
  ASSERT_TRUE(q2.ok());
  EXPECT_NE(q2->find("pipeline ("), std::string::npos) << *q2;
}

/// EXPLAIN ANALYZE actuals (rows, loops, q-error) must be unchanged by
/// batching; only timings may differ. Compare the JSON dumps with time
/// fields scrubbed.
TEST_F(TpchBatchTest, AnalyzeActualsUnchangedUnderBatchMode) {
  const std::regex time_re("\"(time_ms|execute_ms|optimize_ms)\": [0-9.]+");
  for (size_t qi : {0ul, 5ul, 2ul}) {  // Q1, Q6, Q3 shapes
    SCOPED_TRACE("query #" + std::to_string(qi + 1));
    Configure(db(), 1, /*batch=*/false, 1024);
    auto volcano = db()->ExplainAnalyzeJsonDump(TpchQueries()[qi],
                                                OptimizerPath::kMySql);
    ASSERT_TRUE(volcano.ok()) << volcano.status().ToString();
    Configure(db(), 1, /*batch=*/true, 1024);
    auto batch = db()->ExplainAnalyzeJsonDump(TpchQueries()[qi],
                                              OptimizerPath::kMySql);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(std::regex_replace(*batch, time_re, "\"$1\": X"),
              std::regex_replace(*volcano, time_re, "\"$1\": X"));
  }
  Configure(db(), 1, /*batch=*/true, 1024);
}

// ---------------------------------------------------------------------------
// TPC-DS
// ---------------------------------------------------------------------------

class TpcdsBatchTest : public ::testing::Test {
 protected:
  static Database* db() {
    static Database* instance = [] {
      auto* d = new Database();
      auto st = SetupTpcds(d, 0.0001);
      EXPECT_TRUE(st.ok()) << st.ToString();
      d->router_config().complex_query_threshold = 2;
      return d;
    }();
    return instance;
  }
};

TEST_F(TpcdsBatchTest, MySqlSerialMatchesVolcanoAcrossBatchSizes) {
  int engaged = CheckWorkload(db(), TpcdsQueries(), OptimizerPath::kMySql,
                              "tpcds/mysql", /*workers=*/1, FullSweep());
  EXPECT_GT(engaged, 0);
}

TEST_F(TpcdsBatchTest, OrcaSerialAndParallelMatchVolcano) {
  int engaged = CheckWorkload(db(), TpcdsQueries(), OptimizerPath::kOrca,
                              "tpcds/orca", /*workers=*/1, {3, 1024});
  engaged += CheckWorkload(db(), TpcdsQueries(), OptimizerPath::kMySql,
                           "tpcds/mysql", /*workers=*/4, {1024});
  EXPECT_GT(engaged, 0);
}

TEST_F(TpcdsBatchTest, RowLabelledQueriesMoveNoBatches) {
  CheckRowLabelsRunRowAtATime(db(), TpcdsQueries(), OptimizerPath::kMySql,
                              "tpcds/mysql");
  CheckRowLabelsRunRowAtATime(db(), TpcdsQueries(), OptimizerPath::kOrca,
                              "tpcds/orca");
}

// ---------------------------------------------------------------------------
// Selection-vector edge cases
// ---------------------------------------------------------------------------

/// Own tiny engine: a nullable-column table whose predicates produce
/// all-pass, all-fail, and alternating-NULL selection vectors, compared
/// batch-vs-Volcano at boundary batch sizes (1, 3) and a size larger than
/// the table.
class SelectionEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->ExecuteSql("CREATE TABLE t (id INT NOT NULL PRIMARY "
                                "KEY, v INT, s VARCHAR(8))")
                    .ok());
    std::vector<Row> rows;
    for (int i = 0; i < 257; ++i) {  // not a multiple of any batch size
      rows.push_back({Value::Int(i),
                      i % 2 == 0 ? Value::Null() : Value::Int(i % 10),
                      i % 3 == 0 ? Value::Null()
                                 : Value::Str("s" + std::to_string(i % 4))});
    }
    ASSERT_TRUE(db_->BulkLoad("t", std::move(rows)).ok());
    ASSERT_TRUE(db_->AnalyzeAll().ok());
  }

  void CheckBoth(const std::string& sql) {
    SCOPED_TRACE(sql);
    Configure(db_.get(), 1, /*batch=*/false, 1024);
    auto volcano = db_->Query(sql, OptimizerPath::kMySql);
    ASSERT_TRUE(volcano.ok()) << volcano.status().ToString();
    for (int64_t bs : {int64_t{1}, int64_t{3}, int64_t{4096}}) {
      SCOPED_TRACE("batch_size=" + std::to_string(bs));
      Configure(db_.get(), 1, /*batch=*/true, bs);
      auto batch = db_->Query(sql, OptimizerPath::kMySql);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      EXPECT_EQ(RowsText(batch->rows), RowsText(volcano->rows));
      EXPECT_EQ(batch->rows_scanned, volcano->rows_scanned);
    }
  }

  std::unique_ptr<Database> db_;
};

TEST_F(SelectionEdgeTest, AllPass) {
  CheckBoth("SELECT COUNT(*), SUM(id) FROM t WHERE id >= 0");
}

TEST_F(SelectionEdgeTest, AllFail) {
  CheckBoth("SELECT COUNT(*), SUM(id) FROM t WHERE id < 0");
}

TEST_F(SelectionEdgeTest, AlternatingNulls) {
  // v is NULL on every even row: the predicate's 3-valued logic must drop
  // NULL outcomes exactly as the row-at-a-time evaluator does.
  CheckBoth("SELECT COUNT(*), SUM(v) FROM t WHERE v > 4");
  CheckBoth("SELECT COUNT(*) FROM t WHERE v IS NULL");
  CheckBoth("SELECT COUNT(*) FROM t WHERE v IS NOT NULL AND s IS NULL");
  CheckBoth("SELECT id FROM t WHERE NOT (v > 4 OR s = 's1')");
  CheckBoth("SELECT id, v FROM t WHERE v > 2 AND v < 8 AND s <> 's2'");
  CheckBoth(
      "SELECT CASE WHEN v IS NULL THEN -1 ELSE v END, COUNT(*) FROM t "
      "GROUP BY CASE WHEN v IS NULL THEN -1 ELSE v END");
  CheckBoth("SELECT id FROM t WHERE v IN (1, 3, NULL)");
}

TEST_F(SelectionEdgeTest, UnionHeadLimitIsNoEarlyExit) {
  // The LIMIT applies after the union, so the head block drains fully and
  // may run batched like any other full-drain pipeline.
  const std::string sql =
      "SELECT id FROM t WHERE v > 4 UNION ALL SELECT id FROM t WHERE v < 2 "
      "LIMIT 5";
  CheckBoth(sql);
  auto text = db_->Explain(sql, OptimizerPath::kMySql);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(text->find("row-limit early exit"), std::string::npos) << *text;
}

TEST_F(SelectionEdgeTest, LastBatchPartialFill) {
  // 257 rows with batch sizes 1/3/4096 exercises short final batches and
  // single-row batches; the join doubles as a probe-side boundary check.
  CheckBoth(
      "SELECT a.id, b.v FROM t a, t b WHERE a.id = b.id AND a.v > 3");
}

}  // namespace
}  // namespace taurus
