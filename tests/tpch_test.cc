#include <gtest/gtest.h>

#include <algorithm>

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

/// Rounds doubles so tiny float-order differences between plans don't
/// produce spurious mismatches.
std::string Fingerprint(std::vector<Row> rows) {
  SortRows(&rows);
  std::string out;
  char buf[40];
  for (const Row& r : rows) {
    for (const Value& v : r) {
      if (v.kind() == Value::Kind::kDouble) {
        std::snprintf(buf, sizeof(buf), "%.4f|", v.AsDouble());
        out += buf;
      } else {
        out += v.ToString();
        out += '|';
      }
    }
    out += '\n';
  }
  return out;
}

class TpchTest : public ::testing::Test {
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

TEST_F(TpchTest, SchemaHasEightTables) {
  EXPECT_EQ(db()->catalog().NumTables(), 8);
}

TEST_F(TpchTest, RowCountRatiosRoughlyTpch) {
  auto count = [&](const std::string& t) {
    auto r = db()->Query("SELECT COUNT(*) FROM " + t);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->rows[0][0].AsInt() : 0;
  };
  int64_t customers = count("customer");
  int64_t orders = count("orders");
  int64_t lineitems = count("lineitem");
  EXPECT_EQ(count("nation"), 25);
  EXPECT_EQ(count("region"), 5);
  EXPECT_NEAR(static_cast<double>(orders) / customers, 10.0, 2.0);
  EXPECT_GT(lineitems, orders * 2);
}

TEST_F(TpchTest, DeterministicGeneration) {
  Database other;
  ASSERT_TRUE(SetupTpch(&other, 0.002).ok());
  auto a = db()->Query("SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem");
  auto b = other.Query("SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(RowToString(a->rows[0]), RowToString(b->rows[0]));
}

/// Every TPC-H query must compile and execute on both optimizer paths and
/// produce identical results — the reproduction's core invariant.
class TpchQueryTest : public TpchTest,
                      public ::testing::WithParamInterface<int> {};

TEST_P(TpchQueryTest, PathsAgree) {
  const std::string& sql = TpchQueries()[static_cast<size_t>(GetParam())];
  // Both optimizers cost only index accesses refinement can bind, so no
  // chosen access is ever rebuilt as a table scan.
  const Counter* downgrades =
      db()->metrics().GetCounter("taurus.refine.access_downgrades");
  const int64_t downgrades_before = downgrades->Value();
  auto mysql = db()->Query(sql, OptimizerPath::kMySql);
  ASSERT_TRUE(mysql.ok()) << "MySQL path failed on Q" << GetParam() + 1
                          << ": " << mysql.status().ToString();
  auto orca = db()->Query(sql, OptimizerPath::kOrca);
  ASSERT_TRUE(orca.ok()) << "Orca path failed on Q" << GetParam() + 1 << ": "
                         << orca.status().ToString();
  EXPECT_TRUE(orca->used_orca);
  EXPECT_EQ(Fingerprint(mysql->rows), Fingerprint(orca->rows))
      << "plan paths disagree on Q" << GetParam() + 1;
  EXPECT_EQ(downgrades->Value(), downgrades_before)
      << "refine downgraded an index access on Q" << GetParam() + 1;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchQueryTest, ::testing::Range(0, 22),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "Q" + std::to_string(pinfo.param + 1);
                         });

}  // namespace
}  // namespace taurus
