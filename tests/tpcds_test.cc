#include <gtest/gtest.h>

#include <algorithm>

#include "workloads/tpcds.h"

namespace taurus {
namespace {

std::string Fingerprint(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = Value::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });
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

class TpcdsTest : public ::testing::Test {
 protected:
  static Database* db() {
    static Database* instance = [] {
      auto* d = new Database();
      // 0.0001 keeps every generator floor (288 store_sales, 24 items) while
      // holding Q64's nested-loop join, which grows super-cubically in fact
      // rows, to well under a second. 0.001 made that one query run for hours.
      auto st = SetupTpcds(d, 0.0001);
      EXPECT_TRUE(st.ok()) << st.ToString();
      // The paper used threshold 2 for TPC-DS.
      d->router_config().complex_query_threshold = 2;
      return d;
    }();
    return instance;
  }
};

TEST_F(TpcdsTest, SchemaHasSeventeenTables) {
  EXPECT_EQ(db()->catalog().NumTables(), 17);
}

TEST_F(TpcdsTest, NinetyNineQueries) {
  EXPECT_EQ(TpcdsQueries().size(), 99u);
}

TEST_F(TpcdsTest, ChannelVolumeRatios) {
  auto count = [&](const std::string& t) {
    auto r = db()->Query("SELECT COUNT(*) FROM " + t);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->rows[0][0].AsInt() : 0;
  };
  int64_t ss = count("store_sales");
  int64_t cs = count("catalog_sales");
  int64_t ws = count("web_sales");
  EXPECT_GT(ss, cs);
  EXPECT_GT(cs, ws);
  EXPECT_GT(count("store_returns"), 0);
  EXPECT_GT(count("inventory"), 0);
}

TEST_F(TpcdsTest, ManufactCardinalityMatchesQ41Story) {
  // Q41's speedup hinges on items >> distinct manufacturers.
  auto r = db()->Query(
      "SELECT COUNT(*), COUNT(DISTINCT i_manufact) FROM item");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->rows[0][0].AsInt(), 3 * r->rows[0][1].AsInt());
}

/// All 99 queries must agree across the two optimizer paths.
class TpcdsQueryTest : public TpcdsTest,
                       public ::testing::WithParamInterface<int> {};

TEST_P(TpcdsQueryTest, PathsAgree) {
  const std::string& sql = TpcdsQueries()[static_cast<size_t>(GetParam())];
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
  EXPECT_EQ(Fingerprint(mysql->rows), Fingerprint(orca->rows))
      << "plan paths disagree on Q" << GetParam() + 1;
  EXPECT_EQ(downgrades->Value(), downgrades_before)
      << "refine downgraded an index access on Q" << GetParam() + 1;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpcdsQueryTest, ::testing::Range(0, 99),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "Q" + std::to_string(pinfo.param + 1);
                         });

}  // namespace
}  // namespace taurus
