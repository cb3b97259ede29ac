// Pins the Orca join search's search space. Each case runs the whole Orca
// detour (every block) on one statement and checks the partition pairs
// costed, the memo groups created, the root plan's cost and a fingerprint
// of every block's plan shape against values recorded before the
// enumerators were rewritten around precomputed unit masks. A change to
// either count means the enumeration visits a different search space; a
// change to the cost or the shape means it picks a different plan (equal
// costs are common, so a tie-break change shows only in the shape).
// Speed-ups of the join search must leave all four alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "bridge/orca_path.h"
#include "common/strings.h"
#include "frontend/prepare.h"
#include "parser/parser.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace taurus {
namespace {

struct Pinned {
  int64_t partitions;
  int groups;
  double cost;
  uint64_t shape;  ///< Fnv1aHash of RenderBlock's text
};

/// What one search produced: its pinned values and the shape text they
/// hash, which a failing check prints.
struct Searched {
  Pinned pinned;
  std::string shape;
};

void RenderBlock(const BlockSkeleton& block, std::string* out);

/// Join tree with join method and type, leaf access method and index,
/// recursing into derived tables.
void RenderNode(const BlockSkeleton& block, const SkeletonNode& node,
                std::string* out) {
  if (node.is_join) {
    *out += node.method == JoinMethod::kHash ? "H" : "N";
    *out += std::to_string(static_cast<int>(node.join_type)) + "(";
    RenderNode(block, *node.left, out);
    *out += ",";
    RenderNode(block, *node.right, out);
    *out += ")";
    return;
  }
  *out += node.leaf->alias + ":" +
          std::to_string(static_cast<int>(node.access)) + ":" +
          std::to_string(node.index_id);
  auto it = block.derived.find(node.leaf);
  if (it != block.derived.end()) {
    *out += "{";
    RenderBlock(*it->second, out);
    *out += "}";
  }
}

/// A block's plan shape; subquery blocks follow in sorted order, since
/// their map is keyed by address.
void RenderBlock(const BlockSkeleton& block, std::string* out) {
  if (block.root != nullptr) RenderNode(block, *block.root, out);
  std::vector<std::string> subs;
  for (const auto& [expr, sub] : block.subqueries) {
    subs.emplace_back();
    RenderBlock(*sub, &subs.back());
  }
  std::sort(subs.begin(), subs.end());
  for (const std::string& sub : subs) *out += "[" + sub + "]";
  for (const auto& arm : block.union_arms) {
    *out += " UNION ";
    RenderBlock(*arm, out);
  }
}

/// Runs the Orca detour for `sql` on `db` under `strategy`.
Searched Search(Database* db, const std::string& sql,
                JoinSearchStrategy strategy) {
  auto parsed = ParseSelect(sql);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto bound = BindStatement(db->catalog(), std::move(*parsed));
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  BoundStatement stmt = std::move(*bound);
  EXPECT_TRUE(PrepareStatement(&stmt).ok());
  OrcaConfig config;
  config.strategy = strategy;
  OrcaPathOptimizer detour(db->catalog(), &stmt, &db->mdp(), config);
  auto skeleton = detour.Optimize();
  EXPECT_TRUE(skeleton.ok()) << skeleton.status().ToString();
  if (!skeleton.ok()) return {};
  Searched out;
  RenderBlock(**skeleton, &out.shape);
  out.pinned = {detour.metrics().partitions_evaluated,
                detour.metrics().memo_groups, (*skeleton)->cost,
                Fnv1aHash(out.shape.data(), out.shape.size())};
  return out;
}

void ExpectPinned(const std::string& label, const Searched& got,
                  const Pinned& want) {
  SCOPED_TRACE(label);
  EXPECT_EQ(got.pinned.partitions, want.partitions);
  EXPECT_EQ(got.pinned.groups, want.groups);
  EXPECT_DOUBLE_EQ(got.pinned.cost, want.cost);
  EXPECT_EQ(got.pinned.shape, want.shape) << "plan shape: " << got.shape;
}

class JoinSearchTest : public ::testing::Test {
 protected:
  // The benchmark's scales: TPC-H SF 0.006, TPC-DS 0.001. Nothing runs,
  // so Q64's slow MySQL-path join is never executed.
  static Database* Tpch() {
    static Database* db = [] {
      auto* d = new Database();
      EXPECT_TRUE(SetupTpch(d, 0.006).ok());
      return d;
    }();
    return db;
  }
  static Database* Tpcds() {
    static Database* db = [] {
      auto* d = new Database();
      EXPECT_TRUE(SetupTpcds(d, 0.001).ok());
      return d;
    }();
    return db;
  }
  static const std::string& Ds(int q) { return TpcdsQueries()[q - 1]; }
  static const std::string& H(int q) { return TpchQueries()[q - 1]; }
};

TEST_F(JoinSearchTest, TpcdsExhaustive2SearchSpaceIsPinned) {
  constexpr auto kEx2 = JoinSearchStrategy::kExhaustive2;
  ExpectPinned("TPC-DS Q64", Search(Tpcds(), Ds(64), kEx2),
               {173056, 2053, 5.4256510416666668, 11018893013535638671ULL});
  ExpectPinned("TPC-DS Q72", Search(Tpcds(), Ds(72), kEx2),
               {17240, 515, 10152.350365866112, 11719189695468465512ULL});
  ExpectPinned("TPC-DS Q14", Search(Tpcds(), Ds(14), kEx2),
               {33, 30, 1260.0328974760596, 1504324211951173283ULL});
}

TEST_F(JoinSearchTest, TpchExhaustive2SearchSpaceIsPinned) {
  constexpr auto kEx2 = JoinSearchStrategy::kExhaustive2;
  ExpectPinned("TPC-H Q5", Search(Tpch(), H(5), kEx2),
               {556, 63, 38496.099136897079, 5826335631399561997ULL});
  ExpectPinned("TPC-H Q8", Search(Tpch(), H(8), kEx2),
               {5386, 256, 61.761442293303432, 17354058438762742572ULL});
}

TEST_F(JoinSearchTest, LinearAndGreedySearchSpacesArePinned) {
  constexpr auto kEx = JoinSearchStrategy::kExhaustive;
  constexpr auto kGreedy = JoinSearchStrategy::kGreedy;
  ExpectPinned("EXHAUSTIVE Q64", Search(Tpcds(), Ds(64), kEx),
               {22514, 2053, 5.4256510416666668, 9562664430628158737ULL});
  ExpectPinned("EXHAUSTIVE Q72", Search(Tpcds(), Ds(72), kEx),
               {3824, 515, 10152.350365866112, 11719189695468465512ULL});
  ExpectPinned("GREEDY Q64", Search(Tpcds(), Ds(64), kGreedy),
               {11257, 2053, 5.4256510416666668, 9562664430628158737ULL});
}

/// Per query, in suite order: what the search produced before the
/// enumerators were rewritten.
constexpr Pinned kTpchPins[] = {
    {0, 1, 36254, 6631087836003938448ULL},                        // Q1
    {590, 78, 3398.1000000000008, 9866250202725350873ULL},        // Q2
    {12, 7, 34262.789396412743, 2954671327509156982ULL},          // Q3
    {1, 3, 50348.953113401403, 6857082271356699930ULL},           // Q4
    {556, 63, 38496.099136897079, 5826335631399561997ULL},        // Q5
    {0, 1, 36232, 6631087836003938448ULL},                        // Q6
    {560, 64, 188.62859842597271, 314112463537132709ULL},         // Q7
    {5386, 256, 61.761442293303432, 17354058438762742572ULL},     // Q8
    {550, 64, 1207.666666666667, 12065480018012617249ULL},        // Q9
    {46, 15, 57059.915879627792, 13500857105999959381ULL},        // Q10
    {24, 14, 995.01565217391305, 14273427292873377829ULL},        // Q11
    {2, 3, 40706.236152172736, 13331495907052174286ULL},          // Q12
    {1, 4, 4500, 5550165365299058052ULL},                         // Q13
    {2, 3, 51173.263941146979, 2204644030230354166ULL},           // Q14
    {2, 5, 101.55000000000001, 15920844397038790026ULL},          // Q15
    {3, 5, 7754.6956799999998, 13222974595708849953ULL},          // Q16
    {12, 8, 2705.1206877314812, 4532708686934451432ULL},          // Q17
    {12, 8, 168297.75, 4482543364038726406ULL},                   // Q18
    {2, 3, 42915.012790048808, 2204644030230354166ULL},           // Q19
    {4, 9, 8535.6156521739122, 2663786377062933841ULL},           // Q20
    {48, 19, 17353.423473557817, 9322533416318576933ULL},         // Q21
    {1, 5, 5, 13477174888081284660ULL},                           // Q22
};

constexpr Pinned kTpcdsPins[] = {
    {14, 11, 87.033625410733833, 13566221658004814659ULL},        // Q1
    {50, 15, 7111.5555721831452, 4498414104851403583ULL},         // Q2
    {15, 12, 6551.2021732048834, 2865067938509019100ULL},         // Q3
    {15, 12, 2570.0038272552779, 13726141213737564898ULL},        // Q4
    {4, 6, 623.78932092004379, 6069301728874866551ULL},           // Q5
    {164, 32, 1549.0810689858058, 6860126317452752969ULL},        // Q6
    {6, 10, 998.24753559693318, 3142196279723543633ULL},          // Q7
    {12, 7, 1643.559639783869, 8212739392891126870ULL},           // Q8
    {0, 16, 11.800000000000001, 5250139589980957917ULL},          // Q9
    {50, 15, 7093.8910988529542, 4498414104851403583ULL},         // Q10
    {15, 12, 8000.2376545503366, 15229847013983583310ULL},        // Q11
    {15, 12, 2632.1705348224841, 8065676596691842651ULL},         // Q12
    {4, 6, 1082.05, 13903947211943570441ULL},                     // Q13
    {33, 30, 1260.0328974760596, 1504324211951173283ULL},         // Q14
    {6, 10, 908.08324205914562, 3142196279723543633ULL},          // Q15
    {12, 7, 2979.9079320368196, 14883347326312434033ULL},         // Q16
    {5416, 255, 2516.7534654359765, 12613174459389245598ULL},     // Q17
    {50, 15, 7093.8910988529542, 4498414104851403583ULL},         // Q18
    {15, 12, 4575.23530168043, 4141294201050091133ULL},           // Q19
    {15, 12, 2298.5742607289917, 11557534258192517509ULL},        // Q20
    {4, 6, 1082.05, 14830816593321392429ULL},                     // Q21
    {48, 16, 1507.8017524644031, 6517172606161084226ULL},         // Q22
    {6, 10, 998.24753559693318, 3142196279723543633ULL},          // Q23
    {180, 33, 5.0590277777777777, 10427147919030368573ULL},       // Q24
    {164, 31, 880.74999999999977, 11379209337342290448ULL},       // Q25
    {50, 15, 7053.5440248086725, 6169364206081516537ULL},         // Q26
    {15, 12, 6559.8903983369519, 2865067938509019100ULL},         // Q27
    {15, 12, 2570.0038272552779, 13726141213737564898ULL},        // Q28
    {4, 6, 623.78932092004379, 6069301728874866551ULL},           // Q29
    {48, 16, 2115.1493428258486, 227360575884644868ULL},          // Q30
    {70, 29, 135.27000000000001, 16025016244965177582ULL},        // Q31
    {50, 18, 405.10000000000002, 10881755656503104892ULL},        // Q32
    {164, 31, 1288.8545022588764, 5323787677268524607ULL},        // Q33
    {50, 15, 7053.5440248086725, 6169364206081516537ULL},         // Q34
    {15, 12, 8000.2376545503366, 15229847013983583310ULL},        // Q35
    {15, 12, 2625.6680796357527, 8065676596691842651ULL},         // Q36
    {4, 6, 1082.05, 13903947211943570441ULL},                     // Q37
    {48, 16, 439.29989047097484, 12593249630791116631ULL},        // Q38
    {6, 10, 998.24753559693318, 3142196279723543633ULL},          // Q39
    {12, 7, 897.4502329741149, 5996343568528559589ULL},           // Q40
    {0, 2, 40, 14007793877719588444ULL},                          // Q41
    {50, 15, 7072.3856218325, 6169364206081516537ULL},            // Q42
    {15, 12, 4575.23530168043, 4141294201050091133ULL},           // Q43
    {15, 12, 2298.5742607289917, 11557534258192517509ULL},        // Q44
    {4, 6, 1082.05, 14830816593321392429ULL},                     // Q45
    {48, 16, 405.24989047097483, 14898664232062379980ULL},        // Q46
    {6, 10, 966.04600219058045, 3142196279723543633ULL},          // Q47
    {12, 7, 3738.9967141292441, 10815726413628832519ULL},         // Q48
    {164, 31, 1128.7911232767121, 18422839156915498161ULL},       // Q49
    {50, 15, 7095.3021577191012, 6169364206081516537ULL},         // Q50
    {15, 12, 6551.2021732048834, 2865067938509019100ULL},         // Q51
    {15, 12, 2576.3201558971896, 13726141213737564898ULL},        // Q52
    {4, 6, 624.64101861993402, 6069301728874866551ULL},           // Q53
    {48, 16, 2115.1493428258486, 227360575884644868ULL},          // Q54
    {6, 10, 998.24753559693318, 3142196279723543633ULL},          // Q55
    {36, 25, 81.256470670094501, 15338521902695145188ULL},        // Q56
    {164, 31, 1350.938748225657, 5323787677268524607ULL},         // Q57
    {48, 28, 41.452732107360035, 8177127264007045991ULL},         // Q58
    {15, 12, 8000.2376545503366, 15229847013983583310ULL},        // Q59
    {15, 12, 2625.6680796357527, 8065676596691842651ULL},         // Q60
    {4, 6, 1082.05, 13903947211943570441ULL},                     // Q61
    {48, 16, 817.40087623220154, 2854964024871833497ULL},         // Q62
    {6, 10, 998.24753559693318, 3142196279723543633ULL},          // Q63
    {173056, 2053, 5.4256510416666668, 11018893013535638671ULL},  // Q64
    {164, 31, 471.25000000000006, 12050227531535498603ULL},       // Q65
    {50, 15, 7093.8910988529542, 4498414104851403583ULL},         // Q66
    {15, 12, 4582.9504668905147, 4141294201050091133ULL},         // Q67
    {15, 12, 2298.5742607289917, 11557534258192517509ULL},        // Q68
    {4, 6, 1082.05, 14830816593321392429ULL},                     // Q69
    {48, 16, 1150.5496714129245, 6517172606161084226ULL},         // Q70
    {6, 10, 966.04600219058045, 3142196279723543633ULL},          // Q71
    {17240, 515, 10152.350365866112, 11719189695468465512ULL},    // Q72
    {164, 31, 1128.7911232767121, 18422839156915498161ULL},       // Q73
    {50, 15, 7093.8910988529542, 4498414104851403583ULL},         // Q74
    {15, 12, 6551.2021732048834, 2865067938509019100ULL},         // Q75
    {15, 12, 2570.0038272552779, 13726141213737564898ULL},        // Q76
    {4, 6, 624.64101861993424, 6069301728874866551ULL},           // Q77
    {48, 16, 1474.8995618838992, 18109142928166432686ULL},        // Q78
    {6, 10, 998.24753559693318, 3142196279723543633ULL},          // Q79
    {12, 7, 461.66846745740304, 6382331879896183794ULL},          // Q80
    {58, 23, 226.1642004381161, 2199173516488644225ULL},          // Q81
    {50, 15, 7072.3856218325, 6169364206081516537ULL},            // Q82
    {15, 12, 8000.2376545503366, 15229847013983583310ULL},        // Q83
    {15, 12, 2625.6680796357527, 8065676596691842651ULL},         // Q84
    {4, 6, 1082.05, 13903947211943570441ULL},                     // Q85
    {48, 16, 232.64994523548742, 12593249630791116631ULL},        // Q86
    {6, 10, 966.04600219058045, 3142196279723543633ULL},          // Q87
    {12, 7, 2463.1405195610678, 14927412895063507985ULL},         // Q88
    {164, 31, 890.74999999999977, 12050227531535498603ULL},       // Q89
    {50, 15, 7053.5440248086725, 6169364206081516537ULL},         // Q90
    {15, 12, 4575.23530168043, 4141294201050091133ULL},           // Q91
    {50, 18, 1370.8227968830415, 233494387312406481ULL},          // Q92
    {4, 6, 1082.05, 14830816593321392429ULL},                     // Q93
    {48, 16, 1150.5496714129245, 6517172606161084226ULL},         // Q94
    {6, 10, 998.24753559693318, 3142196279723543633ULL},          // Q95
    {12, 7, 4807.8142469309678, 10815726413628832519ULL},         // Q96
    {164, 31, 1159.5495013772659, 18422839156915498161ULL},       // Q97
    {50, 15, 7053.5440248086725, 6169364206081516537ULL},         // Q98
    {15, 12, 6551.2021732048834, 2865067938509019100ULL},         // Q99
};

TEST_F(JoinSearchTest, SuitePlansArePinned) {
  // Every TPC-H and TPC-DS query under EXHAUSTIVE2, each against its own
  // pin, so a failure names the queries whose search or plan moved.
  auto check = [](Database* db, const std::vector<std::string>& queries,
                  const char* suite, const Pinned* pins, size_t num_pins) {
    ASSERT_EQ(queries.size(), num_pins);
    for (size_t q = 0; q < queries.size(); ++q) {
      ExpectPinned(std::string(suite) + " Q" + std::to_string(q + 1),
                   Search(db, queries[q], JoinSearchStrategy::kExhaustive2),
                   pins[q]);
    }
  };
  check(Tpch(), TpchQueries(), "TPC-H", kTpchPins, std::size(kTpchPins));
  check(Tpcds(), TpcdsQueries(), "TPC-DS", kTpcdsPins,
        std::size(kTpcdsPins));
}

TEST_F(JoinSearchTest, BushySearchWithLeftAndSemiUnitsIsPinned) {
  // One block with a LEFT unit (orders, dependent on customer) and a semi
  // unit from EXISTS (lineitem, dependent on supplier and orders), so the
  // enumerators take their dependent-unit paths; the chosen plan joins
  // supplier to a four-unit composite, so it is bushy.
  const std::string sql =
      "SELECT n_name, COUNT(*) FROM customer LEFT JOIN orders ON "
      "c_custkey = o_custkey AND o_orderstatus = 'F', nation, region, "
      "supplier WHERE c_nationkey = n_nationkey AND n_regionkey = "
      "r_regionkey AND s_nationkey = n_nationkey AND r_name = 'ASIA' AND "
      "EXISTS (SELECT 1 FROM lineitem WHERE l_suppkey = s_suppkey AND "
      "l_orderkey = o_orderkey) GROUP BY n_name";
  ExpectPinned("LEFT + semi",
               Search(Tpch(), sql, JoinSearchStrategy::kExhaustive2),
               {87, 26, 47414.524309981884, 2451096813864376931ULL});
  auto explain = Tpch()->Explain(sql, OptimizerPath::kOrca);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("Nested loop left join"), std::string::npos)
      << *explain;
  EXPECT_NE(explain->find("semijoin"), std::string::npos) << *explain;
}

}  // namespace
}  // namespace taurus
