#include <gtest/gtest.h>

#include "bridge/orca_path.h"
#include "bridge/parse_tree_converter.h"
#include "exec/block_executor.h"
#include "frontend/prepare.h"
#include "mdp/stats_adapter.h"
#include "frontend/normalize.h"
#include "myopt/refine.h"
#include "orca/optimizer.h"
#include "parser/parser.h"
#include "storage/storage.h"

namespace taurus {
namespace {

/// Fixture with a small star schema: fact(1000) -> dim_a(10), dim_b(100).
class OrcaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fact = catalog_.CreateTable(
        "fact", {{"f_id", TypeId::kLong, 0, false},
                 {"f_a", TypeId::kLong, 0, false},
                 {"f_b", TypeId::kLong, 0, false},
                 {"f_val", TypeId::kDouble, 0, false}});
    ASSERT_TRUE(fact.ok());
    ASSERT_TRUE(catalog_.AddIndex("fact", {"fact_pk", {0}, true, true}).ok());
    ASSERT_TRUE(catalog_.AddIndex("fact", {"fact_a", {1}, false, false}).ok());
    auto dim_a = catalog_.CreateTable(
        "dim_a", {{"a_id", TypeId::kLong, 0, false},
                  {"a_name", TypeId::kVarchar, 20, false}});
    ASSERT_TRUE(dim_a.ok());
    ASSERT_TRUE(catalog_.AddIndex("dim_a", {"a_pk", {0}, true, true}).ok());
    auto dim_b = catalog_.CreateTable(
        "dim_b", {{"b_id", TypeId::kLong, 0, false},
                  {"b_name", TypeId::kVarchar, 20, false}});
    ASSERT_TRUE(dim_b.ok());
    ASSERT_TRUE(catalog_.AddIndex("dim_b", {"b_pk", {0}, true, true}).ok());

    TableData* fd = storage_.CreateTable(*fact);
    for (int i = 0; i < 1000; ++i) {
      fd->Append({Value::Int(i), Value::Int(i % 10), Value::Int(i % 100),
                  Value::Double(i * 0.5)});
    }
    fd->BuildIndexes();
    catalog_.SetStats((*fact)->id, ComputeTableStats(*fd));
    TableData* ad = storage_.CreateTable(*dim_a);
    for (int i = 0; i < 10; ++i) {
      ad->Append({Value::Int(i), Value::Str("a" + std::to_string(i))});
    }
    ad->BuildIndexes();
    catalog_.SetStats((*dim_a)->id, ComputeTableStats(*ad));
    TableData* bd = storage_.CreateTable(*dim_b);
    for (int i = 0; i < 100; ++i) {
      bd->Append({Value::Int(i), Value::Str("b" + std::to_string(i))});
    }
    bd->BuildIndexes();
    catalog_.SetStats((*dim_b)->id, ComputeTableStats(*bd));
    mdp_ = std::make_unique<MetadataProvider>(catalog_);
  }

  /// Parses, binds, prepares, converts, optimizes; returns the physical
  /// plan (keeps the statement alive in stmt_).
  Result<std::unique_ptr<OrcaPhysicalOp>> OptimizeSql(
      const std::string& sql, const OrcaConfig& config) {
    auto parsed = ParseSelect(sql);
    if (!parsed.ok()) return parsed.status();
    auto bound = BindStatement(catalog_, std::move(*parsed));
    if (!bound.ok()) return bound.status();
    stmt_ = std::move(*bound);
    TAURUS_RETURN_IF_ERROR(PrepareStatement(&stmt_));
    TAURUS_ASSIGN_OR_RETURN(
        logical_, ConvertBlockToOrcaLogical(stmt_.block.get(),
                                            stmt_.num_refs, mdp_.get(),
                                            config));
    stats_ = std::make_unique<MdpStatsProvider>(catalog_, stmt_.leaves,
                                                mdp_.get());
    OrcaOptimizer optimizer(config, stats_.get(), stmt_.num_refs);
    auto plan = optimizer.Optimize(logical_.get());
    last_partitions_ = optimizer.partitions_evaluated();
    last_groups_ = optimizer.num_groups();
    return plan;
  }

  /// Runs the whole Orca detour (every block) into a skeleton plan; the
  /// statement stays in stmt_ for RefineStmt.
  Result<std::unique_ptr<BlockSkeleton>> OrcaSkeleton(const std::string& sql) {
    auto parsed = ParseSelect(sql);
    if (!parsed.ok()) return parsed.status();
    auto bound = BindStatement(catalog_, std::move(*parsed));
    if (!bound.ok()) return bound.status();
    stmt_ = std::move(*bound);
    TAURUS_RETURN_IF_ERROR(PrepareStatement(&stmt_));
    OrcaConfig config;  // the detour keeps a reference
    OrcaPathOptimizer detour(catalog_, &stmt_, mdp_.get(), config);
    return detour.Optimize();
  }

  Result<std::unique_ptr<CompiledQuery>> RefineStmt(
      const BlockSkeleton& skel) {
    return RefinePlan(std::move(stmt_), skel, catalog_);
  }

  static int CountKind(const OrcaPhysicalOp& op, OrcaPhysicalOp::Kind kind) {
    int n = op.kind == kind ? 1 : 0;
    for (const auto& c : op.children) n += CountKind(*c, kind);
    return n;
  }

  Catalog catalog_;
  Storage storage_;
  std::unique_ptr<MetadataProvider> mdp_;
  BoundStatement stmt_;
  std::unique_ptr<OrcaLogicalOp> logical_;
  std::unique_ptr<MdpStatsProvider> stats_;
  int64_t last_partitions_ = 0;
  int last_groups_ = 0;
};

TEST_F(OrcaTest, ConverterSegregatesPredicates) {
  OrcaConfig config;
  auto parsed = ParseSelect(
      "SELECT COUNT(*) FROM fact, dim_a WHERE f_a = a_id AND a_name = 'a3' "
      "AND f_val > 100");
  auto bound = BindStatement(catalog_, std::move(*parsed));
  ASSERT_TRUE(bound.ok());
  stmt_ = std::move(*bound);
  ASSERT_TRUE(PrepareStatement(&stmt_).ok());
  auto logical = ConvertBlockToOrcaLogical(stmt_.block.get(), stmt_.num_refs,
                                           mdp_.get(), config);
  ASSERT_TRUE(logical.ok()) << logical.status().ToString();
  std::string tree = (*logical)->ToString();
  // Local predicates became Selects over the Gets; the join predicate
  // stayed at the join (the paper's Listing 3 -> Listing 4 segregation).
  EXPECT_NE(tree.find("LogicalSelect[(a_name = 'a3')]"), std::string::npos)
      << tree;
  EXPECT_NE(tree.find("LogicalSelect[(f_val > 100)]"), std::string::npos)
      << tree;
  EXPECT_NE(tree.find("LogicalJoin(inner)[(f_a = a_id)]"), std::string::npos)
      << tree;
}

TEST_F(OrcaTest, ConverterEmbellishesOids) {
  OrcaConfig config;
  auto parsed = ParseSelect("SELECT COUNT(*) FROM fact WHERE f_a = 3");
  auto bound = BindStatement(catalog_, std::move(*parsed));
  stmt_ = std::move(*bound);
  ASSERT_TRUE(PrepareStatement(&stmt_).ok());
  auto logical = ConvertBlockToOrcaLogical(stmt_.block.get(), stmt_.num_refs,
                                           mdp_.get(), config);
  ASSERT_TRUE(logical.ok());
  // Single-table query: Select over Get with the relation OID and the
  // INT4_EQ_INT8 comparison OID (literal ints are BIGINT).
  const OrcaLogicalOp* node = logical->get();
  ASSERT_EQ(node->kind, OrcaLogicalOp::Kind::kSelect);
  ASSERT_EQ(node->children[0]->kind, OrcaLogicalOp::Kind::kGet);
  EXPECT_EQ(node->children[0]->relation_oid, RelationOid(0));
  ASSERT_EQ(node->cond_oids.size(), 1u);
  EXPECT_EQ(ExprOidName(node->cond_oids[0]), "INT4_EQ_INT8");
}

TEST_F(OrcaTest, PicksHashJoinForLargeBuild) {
  OrcaConfig config;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact, dim_b WHERE f_b = b_id", config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // No usable index on f_b: hash join, probing the big fact side.
  EXPECT_EQ(CountKind(**plan, OrcaPhysicalOp::Kind::kHashJoin), 1);
}

TEST_F(OrcaTest, PicksIndexNljForSelectiveOuter) {
  OrcaConfig config;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact, dim_a WHERE f_a = a_id AND "
      "a_name = 'a3'",
      config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // One dim row -> index lookups into fact via fact_a beat a hash build.
  EXPECT_EQ(CountKind(**plan, OrcaPhysicalOp::Kind::kIndexLookup), 1)
      << (*plan)->ToString();
}

TEST_F(OrcaTest, IndexNljDisabledFallsBackToHash) {
  OrcaConfig config;
  config.enable_index_nlj = false;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact, dim_a WHERE f_a = a_id AND "
      "a_name = 'a3'",
      config);
  ASSERT_TRUE(plan.ok());
  // No index lookups; the optimizer falls back to a hash join or (with a
  // one-row outer) a plain nested-loop rescan — either way, not a lookup.
  EXPECT_EQ(CountKind(**plan, OrcaPhysicalOp::Kind::kIndexLookup), 0);
  EXPECT_EQ(CountKind(**plan, OrcaPhysicalOp::Kind::kHashJoin) +
                CountKind(**plan, OrcaPhysicalOp::Kind::kNLJoin),
            1);
}

TEST_F(OrcaTest, MemoGroupIdsAssigned) {
  OrcaConfig config;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact, dim_a, dim_b WHERE f_a = a_id AND "
      "f_b = b_id",
      config);
  ASSERT_TRUE(plan.ok());
  EXPECT_GE((*plan)->memo_group, 0);
  EXPECT_GT(last_groups_, 3);  // at least leaves + joins
  EXPECT_GT(last_partitions_, 0);
}

TEST_F(OrcaTest, GreedyCheaperThanExhaustive2InEffort) {
  const std::string sql =
      "SELECT COUNT(*) FROM fact f1, fact f2, dim_a, dim_b WHERE "
      "f1.f_id = f2.f_id AND f1.f_a = a_id AND f2.f_b = b_id";
  OrcaConfig config;
  config.strategy = JoinSearchStrategy::kGreedy;
  ASSERT_TRUE(OptimizeSql(sql, config).ok());
  int64_t greedy = last_partitions_;
  config.strategy = JoinSearchStrategy::kExhaustive2;
  ASSERT_TRUE(OptimizeSql(sql, config).ok());
  int64_t ex2 = last_partitions_;
  EXPECT_LT(greedy, ex2);
}

TEST_F(OrcaTest, DependentUnitsRespectOrdering) {
  OrcaConfig config;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM dim_a WHERE EXISTS "
      "(SELECT 1 FROM fact WHERE f_a = a_id AND f_val > 400)",
      config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // The semi join must keep dim_a on the outer side.
  const OrcaPhysicalOp* root = plan->get();
  ASSERT_TRUE(root->kind == OrcaPhysicalOp::Kind::kHashJoin ||
              root->kind == OrcaPhysicalOp::Kind::kNLJoin);
  EXPECT_EQ(root->join_type, JoinType::kSemi);
  std::vector<TableRef*> left_leaves;
  EXPECT_EQ(root->children[0]->leaf->table_name, "dim_a");
}

TEST_F(OrcaTest, CostsAndRowsPopulated) {
  OrcaConfig config;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact, dim_a WHERE f_a = a_id", config);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT((*plan)->cost, 0.0);
  EXPECT_GT((*plan)->rows, 100.0);  // ~1000 rows expected
  EXPECT_LT((*plan)->rows, 10000.0);
}

// ---------------------------------------------------------------------------
// The access-path rule: Orca costs only what refine can build
// ---------------------------------------------------------------------------

TEST_F(OrcaTest, CorrelatedEqualityPicksBoundLookup) {
  // TPC-H Q20's inner block: two correlated equalities (so the detour
  // keeps the subquery correlated), f_a = b_id keyed by the outer row.
  // Costing it as a range, which refine cannot bind to a non-constant,
  // rebuilt it as a full fact scan per outer row.
  auto skel = OrcaSkeleton(
      "SELECT b_id FROM dim_b WHERE b_id < "
      "(SELECT SUM(f_val) FROM fact WHERE f_a = b_id AND f_b = b_id)");
  ASSERT_TRUE(skel.ok()) << skel.status().ToString();
  ASSERT_EQ((*skel)->subqueries.size(), 1u);
  const SkeletonNode& inner = *(*skel)->subqueries.begin()->second->root;
  EXPECT_EQ(inner.access, AccessMethod::kIndexLookup);
  EXPECT_EQ(inner.index_id, 1);  // fact_a
  auto q = RefineStmt(**skel);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->access_downgrades, 0);
  ASSERT_EQ((*q)->subplans.size(), 1u);
  const PhysOp& leaf = *(*q)->subplans[0]->plan->join_root;
  ASSERT_EQ(leaf.kind, PhysOp::Kind::kIndexLookup);
  ASSERT_EQ(leaf.lookup_keys.size(), 1u);
  EXPECT_EQ(leaf.lookup_keys[0]->ToString(), "b_id");
}

TEST_F(OrcaTest, ConstEqualityRefinesToPointRange) {
  auto skel = OrcaSkeleton("SELECT f_val FROM fact WHERE f_id = 42");
  ASSERT_TRUE(skel.ok()) << skel.status().ToString();
  EXPECT_EQ((*skel)->root->access, AccessMethod::kIndexRange);
  auto q = RefineStmt(**skel);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->access_downgrades, 0);
  const PhysOp& leaf = *(*q)->root->join_root;
  ASSERT_EQ(leaf.kind, PhysOp::Kind::kIndexRange);
  ASSERT_NE(leaf.range_lo, nullptr);
  EXPECT_EQ(leaf.range_lo, leaf.range_hi);
  EXPECT_TRUE(leaf.lo_inclusive);
  EXPECT_TRUE(leaf.hi_inclusive);
  auto rows = ExecuteQuery(q->get(), storage_);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_DOUBLE_EQ((*rows)[0][0].AsDouble(), 21.0);
}

TEST_F(OrcaTest, SameTableComparisonIsNeverARange) {
  OrcaConfig config;
  auto plan =
      OptimizeSql("SELECT COUNT(*) FROM fact WHERE f_id <= f_a", config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(CountKind(**plan, OrcaPhysicalOp::Kind::kIndexRangeScan), 0)
      << (*plan)->ToString();
  EXPECT_EQ(CountKind(**plan, OrcaPhysicalOp::Kind::kTableScan), 1);
}

TEST_F(OrcaTest, HashJoinKeepsKeysOverConstantKeyedLookup) {
  // TPC-DS Q88's shape (see the MySQL-path twin in myopt_test).
  auto skel = OrcaSkeleton(
      "SELECT COUNT(*) FROM fact f1, fact f2 WHERE f1.f_val = f2.f_val AND "
      "f2.f_a = 3");
  ASSERT_TRUE(skel.ok()) << skel.status().ToString();
  SkeletonNode* root = (*skel)->root.get();
  ASSERT_TRUE(root->is_join);
  ASSERT_EQ(root->method, JoinMethod::kHash);
  if (root->right->leaf->alias != "f2") std::swap(root->left, root->right);
  root->right->access = AccessMethod::kIndexLookup;
  root->right->index_id = 1;  // fact_a, keyed by the constant 3
  auto q = RefineStmt(**skel);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const PhysOp& join = *(*q)->root->join_root;
  ASSERT_EQ(join.kind, PhysOp::Kind::kHashJoin);
  EXPECT_EQ(join.hash_keys.size(), 1u);
  ASSERT_EQ(join.right->kind, PhysOp::Kind::kIndexLookup);
  ASSERT_EQ(join.right->lookup_keys.size(), 1u);
  EXPECT_EQ(join.right->lookup_keys[0]->ToString(), "3");
  auto rows = ExecuteQuery(q->get(), storage_);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][0].AsInt(), 100);
}

// ---------------------------------------------------------------------------
// OR factoring (normalize.cc)
// ---------------------------------------------------------------------------

class OrFactorTest : public ::testing::Test {
 protected:
  std::unique_ptr<Expr> ParseExprFromWhere(const std::string& cond) {
    auto q = ParseSelect("SELECT 1 FROM t WHERE " + cond);
    EXPECT_TRUE(q.ok());
    return std::move((*q)->where);
  }
};

TEST_F(OrFactorTest, FactorsCommonConjunct) {
  auto e = ParseExprFromWhere("(a = b AND c = 1) OR (a = b AND d = 2)");
  EXPECT_TRUE(FactorOrCommonConjuncts(&e));
  // (a = b) AND ((c = 1) OR (d = 2))
  ASSERT_EQ(e->bop, BinaryOp::kAnd);
  EXPECT_EQ(e->children[0]->ToString(), "(a = b)");
  EXPECT_EQ(e->children[1]->bop, BinaryOp::kOr);
}

TEST_F(OrFactorTest, FactorsAcrossThreeBranches) {
  auto e = ParseExprFromWhere(
      "(a = b AND c = 1) OR (a = b AND d = 2) OR (a = b AND f = 3)");
  EXPECT_TRUE(FactorOrCommonConjuncts(&e));
  ASSERT_EQ(e->bop, BinaryOp::kAnd);
  EXPECT_EQ(e->children[0]->ToString(), "(a = b)");
}

TEST_F(OrFactorTest, NoCommonConjunctNoChange) {
  auto e = ParseExprFromWhere("(a = 1 AND b = 2) OR (c = 3 AND d = 4)");
  EXPECT_FALSE(FactorOrCommonConjuncts(&e));
  EXPECT_EQ(e->bop, BinaryOp::kOr);
}

TEST_F(OrFactorTest, BranchEqualToCommonMakesOrVacuous) {
  // (a = b) OR (a = b AND c = 1)  ->  a = b
  auto e = ParseExprFromWhere("(a = b) OR (a = b AND c = 1)");
  EXPECT_TRUE(FactorOrCommonConjuncts(&e));
  EXPECT_EQ(e->ToString(), "(a = b)");
}

TEST_F(OrFactorTest, MultipleCommonConjuncts) {
  auto e = ParseExprFromWhere(
      "(a = b AND x = y AND c = 1) OR (a = b AND x = y AND d = 2)");
  EXPECT_TRUE(FactorOrCommonConjuncts(&e));
  std::string s = e->ToString();
  EXPECT_NE(s.find("(a = b)"), std::string::npos);
  EXPECT_NE(s.find("(x = y)"), std::string::npos);
}

TEST_F(OrFactorTest, RecursesIntoNestedExpressions) {
  auto e = ParseExprFromWhere(
      "z = 9 AND ((a = b AND c = 1) OR (a = b AND d = 2))");
  EXPECT_TRUE(FactorOrCommonConjuncts(&e));
  EXPECT_NE(e->ToString().find("(a = b)"), std::string::npos);
}

}  // namespace
}  // namespace taurus
