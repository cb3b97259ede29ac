#include <gtest/gtest.h>

#include "exec/block_executor.h"
#include "frontend/prepare.h"
#include "myopt/cardinality.h"
#include "parser/ast_util.h"
#include "myopt/join_graph.h"
#include "myopt/mysql_optimizer.h"
#include "myopt/refine.h"
#include "parser/parser.h"
#include "storage/storage.h"

namespace taurus {
namespace {

class MyOptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto big = catalog_.CreateTable(
        "big", {{"b_id", TypeId::kLong, 0, false},
                {"b_fk", TypeId::kLong, 0, false},
                {"b_v", TypeId::kDouble, 0, false}});
    ASSERT_TRUE(big.ok());
    ASSERT_TRUE(catalog_.AddIndex("big", {"big_pk", {0}, true, true}).ok());
    ASSERT_TRUE(catalog_.AddIndex("big", {"big_fk", {1}, false, false}).ok());
    auto small = catalog_.CreateTable(
        "small", {{"s_id", TypeId::kLong, 0, false},
                  {"s_name", TypeId::kVarchar, 20, false}});
    ASSERT_TRUE(small.ok());
    ASSERT_TRUE(catalog_.AddIndex("small", {"small_pk", {0}, true, true}).ok());

    TableData* bd = storage_.CreateTable(*big);
    for (int i = 0; i < 5000; ++i) {
      bd->Append({Value::Int(i), Value::Int(i % 50),
                  Value::Double(0.25 * i)});
    }
    bd->BuildIndexes();
    catalog_.SetStats((*big)->id, ComputeTableStats(*bd));
    TableData* sd = storage_.CreateTable(*small);
    for (int i = 0; i < 50; ++i) {
      sd->Append({Value::Int(i), Value::Str("n" + std::to_string(i))});
    }
    sd->BuildIndexes();
    catalog_.SetStats((*small)->id, ComputeTableStats(*sd));
  }

  Result<BoundStatement> Prep(const std::string& sql) {
    auto parsed = ParseSelect(sql);
    if (!parsed.ok()) return parsed.status();
    auto bound = BindStatement(catalog_, std::move(*parsed));
    if (!bound.ok()) return bound.status();
    BoundStatement stmt = std::move(*bound);
    TAURUS_RETURN_IF_ERROR(PrepareStatement(&stmt));
    return stmt;
  }

  Catalog catalog_;
  Storage storage_;
};

// ---------------------------------------------------------------------------
// Join graph
// ---------------------------------------------------------------------------

TEST_F(MyOptTest, JoinGraphFlattensInnerJoins) {
  auto stmt = Prep(
      "SELECT 1 FROM big b1 JOIN big b2 ON b1.b_id = b2.b_id "
      "JOIN small ON b2.b_fk = s_id WHERE b1.b_v > 3");
  ASSERT_TRUE(stmt.ok());
  auto graph = BuildJoinGraph(stmt->block.get(), stmt->num_refs);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->units.size(), 3u);  // all freely reorderable
  for (const JoinUnit& u : graph->units) {
    EXPECT_EQ(u.join_type, JoinType::kInner);
    EXPECT_EQ(u.dependency, 0u);
  }
  // Conjuncts: 2 ON equalities + 1 WHERE filter.
  EXPECT_EQ(graph->conjuncts.size(), 3u);
}

TEST_F(MyOptTest, JoinGraphDependentUnits) {
  auto stmt = Prep(
      "SELECT 1 FROM big LEFT JOIN small ON b_fk = s_id WHERE b_v >= 0");
  ASSERT_TRUE(stmt.ok());
  auto graph = BuildJoinGraph(stmt->block.get(), stmt->num_refs);
  ASSERT_TRUE(graph.ok());
  ASSERT_EQ(graph->units.size(), 2u);
  EXPECT_EQ(graph->units[0].join_type, JoinType::kInner);
  EXPECT_EQ(graph->units[1].join_type, JoinType::kLeft);
  EXPECT_EQ(graph->units[1].dependency, 1u);  // depends on unit 0
  ASSERT_EQ(graph->units[1].join_conds.size(), 1u);
}

TEST_F(MyOptTest, JoinGraphConjunctMasks) {
  auto stmt = Prep(
      "SELECT 1 FROM big, small WHERE b_fk = s_id AND b_v > 5 AND 1 = 1");
  ASSERT_TRUE(stmt.ok());
  auto graph = BuildJoinGraph(stmt->block.get(), stmt->num_refs);
  ASSERT_TRUE(graph.ok());
  // Masks: join cond covers both units; local cond covers one; the
  // constant folds to a literal with no units.
  uint64_t masks[3] = {0, 0, 0};
  for (size_t i = 0; i < graph->conjuncts.size(); ++i) {
    masks[i] = graph->conjuncts[i].units;
  }
  EXPECT_EQ(masks[0], 0b11u);
  EXPECT_EQ(masks[1], 0b01u);
  EXPECT_EQ(masks[2], 0u);
}

// ---------------------------------------------------------------------------
// Cardinality estimation
// ---------------------------------------------------------------------------

TEST_F(MyOptTest, SelectivityFromHistograms) {
  auto stmt = Prep(
      "SELECT 1 FROM big WHERE b_id < 1000 AND b_fk = 7 AND "
      "b_v BETWEEN 100 AND 200");
  ASSERT_TRUE(stmt.ok());
  StatsProvider stats(catalog_, stmt->leaves);
  std::vector<const Expr*> conjs;
  SplitConjuncts(stmt->block->where.get(), &conjs);
  ASSERT_EQ(conjs.size(), 3u);
  EXPECT_NEAR(stats.ConjunctSelectivity(*conjs[0]), 0.2, 0.05);    // < 1000
  EXPECT_NEAR(stats.ConjunctSelectivity(*conjs[1]), 0.02, 0.005);  // = 7
  // b_v in [100, 200] of [0, 1249.75] ~ 8%.
  EXPECT_NEAR(stats.ConjunctSelectivity(*conjs[2]), 0.08, 0.03);
}

TEST_F(MyOptTest, EqJoinSelectivityUsesMaxNdv) {
  auto stmt = Prep("SELECT 1 FROM big, small WHERE b_fk = s_id");
  ASSERT_TRUE(stmt.ok());
  StatsProvider stats(catalog_, stmt->leaves);
  std::vector<const Expr*> conjs;
  SplitConjuncts(stmt->block->where.get(), &conjs);
  // ndv(b_fk) = ndv(s_id) = 50 -> selectivity 1/50.
  EXPECT_NEAR(stats.EqJoinSelectivity(*conjs[0]), 1.0 / 50, 1e-9);
}

TEST_F(MyOptTest, LeafBaseRowsAndDerivedOverride) {
  auto stmt = Prep("SELECT 1 FROM big, (SELECT s_id FROM small) d "
                   "WHERE b_fk = d.s_id");
  ASSERT_TRUE(stmt.ok());
  StatsProvider stats(catalog_, stmt->leaves);
  auto leaves = stmt->block->Leaves();
  EXPECT_DOUBLE_EQ(stats.LeafBaseRows(*leaves[0]), 5000.0);
  stats.SetDerivedRows(leaves[1], 42.0);
  EXPECT_DOUBLE_EQ(stats.LeafBaseRows(*leaves[1]), 42.0);
}

// ---------------------------------------------------------------------------
// Greedy optimizer & skeleton
// ---------------------------------------------------------------------------

TEST_F(MyOptTest, GreedyPrefersRefAccess) {
  auto stmt = Prep(
      "SELECT 1 FROM small, big WHERE s_id = b_fk AND s_name = 'n3'");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok()) << skel.status().ToString();
  std::vector<const SkeletonNode*> bpa;
  (*skel)->root->BestPositionArray(&bpa);
  ASSERT_EQ(bpa.size(), 2u);
  // small (1 row after filter) drives; big accessed via the b_fk index.
  EXPECT_EQ(bpa[0]->leaf->table_name, "small");
  EXPECT_EQ(bpa[1]->leaf->table_name, "big");
  EXPECT_EQ(bpa[1]->access, AccessMethod::kIndexLookup);
}

TEST_F(MyOptTest, GreedyUsesHashJoinWithoutIndex) {
  // Join on non-indexed columns: MySQL's non-cost-based hash fallback.
  auto stmt = Prep("SELECT 1 FROM big b1, big b2 WHERE b1.b_v = b2.b_v");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  ASSERT_TRUE((*skel)->root->is_join);
  EXPECT_EQ((*skel)->root->method, JoinMethod::kHash);
}

TEST_F(MyOptTest, DependentUnitPlacedAfterOuter) {
  auto stmt = Prep(
      "SELECT 1 FROM small LEFT JOIN big ON s_id = b_fk");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  std::vector<const SkeletonNode*> bpa;
  (*skel)->root->BestPositionArray(&bpa);
  ASSERT_EQ(bpa.size(), 2u);
  EXPECT_EQ(bpa[0]->leaf->table_name, "small");
  EXPECT_EQ((*skel)->root->join_type, JoinType::kLeft);
}

TEST_F(MyOptTest, RangeAccessChosenForSelectiveRange) {
  auto stmt = Prep("SELECT 1 FROM big WHERE b_id < 100");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  EXPECT_EQ((*skel)->root->access, AccessMethod::kIndexRange);
  EXPECT_EQ((*skel)->root->index_id, 0);  // big_pk
}

TEST_F(MyOptTest, FullScanForUnselectiveRange) {
  auto stmt = Prep("SELECT 1 FROM big WHERE b_id < 4900");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  EXPECT_EQ((*skel)->root->access, AccessMethod::kTableScan);
}

// ---------------------------------------------------------------------------
// Refinement: predicate placement
// ---------------------------------------------------------------------------

TEST_F(MyOptTest, RefinementPushesLocalFiltersToScans) {
  auto stmt = Prep(
      "SELECT 1 FROM big, small WHERE b_fk = s_id AND s_name = 'n3' AND "
      "b_v > 100");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  auto q = RefinePlan(std::move(*stmt), **skel, catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // Every leaf-local conjunct must sit on a scan, not on the join.
  std::vector<const PhysOp*> leaves;
  (*q)->root->join_root->CollectLeaves(&leaves);
  int filtered_leaves = 0;
  for (const PhysOp* leaf : leaves) {
    if (!leaf->filters.empty() || !leaf->lookup_keys.empty()) {
      ++filtered_leaves;
    }
  }
  EXPECT_EQ(filtered_leaves, 2);
}

TEST_F(MyOptTest, RefinementKeepsWhereAboveLeftJoinInner) {
  auto stmt = Prep(
      "SELECT 1 FROM small LEFT JOIN big ON s_id = b_fk "
      "WHERE b_id IS NULL");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  auto q = RefinePlan(std::move(*stmt), **skel, catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // The IS NULL probe must evaluate above the left join: the root becomes
  // a Filter node.
  EXPECT_EQ((*q)->root->join_root->kind, PhysOp::Kind::kFilter);
}

TEST_F(MyOptTest, RefinementBindsLookupKeys) {
  auto stmt = Prep(
      "SELECT 1 FROM small, big WHERE s_id = b_fk AND s_name = 'n3'");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  auto q = RefinePlan(std::move(*stmt), **skel, catalog_);
  ASSERT_TRUE(q.ok());
  std::vector<const PhysOp*> leaves;
  (*q)->root->join_root->CollectLeaves(&leaves);
  bool found_lookup = false;
  for (const PhysOp* leaf : leaves) {
    if (leaf->kind == PhysOp::Kind::kIndexLookup) {
      found_lookup = true;
      EXPECT_EQ(leaf->lookup_keys.size(), 1u);
    }
  }
  EXPECT_TRUE(found_lookup);
}

TEST_F(MyOptTest, RefinementDowngradesUnbindableLookup) {
  // Force a lookup skeleton whose index key cannot be bound; refinement
  // must degrade to a scan rather than fail.
  auto stmt = Prep("SELECT 1 FROM big WHERE b_v > 100");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  (*skel)->root->access = AccessMethod::kIndexLookup;
  (*skel)->root->index_id = 0;
  auto q = RefinePlan(std::move(*stmt), **skel, catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->root->join_root->kind, PhysOp::Kind::kTableScan);
  EXPECT_EQ((*q)->access_downgrades, 1);  // counted, never silent
}

TEST_F(MyOptTest, RefinementCollectsAggregates) {
  auto stmt = Prep(
      "SELECT b_fk, COUNT(*), SUM(b_v) FROM big GROUP BY b_fk "
      "HAVING COUNT(*) > 10 ORDER BY SUM(b_v) DESC");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  auto q = RefinePlan(std::move(*stmt), **skel, catalog_);
  ASSERT_TRUE(q.ok());
  const BlockPlan& plan = *(*q)->root;
  EXPECT_EQ(plan.agg_mode, AggMode::kHash);
  // count(*) and sum(b_v) collected once each (deduplicated structurally).
  EXPECT_EQ(plan.agg_exprs.size(), 2u);
  EXPECT_EQ(plan.group_exprs.size(), 1u);
  ASSERT_NE(plan.having, nullptr);
  EXPECT_EQ(plan.order_keys.size(), 1u);
}

TEST_F(MyOptTest, MySqlIndexGatedOrFactoring) {
  // The common equality b_id = s_id leads the big_pk index, so stock
  // MySQL's limited OR refactoring applies and produces hash keys.
  auto stmt = Prep(
      "SELECT 1 FROM big, small WHERE (b_id = s_id AND b_v > 10) OR "
      "(b_id = s_id AND s_name = 'n5')");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  ASSERT_TRUE((*stmt).block->where != nullptr);
  std::vector<const Expr*> conjs;
  SplitConjuncts(stmt->block->where.get(), &conjs);
  EXPECT_GE(conjs.size(), 2u);  // factored: eq AND (residual OR residual)
}

TEST_F(MyOptTest, SortElidedWhenIndexProvidesOrder) {
  auto stmt = Prep("SELECT b_id FROM big WHERE b_id < 100 ORDER BY b_id");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  ASSERT_EQ((*skel)->root->access, AccessMethod::kIndexRange);
  auto q = RefinePlan(std::move(*stmt), **skel, catalog_);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE((*q)->root->order_satisfied);
  // Rows still come back ordered (the index range scan provides it).
  auto rows = ExecuteQuery(q->get(), storage_);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 100u);
  for (size_t i = 1; i < rows->size(); ++i) {
    EXPECT_LE((*rows)[i - 1][0].AsInt(), (*rows)[i][0].AsInt());
  }
}

TEST_F(MyOptTest, SortKeptForDescOrNonIndexOrder) {
  auto stmt = Prep("SELECT b_id FROM big WHERE b_id < 100 ORDER BY b_id "
                   "DESC");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  auto q = RefinePlan(std::move(*stmt), **skel, catalog_);
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE((*q)->root->order_satisfied);
  auto rows = ExecuteQuery(q->get(), storage_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][0].AsInt(), 99);
}

// ---------------------------------------------------------------------------
// The access-path rule: the optimizer costs only what refine can build
// ---------------------------------------------------------------------------

TEST_F(MyOptTest, CorrelatedEqualityPicksBoundLookup) {
  // The single-table correlated subquery of TPC-H Q17/Q20: b_fk = s_id is a
  // lookup keyed by the outer row, never a range (its bound is no constant).
  auto stmt = Prep(
      "SELECT s_id FROM small WHERE s_id * 100 < "
      "(SELECT SUM(b_v) FROM big WHERE b_fk = s_id)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok()) << skel.status().ToString();
  ASSERT_EQ((*skel)->subqueries.size(), 1u);
  const SkeletonNode& inner = *(*skel)->subqueries.begin()->second->root;
  EXPECT_EQ(inner.access, AccessMethod::kIndexLookup);
  EXPECT_EQ(inner.index_id, 1);  // big_fk
  auto q = RefinePlan(std::move(*stmt), **skel, catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->access_downgrades, 0);
  ASSERT_EQ((*q)->subplans.size(), 1u);
  const PhysOp& leaf = *(*q)->subplans[0]->plan->join_root;
  ASSERT_EQ(leaf.kind, PhysOp::Kind::kIndexLookup);
  ASSERT_EQ(leaf.lookup_keys.size(), 1u);
  EXPECT_EQ(leaf.lookup_keys[0]->ToString(), "s_id");
  EXPECT_TRUE(leaf.filters.empty());
}

TEST_F(MyOptTest, ConstEqualityRefinesToPointRange) {
  auto stmt = Prep("SELECT b_v FROM big WHERE b_id = 42");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  EXPECT_EQ((*skel)->root->access, AccessMethod::kIndexRange);
  auto q = RefinePlan(std::move(*stmt), **skel, catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->access_downgrades, 0);
  const PhysOp& leaf = *(*q)->root->join_root;
  ASSERT_EQ(leaf.kind, PhysOp::Kind::kIndexRange);
  ASSERT_NE(leaf.range_lo, nullptr);
  EXPECT_EQ(leaf.range_lo, leaf.range_hi);
  EXPECT_TRUE(leaf.lo_inclusive);
  EXPECT_TRUE(leaf.hi_inclusive);
  EXPECT_TRUE(leaf.filters.empty());
  auto rows = ExecuteQuery(q->get(), storage_);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_DOUBLE_EQ((*rows)[0][0].AsDouble(), 10.5);
}

TEST_F(MyOptTest, SameTableComparisonIsNeverARange) {
  // b_id <= b_fk has no constant bound: refine could only scan, so the
  // optimizer must not cost it as an index range.
  auto stmt = Prep("SELECT COUNT(*) FROM big WHERE b_id <= b_fk");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  EXPECT_EQ((*skel)->root->access, AccessMethod::kTableScan);
  auto q = RefinePlan(std::move(*stmt), **skel, catalog_);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->access_downgrades, 0);
  auto rows = ExecuteQuery(q->get(), storage_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][0].AsInt(), 50);  // b_id <= b_id % 50 for 0..49
}

TEST_F(MyOptTest, HashJoinKeepsKeysOverConstantKeyedLookup) {
  // TPC-DS Q88's shape: a hash join whose right leaf is a lookup with a
  // constant key. Staging the join equality onto that leaf would strip the
  // hash keys and re-run the lookup once per probe row.
  auto stmt = Prep(
      "SELECT COUNT(*) FROM big b1, big b2 WHERE b1.b_v = b2.b_v AND "
      "b2.b_fk = 7");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  SkeletonNode* root = (*skel)->root.get();
  ASSERT_TRUE(root->is_join);
  ASSERT_EQ(root->method, JoinMethod::kHash);
  if (root->right->leaf->alias != "b2") std::swap(root->left, root->right);
  root->right->access = AccessMethod::kIndexLookup;
  root->right->index_id = 1;  // big_fk, keyed by the constant 7
  auto q = RefinePlan(std::move(*stmt), **skel, catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const PhysOp& join = *(*q)->root->join_root;
  ASSERT_EQ(join.kind, PhysOp::Kind::kHashJoin);
  EXPECT_EQ(join.hash_keys.size(), 1u);
  ASSERT_EQ(join.right->kind, PhysOp::Kind::kIndexLookup);
  ASSERT_EQ(join.right->lookup_keys.size(), 1u);
  EXPECT_EQ(join.right->lookup_keys[0]->ToString(), "7");
  auto rows = ExecuteQuery(q->get(), storage_);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][0].AsInt(), 100);
}

}  // namespace
}  // namespace taurus
