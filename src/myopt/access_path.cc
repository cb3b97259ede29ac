#include "myopt/access_path.h"

#include <algorithm>

#include "exec/expr_eval.h"
#include "parser/ast_util.h"

namespace taurus {

namespace {

bool IsColumnOf(const Expr& e, const TableRef& leaf) {
  return e.kind == Expr::Kind::kColumnRef && e.ref_id == leaf.ref_id;
}

/// True when `e` reads no leaf except bound ones, and not `leaf` itself.
bool ReadsOnlyBound(const Expr& e, const TableRef& leaf,
                    const std::vector<bool>& bound) {
  return VisitReferencedRefs(e, [&](int r) {
    return r < 0 || static_cast<size_t>(r) >= bound.size() ||
           (bound[static_cast<size_t>(r)] && r != leaf.ref_id);
  });
}

/// Cost of one index lookup on `leaf` keyed on its column `column_idx`:
/// a descent plus the expected matches (base rows / ndv).
double LookupProbeCost(const TableRef& leaf, int column_idx, double base_rows,
                       const StatsProvider& stats, const CostParams& params) {
  double ndv = stats.NdvOf(leaf.ref_id, column_idx, std::max(base_rows, 1.0));
  double match = std::max(base_rows / std::max(ndv, 1.0), 1.0);
  return params.index_descend + match * params.index_row;
}

/// The first index of `leaf` whose first key column is `column_idx`, or -1.
/// Indexes led by the same column cost the same, so the first one serves.
int IndexLedBy(const TableRef& leaf, int column_idx) {
  for (size_t i = 0; i < leaf.table->indexes.size(); ++i) {
    const std::vector<int>& cols = leaf.table->indexes[i].column_idx;
    if (!cols.empty() && cols[0] == column_idx) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

IndexableConjunct ClassifyConjunct(const Expr& c, const TableRef& leaf,
                                   const std::vector<bool>& bound) {
  IndexableConjunct out;
  if (leaf.kind != TableRef::Kind::kBase || leaf.table == nullptr) return out;
  if (c.kind == Expr::Kind::kBetween) {
    if (!c.negated && IsColumnOf(*c.children[0], leaf) &&
        IsConstExpr(*c.children[1]) && IsConstExpr(*c.children[2])) {
      out.column_idx = c.children[0]->column_idx;
      out.lo = c.children[1].get();
      out.hi = c.children[2].get();
    }
    return out;
  }
  if (c.kind != Expr::Kind::kBinary || !IsComparisonOp(c.bop) ||
      c.bop == BinaryOp::kNe) {
    return out;
  }
  for (size_t side = 0; side < 2; ++side) {
    const Expr& col = *c.children[side];
    const Expr* other = c.children[1 - side].get();
    if (!IsColumnOf(col, leaf)) continue;
    BinaryOp op = side == 0 ? c.bop : CommuteComparison(c.bop);
    if (IsConstExpr(*other)) {
      out.column_idx = col.column_idx;
      switch (op) {
        case BinaryOp::kEq:
          out.lo = out.hi = out.key = other;
          break;
        case BinaryOp::kLt:
        case BinaryOp::kLe:
          out.hi = other;
          out.hi_inclusive = op == BinaryOp::kLe;
          break;
        default:  // kGt, kGe
          out.lo = other;
          out.lo_inclusive = op == BinaryOp::kGe;
          break;
      }
      return out;
    }
    if (op == BinaryOp::kEq && ReadsOnlyBound(*other, leaf, bound)) {
      out.column_idx = col.column_idx;
      out.key = other;
      return out;
    }
  }
  return out;
}

std::vector<bool> OuterRefs(const QueryBlock& block, int num_refs) {
  std::vector<bool> outer(static_cast<size_t>(num_refs), true);
  for (const TableRef* leaf : block.Leaves()) {
    if (leaf->ref_id >= 0 && leaf->ref_id < num_refs) {
      outer[static_cast<size_t>(leaf->ref_id)] = false;
    }
  }
  return outer;
}

LeafAccess ChooseLeafAccess(const TableRef& leaf,
                            const std::vector<Expr*>& local_conds,
                            const std::vector<bool>& outer, double base_rows,
                            const StatsProvider& stats,
                            const CostParams& params) {
  LeafAccess best;
  best.cost = base_rows * params.seq_row;
  if (leaf.kind != TableRef::Kind::kBase || leaf.table == nullptr) {
    return best;
  }
  for (const Expr* c : local_conds) {
    IndexableConjunct use = ClassifyConjunct(*c, leaf, outer);
    if (!use.is_range() && !use.is_lookup()) continue;
    int index_id = IndexLedBy(leaf, use.column_idx);
    if (index_id < 0) continue;
    double cost =
        use.is_range()
            ? params.index_descend + stats.ConjunctSelectivity(*c) *
                                         base_rows * params.index_row
            : LookupProbeCost(leaf, use.column_idx, base_rows, stats, params);
    if (cost < best.cost) {
      best.method = use.is_range() ? AccessMethod::kIndexRange
                                   : AccessMethod::kIndexLookup;
      best.index_id = index_id;
      best.cost = cost;
    }
  }
  return best;
}

LeafAccess ChooseJoinLookup(const TableRef& leaf,
                            const std::vector<const Expr*>& conds,
                            const std::vector<bool>& bound, double base_rows,
                            const StatsProvider& stats,
                            const CostParams& params) {
  LeafAccess best;
  best.method = AccessMethod::kIndexLookup;
  if (leaf.kind != TableRef::Kind::kBase || leaf.table == nullptr) {
    return best;
  }
  for (const Expr* c : conds) {
    IndexableConjunct use = ClassifyConjunct(*c, leaf, bound);
    if (use.key == nullptr) continue;
    int index_id = IndexLedBy(leaf, use.column_idx);
    if (index_id < 0) continue;
    double cost =
        LookupProbeCost(leaf, use.column_idx, base_rows, stats, params);
    if (best.index_id < 0 || cost < best.cost) {
      best.index_id = index_id;
      best.cost = cost;
    }
  }
  return best;
}

}  // namespace taurus
