#include "parser/ast_util.h"

namespace taurus {

bool ExprEquals(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  if (a.children.size() != b.children.size()) return false;
  switch (a.kind) {
    case Expr::Kind::kLiteral:
      if (a.literal.is_null() != b.literal.is_null()) return false;
      if (Value::Compare(a.literal, b.literal) != 0) return false;
      break;
    case Expr::Kind::kColumnRef:
      if (a.ref_id != b.ref_id || a.column_idx != b.column_idx) return false;
      break;
    case Expr::Kind::kBinary:
      if (a.bop != b.bop) return false;
      break;
    case Expr::Kind::kUnary:
      if (a.uop != b.uop) return false;
      break;
    case Expr::Kind::kFuncCall:
      if (a.func_name != b.func_name) return false;
      break;
    case Expr::Kind::kAgg:
      if (a.agg_func != b.agg_func || a.agg_distinct != b.agg_distinct) {
        return false;
      }
      break;
    case Expr::Kind::kCast:
      if (a.cast_type != b.cast_type) return false;
      break;
    case Expr::Kind::kIntervalAdd:
      if (a.interval_unit != b.interval_unit ||
          a.interval_amount != b.interval_amount) {
        return false;
      }
      break;
    case Expr::Kind::kCase:
      if (a.case_has_else != b.case_has_else) return false;
      break;
    case Expr::Kind::kInList:
    case Expr::Kind::kBetween:
    case Expr::Kind::kLike:
      if (a.negated != b.negated) return false;
      break;
    case Expr::Kind::kExists:
    case Expr::Kind::kInSubquery:
    case Expr::Kind::kScalarSubquery:
      // Two textually identical subqueries bind to distinct leaves, so
      // structural equality would be misleading; compare by identity via
      // the compiled subplan id instead.
      return a.subplan_id >= 0 && a.subplan_id == b.subplan_id;
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!ExprEquals(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

namespace {

using RefVisitor = std::function<bool(int)>;

bool VisitBlockRefs(const QueryBlock& block, const RefVisitor& visit);

bool VisitTableRefRefs(const TableRef& ref, const RefVisitor& visit) {
  if (ref.kind == TableRef::Kind::kJoin) {
    return (!ref.on || VisitReferencedRefs(*ref.on, visit)) &&
           VisitTableRefRefs(*ref.left, visit) &&
           VisitTableRefRefs(*ref.right, visit);
  }
  return ref.kind != TableRef::Kind::kDerived ||
         VisitBlockRefs(*ref.derived, visit);
}

bool VisitBlockRefs(const QueryBlock& block, const RefVisitor& visit) {
  for (const auto& item : block.select_items) {
    if (!VisitReferencedRefs(*item.expr, visit)) return false;
  }
  if (block.where && !VisitReferencedRefs(*block.where, visit)) return false;
  if (block.having && !VisitReferencedRefs(*block.having, visit)) return false;
  for (const auto& g : block.group_by) {
    if (!VisitReferencedRefs(*g, visit)) return false;
  }
  for (const auto& o : block.order_by) {
    if (!VisitReferencedRefs(*o.expr, visit)) return false;
  }
  for (const auto& t : block.from) {
    if (!VisitTableRefRefs(*t, visit)) return false;
  }
  return !block.union_next || VisitBlockRefs(*block.union_next, visit);
}

}  // namespace

bool VisitReferencedRefs(const Expr& expr, const RefVisitor& visit) {
  if (expr.kind == Expr::Kind::kColumnRef && !visit(expr.ref_id)) return false;
  for (const auto& child : expr.children) {
    if (!VisitReferencedRefs(*child, visit)) return false;
  }
  return !expr.subquery || VisitBlockRefs(*expr.subquery, visit);
}

void CollectReferencedRefs(const Expr& expr, std::vector<bool>* refs) {
  VisitReferencedRefs(expr, [refs](int r) {
    if (r >= 0 && static_cast<size_t>(r) < refs->size()) {
      (*refs)[static_cast<size_t>(r)] = true;
    }
    return true;
  });
}

bool ContainsAggregate(const Expr& expr) {
  if (expr.kind == Expr::Kind::kAgg) return true;
  for (const auto& child : expr.children) {
    if (ContainsAggregate(*child)) return true;
  }
  return false;
}

bool ContainsSubquery(const Expr& expr) {
  if (expr.subquery) return true;
  for (const auto& child : expr.children) {
    if (ContainsSubquery(*child)) return true;
  }
  return false;
}

void SplitConjuncts(const Expr* pred, std::vector<const Expr*>* out) {
  if (pred == nullptr) return;
  if (pred->kind == Expr::Kind::kBinary && pred->bop == BinaryOp::kAnd) {
    SplitConjuncts(pred->children[0].get(), out);
    SplitConjuncts(pred->children[1].get(), out);
    return;
  }
  out->push_back(pred);
}

void SplitConjunctsMutable(Expr* pred, std::vector<Expr*>* out) {
  if (pred == nullptr) return;
  if (pred->kind == Expr::Kind::kBinary && pred->bop == BinaryOp::kAnd) {
    SplitConjunctsMutable(pred->children[0].get(), out);
    SplitConjunctsMutable(pred->children[1].get(), out);
    return;
  }
  out->push_back(pred);
}

}  // namespace taurus
