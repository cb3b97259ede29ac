#ifndef TAURUS_PARSER_AST_UTIL_H_
#define TAURUS_PARSER_AST_UTIL_H_

#include <functional>
#include <vector>

#include "parser/ast.h"

namespace taurus {

/// Structural equality of two (bound) expressions; used to match GROUP BY
/// expressions and aggregates in post-aggregation contexts, and for plan
/// invariants. Subquery expressions never compare equal.
bool ExprEquals(const Expr& a, const Expr& b);

/// Marks in `refs` (indexed by ref_id) every leaf referenced by `expr`,
/// including correlated references made from inside subqueries.
void CollectReferencedRefs(const Expr& expr, std::vector<bool>* refs);

/// Calls `visit` with the ref_id of every column reference in `expr`, in
/// the same walk as CollectReferencedRefs (subqueries included), until it
/// returns false. Returns false when the walk stopped early.
bool VisitReferencedRefs(const Expr& expr,
                         const std::function<bool(int)>& visit);

/// True if `expr` contains an aggregate function call outside of subqueries.
bool ContainsAggregate(const Expr& expr);

/// True if `expr` contains a subquery (EXISTS/IN/scalar) anywhere.
bool ContainsSubquery(const Expr& expr);

/// Splits a predicate into its top-level AND conjuncts (borrowed pointers).
void SplitConjuncts(const Expr* pred, std::vector<const Expr*>* out);
void SplitConjunctsMutable(Expr* pred, std::vector<Expr*>* out);

}  // namespace taurus

#endif  // TAURUS_PARSER_AST_UTIL_H_
