#ifndef TAURUS_MYOPT_ACCESS_PATH_H_
#define TAURUS_MYOPT_ACCESS_PATH_H_

#include <vector>

#include "myopt/cardinality.h"
#include "myopt/cost_params.h"
#include "myopt/skeleton.h"
#include "parser/ast.h"

namespace taurus {

/// The one access-path rule (DESIGN.md section 4, invariant 6): how an
/// index on a base-table leaf can serve one conjunct. Both optimizers cost
/// only what this allows, and plan refinement binds exactly what it
/// describes, so an index access an optimizer chose is never quietly
/// rebuilt as a scan.
///
/// - A range needs constant bounds: `col <op> const` (either operand
///   order), `col BETWEEN c1 AND c2`, and `col = const` as the one-point
///   range lo == hi, both inclusive.
/// - `col = expr` is a lookup key when `expr` reads only bound leaves:
///   leaves whose row is fixed when this leaf opens (outer query blocks,
///   the outer side of an index nested-loop join), never the leaf itself.
///   `col = const` also yields its constant as a key.
struct IndexableConjunct {
  int column_idx = -1;  ///< leaf column served; -1 when no index can help
  const Expr* lo = nullptr;  ///< constant range bounds; null = open side
  const Expr* hi = nullptr;
  bool lo_inclusive = true;
  bool hi_inclusive = true;
  const Expr* key = nullptr;  ///< equality key

  bool is_range() const { return lo != nullptr || hi != nullptr; }
  /// An equality on a non-constant bound key ("ref" access proper).
  bool is_lookup() const { return key != nullptr && !is_range(); }
};

/// Classifies conjunct `c` for `leaf`. `bound[r]` says whether leaf r's
/// row is fixed when `leaf` opens.
IndexableConjunct ClassifyConjunct(const Expr& c, const TableRef& leaf,
                                   const std::vector<bool>& bound);

/// The refs bound while a leaf of `block` is read on its own: everything
/// except the block's own leaves.
std::vector<bool> OuterRefs(const QueryBlock& block, int num_refs);

struct LeafAccess {
  AccessMethod method = AccessMethod::kTableScan;
  int index_id = -1;
  double cost = 0.0;
};

/// Cheapest standalone access to `leaf` (`base_rows` before predicates)
/// under its local conjuncts: a table scan, an index range over constant
/// bounds, or a lookup keyed by outer-block values. `outer` comes from
/// OuterRefs.
LeafAccess ChooseLeafAccess(const TableRef& leaf,
                            const std::vector<Expr*>& local_conds,
                            const std::vector<bool>& outer, double base_rows,
                            const StatsProvider& stats,
                            const CostParams& params);

/// Cheapest join-time lookup into `leaf`: an index whose first key column
/// an equality in `conds` binds to `bound` leaves. index_id -1 when none;
/// `cost` is the per-probe cost.
LeafAccess ChooseJoinLookup(const TableRef& leaf,
                            const std::vector<const Expr*>& conds,
                            const std::vector<bool>& bound, double base_rows,
                            const StatsProvider& stats,
                            const CostParams& params);

}  // namespace taurus

#endif  // TAURUS_MYOPT_ACCESS_PATH_H_
