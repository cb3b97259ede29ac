#include "orca/optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/fault_injector.h"
#include "myopt/access_path.h"
#include "parser/ast_util.h"

namespace taurus {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Collects base/derived leaves under a logical subtree.
void CollectGetLeaves(const OrcaLogicalOp* op, std::vector<TableRef*>* out) {
  if (op->kind == OrcaLogicalOp::Kind::kGet) {
    out->push_back(op->leaf);
    return;
  }
  for (const auto& c : op->children) CollectGetLeaves(c.get(), out);
}

struct PoolConjunct {
  Expr* expr = nullptr;
  uint64_t units = 0;
  bool equality = false;  ///< col = col over two leaves (hash-joinable)
};

/// One reorderable element of the flattened join tree.
struct Unit {
  OrcaLogicalOp* op = nullptr;   ///< Get, or subtree root for composites
  TableRef* leaf = nullptr;      ///< set for simple (Get) units
  std::vector<int> refs;         ///< ref_ids of every Get leaf it covers
  std::vector<Expr*> local_conds;
  JoinType join_type = JoinType::kInner;
  uint64_t dependency = 0;
  std::vector<Expr*> join_conds;
  /// The join_conds that reach beyond this unit: what it contributes to
  /// the crossing conjuncts when joined, dependent, as the whole right side.
  std::vector<PoolConjunct> cross_on;

  double rows = 1.0;             ///< after local conjuncts
  double base_rows = 1.0;        ///< before local conjuncts
  double access_cost = 0.0;      ///< best standalone access cost
  /// Where `rows` came from (harvested actual when feedback overrode it).
  CardSource card_source = CardSource::kHistogram;
  OrcaPhysicalOp::Kind access = OrcaPhysicalOp::Kind::kTableScan;
  int access_index = -1;
  std::unique_ptr<OrcaPhysicalOp> composite_plan;  ///< for composite units
};

/// The memo record of one unit subset: its cardinality estimate, and once
/// the search explores the subset as a memo group, its best physical
/// alternative. Estimating a subset's rows does not make it a group.
struct GroupState {
  int id = -1;  ///< memo group id; -1 while the record only holds rows
  double rows = -1.0;  ///< estimated output rows; -1 until estimated
  CardSource source = CardSource::kHistogram;  ///< where `rows` came from
  double cost = kInf;
  bool done = false;
  bool is_leaf = false;
  int leaf_unit = -1;
  // Join spec.
  uint64_t left = 0;
  uint64_t right = 0;
  OrcaPhysicalOp::Kind impl = OrcaPhysicalOp::Kind::kHashJoin;
  JoinType join_type = JoinType::kInner;
  int inner_index = -1;  ///< index for index-NLJ lookups on the right leaf
  /// Total lookup work charged for the inner side of an index NLJ (what the
  /// extracted IndexLookup node reports as its cumulative cost — the unit's
  /// standalone access cost is not on the join's cost scale).
  double inner_lookup_cost = 0.0;
};

/// Dynamic programming over unit subsets of one block (DESIGN.md section
/// 16). The masks the enumerators test are computed once per search, and
/// each visited subset has one memo record; speed work here must keep the
/// search space, enumeration order and tie-breaking unchanged.
class JoinSearch {
 public:
  JoinSearch(const OrcaConfig& config, StatsProvider* stats, int num_refs,
             int64_t* partitions, int* groups,
             ResourceGovernor* governor = nullptr,
             const FeedbackSnapshot* feedback = nullptr,
             int64_t* actual_overrides = nullptr,
             int64_t* sketch_overrides = nullptr)
      : config_(config),
        stats_(stats),
        num_refs_(num_refs),
        partitions_(partitions),
        groups_(groups),
        governor_(governor),
        feedback_(feedback),
        actual_overrides_(actual_overrides),
        sketch_overrides_(sketch_overrides) {}

  Status Flatten(OrcaLogicalOp* root);
  Result<std::unique_ptr<OrcaPhysicalOp>> Run();

 private:
  /// What CrossConds(a, b) would list, summarized without building it.
  enum class Crossing { kNone, kOther, kEquality };

  Status FlattenInto(OrcaLogicalOp* op, uint64_t* added,
                     std::vector<Expr*> pending_conds);
  Status AddUnit(OrcaLogicalOp* op, JoinType type, uint64_t dependency,
                 std::vector<Expr*> join_conds,
                 std::vector<Expr*> local_conds, uint64_t* added);
  Status SetupUnit(Unit* unit);
  /// Precomputes the masks the enumerators test: dependent_, each pool
  /// conjunct's equality flag and each dependent unit's cross_on.
  void PrepareMasks();

  uint64_t UnitMask(const Expr& e) const;
  /// True when every dependent unit in `set` has its dependency in `set`.
  bool Resolved(uint64_t set) const;
  bool Admissible(uint64_t set) const {
    return std::popcount(set) == 1 || Resolved(set);
  }
  /// Calls `visit` on each conjunct joining `a` to `b`, in pool order,
  /// then on the ON conjuncts of `b` when it is a single dependent unit;
  /// stops early when `visit` returns false.
  template <typename F>
  void ForEachCross(uint64_t a, uint64_t b, F visit) const;
  /// Appends the conjuncts ForEachCross(a, b) visits to `out`.
  template <typename Vec>
  void CrossConds(uint64_t a, uint64_t b, Vec* out) const {
    ForEachCross(a, b, [out](const PoolConjunct& c) {
      out->push_back(c.expr);
      return true;
    });
  }
  Crossing Cross(uint64_t a, uint64_t b) const;
  double CrossSelectivity(const std::vector<Expr*>& conds) const;
  double Rows(uint64_t set);
  void EstimateRows(uint64_t set, GroupState* record);
  /// Canonical feedback key for a unit subset: the sorted ref_ids of every
  /// leaf it covers (composite units contribute all their Get leaves).
  std::string SetKey(uint64_t set) const;
  /// Fast-AGMS join-size estimate for a two-leaf inner-join set, or -1
  /// when the set has no single-column equi-join with sketches on both
  /// sides (DESIGN.md section 11).
  double SketchJoinRows(uint64_t set) const;
  GroupState& GroupOf(uint64_t set);
  /// Explores `set` as a memo group (once); `group`, when non-null,
  /// receives its record.
  Status OptimizeSet(uint64_t set, GroupState** group = nullptr);
  /// Costs joining `a` to `b` into `g`, the record of a | b (or a greedy
  /// trial) with its rows already estimated.
  Status TryPartition(uint64_t a, uint64_t b, GroupState* g,
                      bool allow_cross);
  Status GreedyPlan(uint64_t set);
  std::unique_ptr<OrcaPhysicalOp> Extract(uint64_t set);
  std::unique_ptr<OrcaPhysicalOp> BuildLeafPlan(int unit_idx,
                                                bool as_lookup,
                                                int lookup_index);

  const OrcaConfig& config_;
  StatsProvider* stats_;
  int num_refs_;
  int64_t* partitions_;
  int* groups_;
  ResourceGovernor* governor_;
  const FeedbackSnapshot* feedback_;
  int64_t* actual_overrides_;
  int64_t* sketch_overrides_;

  std::vector<Unit> units_;
  std::vector<PoolConjunct> pool_;
  std::unordered_map<int, int> unit_of_ref_;
  /// Refs outside the block (bound whenever one of its leaves opens).
  std::vector<bool> outer_;
  /// Units whose join type is not inner.
  uint64_t dependent_ = 0;
  /// One record per visited unit subset; node-based, so a reference to a
  /// record stays valid while the search adds more.
  std::unordered_map<uint64_t, GroupState> memo_;
  int64_t budget_ = 0;
  bool budget_exhausted_ = false;
  /// Scratch for the index-NLJ candidate: its conjuncts, and the bound refs
  /// (outer_ plus the left side's refs, reset to outer_ after each use).
  std::vector<const Expr*> lookup_conds_;
  std::vector<bool> bound_;
};

Status JoinSearch::AddUnit(OrcaLogicalOp* op, JoinType type,
                           uint64_t dependency,
                           std::vector<Expr*> join_conds,
                           std::vector<Expr*> local_conds, uint64_t* added) {
  if (units_.size() >= 64) {
    return Status::NotSupported("more than 64 join units in one block");
  }
  int idx = static_cast<int>(units_.size());
  Unit u;
  u.op = op;
  if (op->kind == OrcaLogicalOp::Kind::kGet) u.leaf = op->leaf;
  u.join_type = type;
  u.dependency = dependency;
  u.join_conds = std::move(join_conds);
  u.local_conds = std::move(local_conds);
  std::vector<TableRef*> leaves;
  CollectGetLeaves(op, &leaves);
  for (TableRef* leaf : leaves) {
    unit_of_ref_[leaf->ref_id] = idx;
    u.refs.push_back(leaf->ref_id);
  }
  units_.push_back(std::move(u));
  *added |= 1ULL << idx;
  return Status::OK();
}

Status JoinSearch::FlattenInto(OrcaLogicalOp* op, uint64_t* added,
                               std::vector<Expr*> pending_conds) {
  switch (op->kind) {
    case OrcaLogicalOp::Kind::kGet:
      return AddUnit(op, JoinType::kInner, 0, {}, std::move(pending_conds),
                     added);
    case OrcaLogicalOp::Kind::kSelect: {
      // Selection directly over a Get: local conjuncts. Over anything
      // else: hand the conjuncts to the pool via pending for the child.
      std::vector<Expr*> conds = pending_conds;
      conds.insert(conds.end(), op->conds.begin(), op->conds.end());
      OrcaLogicalOp* child = op->children[0].get();
      if (child->kind == OrcaLogicalOp::Kind::kGet) {
        return AddUnit(child, JoinType::kInner, 0, {}, std::move(conds),
                       added);
      }
      TAURUS_RETURN_IF_ERROR(FlattenInto(child, added, {}));
      for (Expr* c : conds) pool_.push_back(PoolConjunct{c, 0});
      return Status::OK();
    }
    case OrcaLogicalOp::Kind::kJoin: {
      if (op->join_type == JoinType::kInner ||
          op->join_type == JoinType::kCross) {
        TAURUS_RETURN_IF_ERROR(FlattenInto(op->children[0].get(), added, {}));
        TAURUS_RETURN_IF_ERROR(FlattenInto(op->children[1].get(), added, {}));
        for (Expr* c : op->conds) pool_.push_back(PoolConjunct{c, 0});
        for (Expr* c : pending_conds) pool_.push_back(PoolConjunct{c, 0});
        return Status::OK();
      }
      uint64_t left_mask = 0;
      TAURUS_RETURN_IF_ERROR(
          FlattenInto(op->children[0].get(), &left_mask, {}));
      *added |= left_mask;
      OrcaLogicalOp* right = op->children[1].get();
      std::vector<Expr*> local;
      if (right->kind == OrcaLogicalOp::Kind::kSelect &&
          right->children[0]->kind == OrcaLogicalOp::Kind::kGet) {
        local = right->conds;
        right = right->children[0].get();
      }
      TAURUS_RETURN_IF_ERROR(AddUnit(right, op->join_type, left_mask,
                                     op->conds, std::move(local), added));
      for (Expr* c : pending_conds) pool_.push_back(PoolConjunct{c, 0});
      return Status::OK();
    }
  }
  return Status::Internal("unreachable logical kind");
}

uint64_t JoinSearch::UnitMask(const Expr& e) const {
  std::vector<bool> refs(static_cast<size_t>(num_refs_), false);
  CollectReferencedRefs(e, &refs);
  uint64_t mask = 0;
  for (int r = 0; r < num_refs_; ++r) {
    if (!refs[static_cast<size_t>(r)]) continue;
    auto it = unit_of_ref_.find(r);
    if (it != unit_of_ref_.end()) mask |= 1ULL << it->second;
  }
  return mask;
}

Status JoinSearch::SetupUnit(Unit* unit) {
  if (unit->op->kind == OrcaLogicalOp::Kind::kGet) {
    unit->base_rows = stats_->LeafBaseRows(*unit->leaf);
    double sel = 1.0;
    for (const Expr* c : unit->local_conds) {
      sel *= stats_->ConjunctSelectivity(*c);
    }
    unit->rows = std::max(unit->base_rows * std::clamp(sel, 0.0, 1.0), 1.0);
    // Harvested actual for this (filtered) leaf overrides the histogram
    // estimate — the strongest source in the feedback precedence order.
    if (feedback_ != nullptr) {
      auto fb = feedback_->node_actuals.find(RefSetKey({unit->leaf->ref_id}));
      if (fb != feedback_->node_actuals.end()) {
        unit->rows = std::max(fb->second, 1.0);
        unit->card_source = CardSource::kActual;
        if (actual_overrides_ != nullptr) ++*actual_overrides_;
      }
    }
    // Access choice: the cheapest of scan, constant-bound range and
    // correlated lookup that refine can build (cost-based, unlike stock
    // MySQL's heuristics).
    LeafAccess access =
        ChooseLeafAccess(*unit->leaf, unit->local_conds, outer_,
                         unit->base_rows, *stats_, config_.cost);
    unit->access_cost = access.cost;
    unit->access_index = access.index_id;
    unit->access = access.method == AccessMethod::kIndexRange
                       ? OrcaPhysicalOp::Kind::kIndexRangeScan
                   : access.method == AccessMethod::kIndexLookup
                       ? OrcaPhysicalOp::Kind::kIndexLookup
                       : OrcaPhysicalOp::Kind::kTableScan;
    return Status::OK();
  }
  // Composite unit: optimize its subtree recursively with a fresh search,
  // folding in join-cond pieces that reference only this unit.
  JoinSearch sub(config_, stats_, num_refs_, partitions_, groups_, governor_,
                 feedback_, actual_overrides_, sketch_overrides_);
  sub.outer_ = outer_;
  TAURUS_RETURN_IF_ERROR(sub.Flatten(unit->op));
  // Restrict join_conds to subtree-only pieces and push them in.
  for (Expr* jc : unit->join_conds) {
    bool subtree_only = true;
    std::vector<bool> refs(static_cast<size_t>(num_refs_), false);
    CollectReferencedRefs(*jc, &refs);
    for (int r = 0; r < num_refs_; ++r) {
      if (!refs[static_cast<size_t>(r)]) continue;
      bool inside = std::find(unit->refs.begin(), unit->refs.end(), r) !=
                    unit->refs.end();
      // Outer-block refs (not any unit) are fine; refs to sibling units
      // of the parent search are not.
      if (!inside && unit_of_ref_.count(r) != 0) subtree_only = false;
    }
    if (subtree_only) sub.pool_.push_back(PoolConjunct{jc, 0});
  }
  for (PoolConjunct& c : sub.pool_) c.units = sub.UnitMask(*c.expr);
  // Fold freshly-added single-unit conjuncts into unit-local conditions.
  {
    std::vector<PoolConjunct> keep;
    for (PoolConjunct& c : sub.pool_) {
      if (c.units != 0 && std::popcount(c.units) == 1) {
        int uidx = std::countr_zero(c.units);
        Unit& su = sub.units_[static_cast<size_t>(uidx)];
        bool already = false;
        for (const Expr* lc : su.local_conds) {
          if (lc == c.expr) already = true;
        }
        if (!already) su.local_conds.push_back(c.expr);
      } else {
        keep.push_back(c);
      }
    }
    sub.pool_ = std::move(keep);
  }
  TAURUS_ASSIGN_OR_RETURN(unit->composite_plan, sub.Run());
  unit->rows = std::max(unit->composite_plan->rows, 1.0);
  unit->base_rows = unit->rows;
  unit->access_cost = unit->composite_plan->cost;
  unit->card_source = unit->composite_plan->card_source;
  return Status::OK();
}

Status JoinSearch::Flatten(OrcaLogicalOp* root) {
  if (outer_.empty()) {
    // The top-level search covers the whole block: every leaf under the
    // root is block-own, everything else is an outer reference.
    outer_.assign(static_cast<size_t>(num_refs_), true);
    std::vector<TableRef*> leaves;
    CollectGetLeaves(root, &leaves);
    for (const TableRef* leaf : leaves) {
      outer_[static_cast<size_t>(leaf->ref_id)] = false;
    }
  }
  uint64_t added = 0;
  TAURUS_RETURN_IF_ERROR(FlattenInto(root, &added, {}));
  for (PoolConjunct& c : pool_) c.units = UnitMask(*c.expr);
  // Single-unit pool conjuncts fold into that unit's local conditions.
  std::vector<PoolConjunct> keep;
  for (PoolConjunct& c : pool_) {
    if (c.units != 0 && std::popcount(c.units) == 1) {
      int u = std::countr_zero(c.units);
      units_[static_cast<size_t>(u)].local_conds.push_back(c.expr);
    } else {
      keep.push_back(c);
    }
  }
  pool_ = std::move(keep);
  return Status::OK();
}

void JoinSearch::PrepareMasks() {
  for (PoolConjunct& c : pool_) {
    c.equality = StatsProvider::IsColumnEquality(*c.expr);
  }
  for (size_t u = 0; u < units_.size(); ++u) {
    Unit& unit = units_[u];
    if (unit.join_type == JoinType::kInner) continue;
    dependent_ |= 1ULL << u;
    for (Expr* jc : unit.join_conds) {
      uint64_t units = UnitMask(*jc);
      if (units == 1ULL << u) continue;  // folded into the unit
      unit.cross_on.push_back(
          PoolConjunct{jc, units, StatsProvider::IsColumnEquality(*jc)});
    }
  }
  bound_ = outer_;
}

bool JoinSearch::Resolved(uint64_t set) const {
  for (uint64_t d = set & dependent_; d != 0; d &= d - 1) {
    const Unit& u = units_[static_cast<size_t>(std::countr_zero(d))];
    if ((u.dependency & ~set) != 0) return false;
  }
  return true;
}

template <typename F>
void JoinSearch::ForEachCross(uint64_t a, uint64_t b, F visit) const {
  uint64_t both = a | b;
  for (const PoolConjunct& c : pool_) {
    if ((c.units & ~both) != 0) continue;
    if ((c.units & a) == 0 || (c.units & b) == 0) continue;
    if (!visit(c)) return;
  }
  // Dependent unit joined as the whole right side contributes its ON.
  if (std::popcount(b) == 1 && (b & dependent_) != 0) {
    const Unit& u = units_[static_cast<size_t>(std::countr_zero(b))];
    for (const PoolConjunct& c : u.cross_on) {
      if (!visit(c)) return;
    }
  }
}

JoinSearch::Crossing JoinSearch::Cross(uint64_t a, uint64_t b) const {
  Crossing out = Crossing::kNone;
  ForEachCross(a, b, [&out](const PoolConjunct& c) {
    out = c.equality ? Crossing::kEquality : Crossing::kOther;
    return !c.equality;  // an equality settles it
  });
  return out;
}

double JoinSearch::CrossSelectivity(const std::vector<Expr*>& conds) const {
  double sel = 1.0;
  for (const Expr* c : conds) {
    if (StatsProvider::IsColumnEquality(*c)) {
      sel *= stats_->EqJoinSelectivity(*c);
    } else {
      sel *= stats_->ConjunctSelectivity(*c);
    }
  }
  return std::clamp(sel, 0.0, 1.0);
}

std::string JoinSearch::SetKey(uint64_t set) const {
  std::vector<int> refs;
  for (uint64_t m = set; m != 0; m &= m - 1) {
    const Unit& u = units_[static_cast<size_t>(std::countr_zero(m))];
    refs.insert(refs.end(), u.refs.begin(), u.refs.end());
  }
  return RefSetKey(std::move(refs));
}

double JoinSearch::SketchJoinRows(uint64_t set) const {
  if (feedback_ == nullptr || feedback_->sketches.empty()) return -1.0;
  if (std::popcount(set) != 2) return -1.0;
  int ua = std::countr_zero(set);
  int ub = std::countr_zero(set & (set - 1));
  const Unit& a = units_[static_cast<size_t>(ua)];
  const Unit& b = units_[static_cast<size_t>(ub)];
  if (a.leaf == nullptr || b.leaf == nullptr) return -1.0;
  if (a.join_type != JoinType::kInner || b.join_type != JoinType::kInner) {
    return -1.0;
  }
  // The sketches describe single join-key columns, so the set must be
  // joined by exactly one single-column equality (other non-equality
  // conjuncts are applied by the caller as selectivities).
  const Expr* eq = nullptr;
  double other_sel = 1.0;
  for (const PoolConjunct& c : pool_) {
    if (c.units == 0 || (c.units & ~set) != 0) continue;
    if (std::popcount(c.units) < 2) continue;
    if (StatsProvider::IsColumnEquality(*c.expr)) {
      if (eq != nullptr) return -1.0;  // multi-column join key
      eq = c.expr;
    } else {
      other_sel *= stats_->ConjunctSelectivity(*c.expr);
    }
  }
  if (eq == nullptr) return -1.0;
  const Expr& l = *eq->children[0];
  const Expr& r = *eq->children[1];
  if (l.kind != Expr::Kind::kColumnRef || r.kind != Expr::Kind::kColumnRef) {
    return -1.0;
  }
  auto find_sketch = [&](const Expr& col) -> const AgmsSketch* {
    if (col.ref_id != a.leaf->ref_id && col.ref_id != b.leaf->ref_id) {
      return nullptr;
    }
    auto it = feedback_->sketches.find(
        SketchSet::StreamKey(col.ref_id, col.column_idx));
    return it != feedback_->sketches.end() ? it->second.get() : nullptr;
  };
  const AgmsSketch* sl = find_sketch(l);
  const AgmsSketch* sr = find_sketch(r);
  if (sl == nullptr || sr == nullptr || sl == sr) return -1.0;
  return std::max(sl->JoinSizeEstimate(*sr), 1.0) *
         std::clamp(other_sel, 0.0, 1.0);
}

double JoinSearch::Rows(uint64_t set) {
  GroupState& record = memo_[set];
  if (record.rows < 0.0) EstimateRows(set, &record);
  return record.rows;
}

void JoinSearch::EstimateRows(uint64_t set, GroupState* record) {
  double rows;
  CardSource source = CardSource::kHistogram;
  std::map<std::string, double>::const_iterator actual;
  if (std::popcount(set) == 1) {
    const Unit& u = units_[static_cast<size_t>(std::countr_zero(set))];
    rows = u.rows;
    source = u.card_source;
  } else if (feedback_ != nullptr &&
             (actual = feedback_->node_actuals.find(SetKey(set))) !=
                 feedback_->node_actuals.end()) {
    // A prior execution measured this exact sub-join: its actual output
    // cardinality beats any estimate.
    rows = std::max(actual->second, 1.0);
    source = CardSource::kActual;
    if (actual_overrides_ != nullptr) ++*actual_overrides_;
  } else {
    // Canonical decomposition: peel the highest dependent unit whose
    // dependency is satisfied; otherwise all-inner product formula.
    int dependent = -1;
    for (uint64_t d = set & dependent_; d != 0;) {
      int u = 63 - std::countl_zero(d);
      uint64_t bit = 1ULL << u;
      d &= ~bit;
      if ((units_[static_cast<size_t>(u)].dependency & ~(set & ~bit)) == 0) {
        dependent = u;
        break;
      }
    }
    if (dependent >= 0) {
      uint64_t bit = 1ULL << dependent;
      const Unit& u = units_[static_cast<size_t>(dependent)];
      double base = Rows(set & ~bit);
      std::vector<Expr*> conds;
      CrossConds(set & ~bit, bit, &conds);
      double inner_est = base * u.rows * CrossSelectivity(conds);
      switch (u.join_type) {
        case JoinType::kSemi:
          rows = std::min(base, std::max(inner_est, 1.0));
          break;
        case JoinType::kAntiSemi:
          rows = std::max(base - std::min(base, inner_est), 1.0);
          break;
        case JoinType::kLeft:
          rows = std::max(inner_est, base);
          break;
        default:
          rows = inner_est;
          break;
      }
    } else {
      // Second preference: a Fast-AGMS join-size estimate for a two-leaf
      // equi-join whose key streams were sketched during a prior
      // execution; histogram product formula otherwise.
      double sketch_rows = SketchJoinRows(set);
      if (sketch_rows >= 0.0) {
        rows = sketch_rows;
        source = CardSource::kSketch;
        if (sketch_overrides_ != nullptr) ++*sketch_overrides_;
      } else {
        rows = 1.0;
        for (uint64_t m = set; m != 0; m &= m - 1) {
          rows *= units_[static_cast<size_t>(std::countr_zero(m))].rows;
        }
        for (const PoolConjunct& c : pool_) {
          if (c.units == 0 || (c.units & ~set) != 0) continue;
          if (std::popcount(c.units) < 2) continue;
          if (c.equality) {
            rows *= stats_->EqJoinSelectivity(*c.expr);
          } else {
            rows *= stats_->ConjunctSelectivity(*c.expr);
          }
        }
      }
    }
  }
  record->rows = std::max(rows, 1.0);
  record->source = source;
}

GroupState& JoinSearch::GroupOf(uint64_t set) {
  GroupState& g = memo_[set];
  if (g.id < 0) g.id = (*groups_)++;
  return g;
}

Status JoinSearch::TryPartition(uint64_t a, uint64_t b, GroupState* g,
                                bool allow_cross) {
  // Dependent units in A must be resolved inside A, and so must those of a
  // composite right side; a single dependent right unit needs its
  // dependency in A.
  if (!Resolved(a)) return Status::OK();
  JoinType jt = JoinType::kInner;
  const Unit* right_unit = nullptr;
  if (std::popcount(b) == 1) {
    right_unit = &units_[static_cast<size_t>(std::countr_zero(b))];
    if ((b & dependent_) != 0) {
      if ((right_unit->dependency & ~a) != 0) return Status::OK();
      jt = right_unit->join_type;
    }
  } else if (!Resolved(b)) {
    return Status::OK();
  }

  ++(*partitions_);
  ++budget_;
  if (governor_ != nullptr) {
    TAURUS_RETURN_IF_ERROR(governor_->ChargePartitionPair());
  }

  GroupState* ga = nullptr;
  GroupState* gb = nullptr;
  TAURUS_RETURN_IF_ERROR(OptimizeSet(a, &ga));
  TAURUS_RETURN_IF_ERROR(OptimizeSet(b, &gb));
  if (ga->cost == kInf || gb->cost == kInf) return Status::OK();

  Crossing crossing = Cross(a, b);
  // Require connectivity for inner joins unless the caller has determined
  // that only cross products remain.
  if (!allow_cross && jt == JoinType::kInner && crossing == Crossing::kNone) {
    return Status::OK();
  }

  double out_rows = g->rows;
  double rows_a = ga->rows;
  double rows_b = gb->rows;
  const CostParams& cp = config_.cost;

  // Hash join: build on the right (Orca's convention).
  if (crossing == Crossing::kEquality) {
    double cost = ga->cost + gb->cost + rows_b * cp.hash_build +
                  rows_a * cp.hash_probe + out_rows * cp.row_out;
    if (cost < g->cost) {
      g->cost = cost;
      g->is_leaf = false;
      g->left = a;
      g->right = b;
      g->impl = OrcaPhysicalOp::Kind::kHashJoin;
      g->join_type = jt;
      g->inner_index = -1;
    }
  }

  // Index nested-loop join: right side is a single base leaf with an index
  // whose first key column an equality binds to the left side.
  if (config_.enable_index_nlj && right_unit != nullptr &&
      right_unit->leaf != nullptr) {
    lookup_conds_.clear();
    CrossConds(a, b, &lookup_conds_);
    for (uint64_t m = a; m != 0; m &= m - 1) {
      for (int r : units_[static_cast<size_t>(std::countr_zero(m))].refs) {
        bound_[static_cast<size_t>(r)] = true;
      }
    }
    LeafAccess lookup = ChooseJoinLookup(*right_unit->leaf, lookup_conds_,
                                         bound_, right_unit->base_rows,
                                         *stats_, cp);
    for (uint64_t m = a; m != 0; m &= m - 1) {
      for (int r : units_[static_cast<size_t>(std::countr_zero(m))].refs) {
        bound_[static_cast<size_t>(r)] = outer_[static_cast<size_t>(r)];
      }
    }
    double lookup_cost = rows_a * lookup.cost;
    double cost = ga->cost + lookup_cost + out_rows * cp.row_out;
    if (lookup.index_id >= 0 && cost < g->cost) {
      g->cost = cost;
      g->is_leaf = false;
      g->left = a;
      g->right = b;
      g->impl = OrcaPhysicalOp::Kind::kNLJoin;
      g->join_type = jt;
      g->inner_index = lookup.index_id;
      g->inner_lookup_cost = lookup_cost;
    }
  }

  // Plain nested-loop join (inner side re-executed per outer row).
  {
    double inner_cost = std::max(gb->cost, 1.0);
    double cost =
        ga->cost + rows_a * inner_cost + out_rows * cp.row_out;
    if (cost < g->cost) {
      g->cost = cost;
      g->is_leaf = false;
      g->left = a;
      g->right = b;
      g->impl = OrcaPhysicalOp::Kind::kNLJoin;
      g->join_type = jt;
      g->inner_index = -1;
    }
  }
  return Status::OK();
}

Status JoinSearch::OptimizeSet(uint64_t set, GroupState** group) {
  TAURUS_FAULT_POINT("orca.memo_explore");
  GroupState& g = GroupOf(set);
  if (group != nullptr) *group = &g;
  if (governor_ != nullptr) {
    TAURUS_RETURN_IF_ERROR(governor_->ChargeMemoGroups(*groups_));
  }
  if (g.done) return Status::OK();
  g.done = true;  // set first; recursion on subsets only (strictly smaller)
  if (g.rows < 0.0) EstimateRows(set, &g);

  if (std::popcount(set) == 1) {
    int u = std::countr_zero(set);
    g.is_leaf = true;
    g.leaf_unit = u;
    g.cost = units_[static_cast<size_t>(u)].access_cost;
    return Status::OK();
  }

  int64_t budget_cap =
      config_.strategy == JoinSearchStrategy::kExhaustive2
          ? config_.exhaustive2_pair_budget
          : config_.exhaustive_pair_budget;
  if (config_.strategy == JoinSearchStrategy::kGreedy ||
      budget_exhausted_ || budget_ > budget_cap) {
    budget_exhausted_ = budget_ > budget_cap || budget_exhausted_;
    return GreedyPlan(set);
  }

  bool bushy = config_.strategy == JoinSearchStrategy::kExhaustive2 &&
               config_.enable_bushy;

  for (int pass = 0; pass < 2 && g.cost == kInf; ++pass) {
    // pass 0: connected partitions only; pass 1: allow cross products.
    if (bushy) {
      // Enumerate proper subsets a of set that contain its lowest bit, in
      // decreasing order, and try both orientations.
      uint64_t low = set & (~set + 1);
      uint64_t rest = set & ~low;
      uint64_t sub = rest;
      do {
        sub = (sub - 1) & rest;
        uint64_t a = sub | low;
        uint64_t b = set & ~a;
        if (pass == 0 && Cross(a, b) == Crossing::kNone) continue;
        TAURUS_RETURN_IF_ERROR(TryPartition(a, b, &g, pass == 1));
        TAURUS_RETURN_IF_ERROR(TryPartition(b, a, &g, pass == 1));
        if (budget_ > budget_cap) break;
      } while (sub != 0);
    } else {
      // Linear: the right side is always a single unit.
      for (uint64_t m = set; m != 0; m &= m - 1) {
        uint64_t bit = m & (~m + 1);
        uint64_t rest = set & ~bit;
        if (pass == 0 && Cross(rest, bit) == Crossing::kNone) continue;
        TAURUS_RETURN_IF_ERROR(TryPartition(rest, bit, &g, pass == 1));
        // Commuted orientation for inner units (hash-join side choice).
        if ((bit & dependent_) == 0) {
          TAURUS_RETURN_IF_ERROR(TryPartition(bit, rest, &g, pass == 1));
        }
        if (budget_ > budget_cap) break;
      }
    }
  }
  if (g.cost == kInf) {
    // Dependency structure defeated the enumerator; fall back to greedy.
    g.done = false;
    return GreedyPlan(set);
  }
  return Status::OK();
}

Status JoinSearch::GreedyPlan(uint64_t set) {
  GroupState& g = GroupOf(set);
  if (governor_ != nullptr) {
    TAURUS_RETURN_IF_ERROR(governor_->ChargeMemoGroups(*groups_));
  }
  if (g.done && g.cost < kInf) return Status::OK();
  g.done = true;
  if (g.rows < 0.0) EstimateRows(set, &g);
  if (std::popcount(set) == 1) {
    int u = std::countr_zero(set);
    g.is_leaf = true;
    g.leaf_unit = u;
    g.cost = units_[static_cast<size_t>(u)].access_cost;
    return Status::OK();
  }
  // Greedy left-deep: repeatedly find the cheapest last join (b singleton)
  // by recursing greedily on set \ b. Pass 0 avoids cross products; pass 1
  // allows them when no other extension was found.
  GroupState best;
  for (int pass = 0; pass < 2 && best.cost == kInf; ++pass) {
    for (uint64_t m = set; m != 0; m &= m - 1) {
      uint64_t bit = m & (~m + 1);
      uint64_t rest = set & ~bit;
      const Unit& u = units_[static_cast<size_t>(std::countr_zero(bit))];
      if ((bit & dependent_) != 0 && (u.dependency & ~rest) != 0) continue;
      if (pass == 0) {
        // Dependents inside rest must stay resolvable.
        if (!Resolved(rest)) continue;
        if ((bit & dependent_) == 0 && Cross(rest, bit) == Crossing::kNone) {
          continue;
        }
      } else if (!Admissible(rest)) {
        continue;
      }
      GroupState cand;
      cand.rows = g.rows;
      TAURUS_RETURN_IF_ERROR(GreedyPlan(rest));
      TAURUS_RETURN_IF_ERROR(OptimizeSet(bit));
      TAURUS_RETURN_IF_ERROR(TryPartition(rest, bit, &cand, pass == 1));
      if (cand.cost < best.cost) best = cand;
    }
  }
  if (best.cost == kInf) {
    return Status::Internal("greedy join ordering found no extension");
  }
  best.id = g.id;  // cand.rows already carried g.rows
  best.source = g.source;
  best.done = true;
  g = best;
  return Status::OK();
}

std::unique_ptr<OrcaPhysicalOp> JoinSearch::BuildLeafPlan(int unit_idx,
                                                          bool as_lookup,
                                                          int lookup_index) {
  Unit& u = units_[static_cast<size_t>(unit_idx)];
  if (u.composite_plan != nullptr) {
    return std::move(u.composite_plan);
  }
  auto op = std::make_unique<OrcaPhysicalOp>();
  op->leaf = u.leaf;
  op->filters = u.local_conds;
  op->rows = u.rows;
  op->cost = u.access_cost;
  op->card_source = u.card_source;
  if (as_lookup) {
    op->kind = OrcaPhysicalOp::Kind::kIndexLookup;
    op->index_id = lookup_index;
  } else {
    op->kind = u.access;
    op->index_id = u.access_index;
  }
  return op;
}

std::unique_ptr<OrcaPhysicalOp> JoinSearch::Extract(uint64_t set) {
  GroupState& g = GroupOf(set);
  if (g.is_leaf) {
    auto op = BuildLeafPlan(g.leaf_unit, false, -1);
    op->memo_group = g.id;
    return op;
  }
  auto op = std::make_unique<OrcaPhysicalOp>();
  op->kind = g.impl;
  op->join_type = g.join_type;
  op->rows = g.rows;
  op->cost = g.cost;
  op->card_source = g.source;
  op->memo_group = g.id;
  CrossConds(g.left, g.right, &op->conds);
  op->children.push_back(Extract(g.left));
  if (g.inner_index >= 0) {
    GroupState& gr = GroupOf(g.right);
    auto right = BuildLeafPlan(gr.leaf_unit, true, g.inner_index);
    right->memo_group = gr.id;
    right->cost = g.inner_lookup_cost;
    op->children.push_back(std::move(right));
  } else {
    op->children.push_back(Extract(g.right));
  }
  return op;
}

Result<std::unique_ptr<OrcaPhysicalOp>> JoinSearch::Run() {
  if (units_.empty()) {
    return Status::Internal("no units to optimize");
  }
  for (Unit& u : units_) {
    TAURUS_RETURN_IF_ERROR(SetupUnit(&u));
  }
  PrepareMasks();
  uint64_t full = units_.size() == 64
                      ? ~0ULL
                      : ((1ULL << units_.size()) - 1);
  TAURUS_RETURN_IF_ERROR(OptimizeSet(full));
  GroupState& g = GroupOf(full);
  if (g.cost == kInf) {
    return Status::Internal("optimizer produced no plan");
  }
  return Extract(full);
}

}  // namespace

Result<std::unique_ptr<OrcaPhysicalOp>> OrcaOptimizer::Optimize(
    OrcaLogicalOp* root) {
  JoinSearch search(config_, stats_, num_refs_, &partitions_evaluated_,
                    &num_groups_, governor_, feedback_, &actual_overrides_,
                    &sketch_overrides_);
  {
    ScopedSpan build_span(tracer_, "memo.build");
    TAURUS_RETURN_IF_ERROR(search.Flatten(root));
  }
  ScopedSpan search_span(tracer_, "memo.join_search");
  auto physical = search.Run();
  search_span.End();
  search_span.Attr("memo_groups", std::to_string(num_groups_));
  search_span.Attr("partitions", std::to_string(partitions_evaluated_));
  return physical;
}

}  // namespace taurus
