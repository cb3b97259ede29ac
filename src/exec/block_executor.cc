#include "exec/block_executor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <unordered_map>

#include "common/thread_pool.h"
#include "exec/batch_executor.h"
#include "exec/exec_internal.h"
#include "exec/expr_eval.h"
#include "exec/vector_ops.h"

namespace taurus {

std::vector<int> SubtreeRefs(const PhysOp& op) {
  std::vector<const PhysOp*> leaves;
  op.CollectLeaves(&leaves);
  std::vector<int> refs;
  refs.reserve(leaves.size());
  for (const PhysOp* leaf : leaves) refs.push_back(leaf->leaf->ref_id);
  return refs;
}

void ClearSlots(Frame* frame, const std::vector<int>& refs) {
  for (int r : refs) (*frame)[static_cast<size_t>(r)] = nullptr;
}

// ---------------------------------------------------------------------------
// Frame iterators
// ---------------------------------------------------------------------------

class TableScanIter : public FrameIter {
 public:
  explicit TableScanIter(const PhysOp* op) : op_(op) {}

  /// Restricts the scan to rows [begin, end): the morsel-driven executor
  /// drives one worker-private instance per chain, repositioning it with
  /// SetRange + Open for each morsel it claims.
  void SetRange(size_t begin, size_t end) {
    ranged_ = true;
    range_begin_ = begin;
    range_end_ = end;
  }

  const PhysOp* Op() const { return op_; }

  Status Open(Frame* frame, ExecContext* ctx) override {
    (void)frame;
    data_ = ctx->storage->Get(op_->leaf->table->id);
    if (data_ == nullptr) {
      return Status::Internal("no storage for table " + op_->leaf->table_name);
    }
    pos_ = ranged_ ? range_begin_ : 0;
    end_ = ranged_ ? std::min(range_end_, data_->NumRows()) : data_->NumRows();
    return Status::OK();
  }

  Result<bool> Next(Frame* frame, ExecContext* ctx) override {
    size_t slot = static_cast<size_t>(op_->leaf->ref_id);
    while (pos_ < end_) {
      (*frame)[slot] = &data_->row(pos_++);
      TAURUS_RETURN_IF_ERROR(ctx->ChargeScannedRow());
      TAURUS_ASSIGN_OR_RETURN(bool ok,
                              EvalConjuncts(op_->filters, *frame, nullptr, ctx));
      if (ok) return true;
    }
    (*frame)[slot] = nullptr;
    return false;
  }

 private:
  const PhysOp* op_;
  const TableData* data_ = nullptr;
  size_t pos_ = 0;
  size_t end_ = 0;
  bool ranged_ = false;
  size_t range_begin_ = 0, range_end_ = 0;
};

namespace {

class IndexRangeIter : public FrameIter {
 public:
  explicit IndexRangeIter(const PhysOp* op) : op_(op) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    data_ = ctx->storage->Get(op_->leaf->table->id);
    if (data_ == nullptr || op_->index_id < 0 ||
        op_->index_id >= data_->NumIndexes()) {
      return Status::Internal("bad index range target");
    }
    const OrderedIndex& index = data_->index(op_->index_id);
    Value lo, hi;
    const Value* lo_ptr = nullptr;
    const Value* hi_ptr = nullptr;
    if (op_->range_lo != nullptr) {
      TAURUS_ASSIGN_OR_RETURN(lo, EvalExpr(*op_->range_lo, *frame, nullptr, ctx));
      lo_ptr = &lo;
    }
    if (op_->range_hi != nullptr) {
      TAURUS_ASSIGN_OR_RETURN(hi, EvalExpr(*op_->range_hi, *frame, nullptr, ctx));
      hi_ptr = &hi;
    }
    auto [b, e] = index.Range(lo_ptr, op_->lo_inclusive, hi_ptr,
                              op_->hi_inclusive);
    begin_ = b;
    end_ = e;
    pos_ = b;
    return Status::OK();
  }

  Result<bool> Next(Frame* frame, ExecContext* ctx) override {
    size_t slot = static_cast<size_t>(op_->leaf->ref_id);
    const OrderedIndex& index = data_->index(op_->index_id);
    while (pos_ < end_) {
      (*frame)[slot] = &data_->row(index.entry(pos_++).row_id);
      TAURUS_RETURN_IF_ERROR(ctx->ChargeScannedRow());
      TAURUS_ASSIGN_OR_RETURN(bool ok,
                              EvalConjuncts(op_->filters, *frame, nullptr, ctx));
      if (ok) return true;
    }
    (*frame)[slot] = nullptr;
    return false;
  }

 private:
  const PhysOp* op_;
  const TableData* data_ = nullptr;
  size_t begin_ = 0, end_ = 0, pos_ = 0;
};

class IndexLookupIter : public FrameIter {
 public:
  explicit IndexLookupIter(const PhysOp* op) : op_(op) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    data_ = ctx->storage->Get(op_->leaf->table->id);
    if (data_ == nullptr || op_->index_id < 0 ||
        op_->index_id >= data_->NumIndexes()) {
      return Status::Internal("bad index lookup target");
    }
    Row key;
    key.reserve(op_->lookup_keys.size());
    bool has_null = false;
    for (const Expr* e : op_->lookup_keys) {
      TAURUS_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, *frame, nullptr, ctx));
      if (v.is_null()) has_null = true;
      key.push_back(std::move(v));
    }
    ++ctx->index_lookups;
    if (has_null) {  // equality with NULL never matches
      begin_ = end_ = pos_ = 0;
      empty_ = true;
      return Status::OK();
    }
    empty_ = false;
    auto [b, e] = data_->index(op_->index_id).EqualRange(key);
    begin_ = b;
    end_ = e;
    pos_ = b;
    return Status::OK();
  }

  Result<bool> Next(Frame* frame, ExecContext* ctx) override {
    size_t slot = static_cast<size_t>(op_->leaf->ref_id);
    if (!empty_) {
      const OrderedIndex& index = data_->index(op_->index_id);
      while (pos_ < end_) {
        (*frame)[slot] = &data_->row(index.entry(pos_++).row_id);
        TAURUS_RETURN_IF_ERROR(ctx->ChargeScannedRow());
        TAURUS_ASSIGN_OR_RETURN(
            bool ok, EvalConjuncts(op_->filters, *frame, nullptr, ctx));
        if (ok) return true;
      }
    }
    (*frame)[slot] = nullptr;
    return false;
  }

 private:
  const PhysOp* op_;
  const TableData* data_ = nullptr;
  size_t begin_ = 0, end_ = 0, pos_ = 0;
  bool empty_ = false;
};

class DerivedScanIter : public FrameIter {
 public:
  explicit DerivedScanIter(const PhysOp* op) : op_(op) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    if (op_->invalidate_on_rebind) {
      if (materialized_) ++ctx->rebinds;
      TAURUS_ASSIGN_OR_RETURN(rows_,
                              ExecuteBlock(*op_->derived_plan, *frame, ctx));
      materialized_ = true;
    } else if (!materialized_) {
      // Non-correlated derived tables (incl. CTE copies) materialize once
      // per query, shared across subplan re-executions.
      auto it = ctx->derived_cache.find(op_->derived_plan);
      if (it == ctx->derived_cache.end()) {
        TAURUS_ASSIGN_OR_RETURN(
            std::vector<Row> rows,
            ExecuteBlock(*op_->derived_plan, *frame, ctx));
        it = ctx->derived_cache.emplace(op_->derived_plan, std::move(rows))
                 .first;
      }
      cached_rows_ = &it->second;
      materialized_ = true;
    }
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Frame* frame, ExecContext* ctx) override {
    size_t slot = static_cast<size_t>(op_->leaf->ref_id);
    const std::vector<Row>& rows =
        cached_rows_ != nullptr ? *cached_rows_ : rows_;
    while (pos_ < rows.size()) {
      (*frame)[slot] = &rows[pos_++];
      TAURUS_ASSIGN_OR_RETURN(bool ok,
                              EvalConjuncts(op_->filters, *frame, nullptr, ctx));
      if (ok) return true;
    }
    (*frame)[slot] = nullptr;
    return false;
  }

 private:
  const PhysOp* op_;
  std::vector<Row> rows_;
  const std::vector<Row>* cached_rows_ = nullptr;
  size_t pos_ = 0;
  bool materialized_ = false;
};

class FilterIter : public FrameIter {
 public:
  FilterIter(const PhysOp* op, std::unique_ptr<FrameIter> child)
      : op_(op), child_(std::move(child)) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    return child_->Open(frame, ctx);
  }

  Result<bool> Next(Frame* frame, ExecContext* ctx) override {
    while (true) {
      TAURUS_ASSIGN_OR_RETURN(bool has, child_->Next(frame, ctx));
      if (!has) return false;
      TAURUS_ASSIGN_OR_RETURN(bool ok,
                              EvalConjuncts(op_->conds, *frame, nullptr, ctx));
      if (ok) return true;
    }
  }

 private:
  const PhysOp* op_;
  std::unique_ptr<FrameIter> child_;
};

class NLJoinIter : public FrameIter {
 public:
  NLJoinIter(const PhysOp* op, std::unique_ptr<FrameIter> left,
             std::unique_ptr<FrameIter> right)
      : op_(op),
        left_(std::move(left)),
        right_(std::move(right)),
        right_refs_(SubtreeRefs(*op->right)) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    TAURUS_RETURN_IF_ERROR(left_->Open(frame, ctx));
    have_left_ = false;
    return Status::OK();
  }

  Result<bool> Next(Frame* frame, ExecContext* ctx) override {
    const JoinType jt = op_->join_type;
    while (true) {
      if (!have_left_) {
        TAURUS_ASSIGN_OR_RETURN(bool has, left_->Next(frame, ctx));
        if (!has) return false;
        have_left_ = true;
        matched_ = false;
        TAURUS_RETURN_IF_ERROR(right_->Open(frame, ctx));  // rebind
      }
      while (true) {
        TAURUS_ASSIGN_OR_RETURN(bool has, right_->Next(frame, ctx));
        if (!has) break;
        TAURUS_ASSIGN_OR_RETURN(bool ok,
                                EvalConjuncts(op_->conds, *frame, nullptr, ctx));
        if (!ok) continue;
        matched_ = true;
        if (jt == JoinType::kSemi) {
          ClearSlots(frame, right_refs_);
          have_left_ = false;
          return true;
        }
        if (jt == JoinType::kAntiSemi) break;  // reject this left row
        return true;  // inner / cross / left
      }
      // Right side exhausted (or anti-semi matched).
      bool emit_unmatched =
          (jt == JoinType::kLeft || jt == JoinType::kAntiSemi) && !matched_;
      have_left_ = false;
      if (emit_unmatched) {
        ClearSlots(frame, right_refs_);  // NULL-extend / project left only
        return true;
      }
    }
  }

 private:
  const PhysOp* op_;
  std::unique_ptr<FrameIter> left_;
  std::unique_ptr<FrameIter> right_;
  std::vector<int> right_refs_;
  bool have_left_ = false;
  bool matched_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// Convention: the build side is the right child — except for INNER hash
/// joins, where (matching the MySQL quirk the paper reports in Section 7
/// item 2) the BUILD side is the LEFT child and the probe side the right.
/// The Orca plan converter flips Orca's children for inner hash joins so
/// that Orca's intended build side lands on the left.
HashJoinLayout MakeHashJoinLayout(const PhysOp& op) {
  HashJoinLayout layout;
  layout.build_is_left = (op.join_type == JoinType::kInner ||
                          op.join_type == JoinType::kCross);
  layout.build_refs =
      SubtreeRefs(layout.build_is_left ? *op.child : *op.right);
  for (const auto& [l, r] : op.hash_keys) {
    layout.build_keys.push_back(layout.build_is_left ? l : r);
    layout.probe_keys.push_back(layout.build_is_left ? r : l);
  }
  return layout;
}

/// The sketchable stream key of one hash-join side: the side must be a
/// single leaf (scan / index range / derived scan) joined on exactly one
/// plain column of that leaf, so the sketch describes "column C of the
/// filtered leaf R" — the granularity the optimizer's join-size estimator
/// looks up (DESIGN.md section 11). Returns "" when not sketchable.
std::string SketchStreamKey(const PhysOp& side,
                            const std::vector<const Expr*>& keys) {
  if (keys.size() != 1) return "";
  if (side.kind != PhysOp::Kind::kTableScan &&
      side.kind != PhysOp::Kind::kIndexRange &&
      side.kind != PhysOp::Kind::kDerivedScan) {
    return "";
  }
  if (side.leaf == nullptr) return "";
  const Expr* key = keys[0];
  if (key->kind != Expr::Kind::kColumnRef ||
      key->ref_id != side.leaf->ref_id) {
    return "";
  }
  return SketchSet::StreamKey(key->ref_id, key->column_idx);
}

/// Drains `build` into `out`. Buffers only the build subtree's frame slots
/// per row, and pre-sizes the table from the optimizer's cardinality
/// estimate to cut rehashing on large builds.
Status FillHashJoinState(const PhysOp& op, const HashJoinLayout& layout,
                         FrameIter* build, Frame* frame, ExecContext* ctx,
                         HashJoinShared* out) {
  out->table.clear();
  out->entries.clear();
  const PhysOp& build_child = layout.build_is_left ? *op.child : *op.right;
  if (build_child.est_rows > 1.0) {
    // Cap the reservation: estimates can be wildly high after bad stats.
    size_t cap = static_cast<size_t>(
        std::min(build_child.est_rows, 16.0 * 1024 * 1024));
    out->entries.reserve(cap);
    out->table.reserve(cap);
  }
  // Opportunistic Fast-AGMS stream over the build keys. The plan node is
  // the stream owner, so a rebuild (re-Open inside a nested loop, or a
  // parallel prebuild followed by a serial fallback) poisons the stream
  // instead of double-counting its rows.
  AgmsSketch* sketch = nullptr;
  if (ctx->sketches != nullptr) {
    std::string stream = SketchStreamKey(build_child, layout.build_keys);
    if (!stream.empty()) sketch = ctx->sketches->BeginStream(stream, &op);
  }
  TAURUS_RETURN_IF_ERROR(build->Open(frame, ctx));
  while (true) {
    TAURUS_ASSIGN_OR_RETURN(bool has, build->Next(frame, ctx));
    if (!has) break;
    Row key;
    key.reserve(layout.build_keys.size());
    bool has_null = false;
    for (const Expr* e : layout.build_keys) {
      TAURUS_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, *frame, nullptr, ctx));
      if (v.is_null()) has_null = true;
      key.push_back(std::move(v));
    }
    if (has_null) continue;  // NULL keys never join
    if (sketch != nullptr) sketch->Update(key[0].Hash());
    HashJoinShared::Entry entry;
    entry.key = std::move(key);
    entry.frame = OwnedFrame(*frame, layout.build_refs);
    uint64_t h = HashRow(entry.key);
    out->table.emplace(h, out->entries.size());
    out->entries.push_back(std::move(entry));
  }
  ClearSlots(frame, layout.build_refs);
  return Status::OK();
}

namespace {

class HashJoinIter : public FrameIter {
 public:
  /// Serial form: owns both children and (re)builds its own hash state on
  /// every Open (a re-Open with new outer bindings must rebuild).
  HashJoinIter(const PhysOp* op, std::unique_ptr<FrameIter> left,
               std::unique_ptr<FrameIter> right)
      : op_(op), layout_(MakeHashJoinLayout(*op)) {
    if (layout_.build_is_left) {
      build_iter_ = std::move(left);
      probe_iter_ = std::move(right);
    } else {
      build_iter_ = std::move(right);
      probe_iter_ = std::move(left);
    }
  }

  /// Parallel worker-clone form: probes a pre-built shared read-only state;
  /// Open only repositions the probe chain.
  HashJoinIter(const PhysOp* op, std::unique_ptr<FrameIter> probe,
               const HashJoinShared* shared)
      : op_(op),
        layout_(MakeHashJoinLayout(*op)),
        probe_iter_(std::move(probe)),
        shared_(shared) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    if (shared_ == nullptr) {
      TAURUS_RETURN_IF_ERROR(FillHashJoinState(*op_, layout_,
                                               build_iter_.get(), frame, ctx,
                                               &own_state_));
    } else {
      ClearSlots(frame, layout_.build_refs);
    }
    // Probe-side Fast-AGMS stream, serial pipelines only (worker shards
    // would each replay the stream per morsel). The iterator instance is
    // the owner: a re-Open replays probe rows, poisoning the stream.
    probe_sketch_ = nullptr;
    if (ctx->sketches != nullptr && !ctx->is_worker_shard &&
        shared_ == nullptr) {
      const PhysOp& probe_child =
          layout_.build_is_left ? *op_->right : *op_->child;
      std::string stream = SketchStreamKey(probe_child, layout_.probe_keys);
      if (!stream.empty()) {
        probe_sketch_ = ctx->sketches->BeginStream(stream, this);
      }
    }
    TAURUS_RETURN_IF_ERROR(probe_iter_->Open(frame, ctx));
    have_probe_ = false;
    return Status::OK();
  }

  Result<bool> Next(Frame* frame, ExecContext* ctx) override {
    const JoinType jt = op_->join_type;
    const HashJoinShared& state = shared_ != nullptr ? *shared_ : own_state_;
    while (true) {
      if (!have_probe_) {
        TAURUS_ASSIGN_OR_RETURN(bool has, probe_iter_->Next(frame, ctx));
        if (!has) return false;
        have_probe_ = true;
        matched_ = false;
        candidates_.clear();
        cand_pos_ = 0;
        Row key;
        key.reserve(layout_.probe_keys.size());
        bool has_null = false;
        for (const Expr* e : layout_.probe_keys) {
          TAURUS_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, *frame, nullptr, ctx));
          if (v.is_null()) has_null = true;
          key.push_back(std::move(v));
        }
        if (!has_null) {
          if (probe_sketch_ != nullptr) probe_sketch_->Update(key[0].Hash());
          auto [b, e] = state.table.equal_range(HashRow(key));
          for (auto it = b; it != e; ++it) {
            const HashJoinShared::Entry& cand = state.entries[it->second];
            bool eq = true;
            for (size_t i = 0; i < key.size(); ++i) {
              if (Value::Compare(cand.key[i], key[i]) != 0) {
                eq = false;
                break;
              }
            }
            if (eq) candidates_.push_back(it->second);
          }
        }
      }
      while (cand_pos_ < candidates_.size()) {
        const HashJoinShared::Entry& entry =
            state.entries[candidates_[cand_pos_++]];
        // Restore the build subtree's slots from the owned frame.
        for (int r : layout_.build_refs) {
          size_t slot = static_cast<size_t>(r);
          (*frame)[slot] =
              entry.frame.present[slot] ? &entry.frame.rows[slot] : nullptr;
        }
        TAURUS_ASSIGN_OR_RETURN(bool ok,
                                EvalConjuncts(op_->conds, *frame, nullptr, ctx));
        if (!ok) continue;
        matched_ = true;
        if (jt == JoinType::kSemi) {
          ClearSlots(frame, layout_.build_refs);
          have_probe_ = false;
          return true;
        }
        if (jt == JoinType::kAntiSemi) {
          cand_pos_ = candidates_.size();
          break;
        }
        return true;  // inner / cross / left
      }
      bool emit_unmatched =
          (jt == JoinType::kLeft || jt == JoinType::kAntiSemi) && !matched_;
      have_probe_ = false;
      if (emit_unmatched) {
        ClearSlots(frame, layout_.build_refs);
        return true;
      }
    }
  }

 private:
  const PhysOp* op_;
  HashJoinLayout layout_;
  std::unique_ptr<FrameIter> build_iter_;  ///< null for worker clones
  std::unique_ptr<FrameIter> probe_iter_;
  const HashJoinShared* shared_ = nullptr;  ///< set for worker clones
  HashJoinShared own_state_;                ///< used by the serial form
  AgmsSketch* probe_sketch_ = nullptr;      ///< claimed per Open, or null

  bool have_probe_ = false;
  bool matched_ = false;
  std::vector<size_t> candidates_;
  size_t cand_pos_ = 0;
};

/// EXPLAIN ANALYZE decorator: records actual rows (Next returning true),
/// loops (Open calls) and inclusive wall time for one plan node. Only
/// instantiated when the context collects actuals, so the plain iterator
/// chain is untouched — and therefore unmeasurable — when analyze is off.
class AnalyzeIter : public FrameIter {
 public:
  AnalyzeIter(const PhysOp* op, std::unique_ptr<FrameIter> inner)
      : op_(op), inner_(std::move(inner)) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    if (ctx->op_actuals == nullptr) return inner_->Open(frame, ctx);
    OpActual& a = ctx->op_actuals->At(op_);
    ++a.loops;
    const double t0 = ctx->analyze_clock->NowMs();
    Status st = inner_->Open(frame, ctx);
    a.time_ms += ctx->analyze_clock->NowMs() - t0;
    return st;
  }

  Result<bool> Next(Frame* frame, ExecContext* ctx) override {
    if (ctx->op_actuals == nullptr) return inner_->Next(frame, ctx);
    OpActual& a = ctx->op_actuals->At(op_);
    const double t0 = ctx->analyze_clock->NowMs();
    Result<bool> r = inner_->Next(frame, ctx);
    a.time_ms += ctx->analyze_clock->NowMs() - t0;
    if (r.ok() && r.value()) ++a.rows;
    return r;
  }

 private:
  const PhysOp* op_;
  std::unique_ptr<FrameIter> inner_;
};

std::unique_ptr<FrameIter> Analyzed(const PhysOp* op, ExecContext* ctx,
                                    std::unique_ptr<FrameIter> iter) {
  if (ctx->op_actuals == nullptr || iter == nullptr) return iter;
  return std::make_unique<AnalyzeIter>(op, std::move(iter));
}

}  // namespace

std::unique_ptr<FrameIter> BuildIter(const PhysOp* op, ExecContext* ctx,
                                     const PipelineShared* shared,
                                     TableScanIter** driver) {
  std::unique_ptr<FrameIter> iter;
  switch (op->kind) {
    case PhysOp::Kind::kTableScan: {
      auto scan = std::make_unique<TableScanIter>(op);
      // The raw scan, before any analyze wrapping: a worker repositions it
      // per morsel, so under analyze its loops count morsels processed.
      if (driver != nullptr) *driver = scan.get();
      iter = std::move(scan);
      break;
    }
    case PhysOp::Kind::kIndexRange:
      iter = std::make_unique<IndexRangeIter>(op);
      break;
    case PhysOp::Kind::kIndexLookup:
      iter = std::make_unique<IndexLookupIter>(op);
      break;
    case PhysOp::Kind::kDerivedScan:
      iter = std::make_unique<DerivedScanIter>(op);
      break;
    case PhysOp::Kind::kFilter:
      iter = std::make_unique<FilterIter>(
          op, BuildIter(op->child.get(), ctx, shared, driver));
      break;
    case PhysOp::Kind::kNLJoin:
      // The inner side is re-opened per outer row, on a worker too.
      iter = std::make_unique<NLJoinIter>(
          op, BuildIter(op->child.get(), ctx, shared, driver),
          BuildIter(op->right.get(), ctx));
      break;
    case PhysOp::Kind::kHashJoin: {
      if (shared == nullptr) {
        iter = std::make_unique<HashJoinIter>(op, BuildIter(op->child.get(), ctx),
                                              BuildIter(op->right.get(), ctx));
        break;
      }
      auto it = shared->hash_states.find(op);
      if (it == shared->hash_states.end()) return nullptr;
      auto probe = BuildIter(DrivingChild(*op), ctx, shared, driver);
      if (probe == nullptr) return nullptr;
      iter = std::make_unique<HashJoinIter>(op, std::move(probe), &it->second);
      break;
    }
  }
  return Analyzed(op, ctx, std::move(iter));
}

namespace {

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// One aggregate accumulator (SUM/COUNT/AVG/MIN/MAX/STDDEV, with DISTINCT).
/// Fully mergeable: two partial states over disjoint row sets combine into
/// the state of the union (DISTINCT via set union, STDDEV via sum/sumsq),
/// which is what lets the parallel executor aggregate per morsel.
struct Accum {
  int64_t count = 0;
  int64_t isum = 0;
  double sum = 0.0;
  double sumsq = 0.0;
  bool int_only = true;
  Value min_v, max_v;
  std::set<Value> distinct;

  void Update(const Expr& agg, const Value& v) {
    if (agg.agg_func == AggFunc::kCountStar) {
      ++count;
      return;
    }
    if (v.is_null()) return;
    if (agg.agg_distinct) {
      distinct.insert(v);
      return;
    }
    Add(v);
  }

  void Add(const Value& v) {
    ++count;
    if (v.kind() == Value::Kind::kInt) {
      isum += v.AsInt();
    } else {
      int_only = false;
    }
    double d = v.AsDouble();
    sum += d;
    sumsq += d * d;
    if (min_v.is_null() || Value::Compare(v, min_v) < 0) min_v = v;
    if (max_v.is_null() || Value::Compare(v, max_v) > 0) max_v = v;
  }

  /// Folds another partial state (over disjoint input rows) into this one.
  void Merge(const Accum& o) {
    count += o.count;
    isum += o.isum;
    sum += o.sum;
    sumsq += o.sumsq;
    int_only = int_only && o.int_only;
    if (!o.min_v.is_null() &&
        (min_v.is_null() || Value::Compare(o.min_v, min_v) < 0)) {
      min_v = o.min_v;
    }
    if (!o.max_v.is_null() &&
        (max_v.is_null() || Value::Compare(o.max_v, max_v) > 0)) {
      max_v = o.max_v;
    }
    distinct.insert(o.distinct.begin(), o.distinct.end());
  }

  Value Finalize(const Expr& agg) {
    if (agg.agg_distinct) {
      // Fold the distinct set through a plain accumulator.
      Accum folded;
      for (const Value& v : distinct) folded.Add(v);
      Expr plain;
      plain.kind = Expr::Kind::kAgg;
      plain.agg_func = agg.agg_func;
      return folded.Finalize(plain);
    }
    switch (agg.agg_func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
        if (count == 0) return Value::Null();
        return int_only ? Value::Int(isum) : Value::Double(sum);
      case AggFunc::kAvg:
        if (count == 0) return Value::Null();
        return Value::Double(sum / static_cast<double>(count));
      case AggFunc::kMin:
        return min_v;
      case AggFunc::kMax:
        return max_v;
      case AggFunc::kStddev: {
        if (count == 0) return Value::Null();
        double n = static_cast<double>(count);
        double var = sumsq / n - (sum / n) * (sum / n);
        return Value::Double(std::sqrt(std::max(var, 0.0)));
      }
    }
    return Value::Null();
  }
};

/// A finished group, ready for HAVING/ORDER BY/projection.
struct Group {
  Row key;
  Row agg_values;
  OwnedFrame rep;  ///< representative input frame
  /// Set instead of `rep` by a morsel partial (GroupByState::InitPartial).
  Frame borrowed_rep;

  Frame RepView() const {
    return borrowed_rep.empty() ? rep.View() : borrowed_rep;
  }
};

int CompareRows(const Row& a, const Row& b,
                const std::vector<bool>* ascending = nullptr) {
  for (size_t i = 0; i < a.size(); ++i) {
    int c = Value::Compare(a[i], b[i]);
    // NULLs sort first on ASC (MySQL semantics); flip for DESC.
    if (c != 0) {
      bool asc = ascending == nullptr || (*ascending)[i];
      return asc ? c : -c;
    }
  }
  return 0;
}

/// Hash-aggregation state: groups in first-encounter order plus their
/// accumulators. The serial path runs one instance over all rows; the
/// parallel path runs one per morsel and merges the partials in morsel
/// order, which reproduces the serial group order and representative rows
/// exactly regardless of worker scheduling.
class GroupByState {
 public:
  void Init(const BlockPlan* plan) { plan_ = plan; }

  /// A morsel partial borrows its representative frames instead of
  /// deep-copying them. The rows they point at — table rows, the outer
  /// binding, and the pipeline's prebuilt hash build sides — outlive the
  /// block's aggregation, and most partial groups fold into an earlier
  /// morsel's group at merge, so a copy per partial group would only churn
  /// worker memory.
  void InitPartial(const BlockPlan* plan) {
    plan_ = plan;
    borrow_reps_ = true;
  }

  Status Consume(const Frame& f, ExecContext* ctx) {
    Row key;
    key.reserve(plan_->group_exprs.size());
    for (const Expr* g : plan_->group_exprs) {
      TAURUS_ASSIGN_OR_RETURN(Value v, EvalExpr(*g, f, nullptr, ctx));
      key.push_back(std::move(v));
    }
    uint64_t h = HashRow(key);
    size_t idx = Find(h, key);
    if (idx == SIZE_MAX) {
      idx = groups_.size();
      index_[h].push_back(idx);
      Group g;
      g.key = std::move(key);
      if (borrow_reps_) {
        g.borrowed_rep = f;
      } else {
        g.rep = OwnedFrame(f);
      }
      groups_.push_back(std::move(g));
      accums_.emplace_back(plan_->agg_exprs.size());
    }
    for (size_t i = 0; i < plan_->agg_exprs.size(); ++i) {
      const Expr& agg = *plan_->agg_exprs[i];
      Value v;
      if (agg.agg_func != AggFunc::kCountStar) {
        TAURUS_ASSIGN_OR_RETURN(v,
                                EvalExpr(*agg.children[0], f, nullptr, ctx));
      }
      accums_[idx][i].Update(agg, v);
    }
    return Status::OK();
  }

  /// Vectorized Consume: group keys and aggregate arguments are evaluated
  /// as whole vectors over the batch, then folded per selected row in
  /// selection order — same groups, same encounter order, same
  /// representative frames as row-at-a-time consumption.
  Status ConsumeBatch(const Batch& b, ExecContext* ctx) {
    const size_t n = b.sel.size();
    const size_t ng = plan_->group_exprs.size();
    const size_t na = plan_->agg_exprs.size();
    std::vector<std::vector<Value>> gcols(ng);
    for (size_t g = 0; g < ng; ++g) {
      TAURUS_RETURN_IF_ERROR(
          EvalExprBatch(*plan_->group_exprs[g], b, ctx, &gcols[g]));
    }
    std::vector<std::vector<Value>> acols(na);
    for (size_t a = 0; a < na; ++a) {
      const Expr& agg = *plan_->agg_exprs[a];
      if (agg.agg_func == AggFunc::kCountStar) continue;
      TAURUS_RETURN_IF_ERROR(EvalExprBatch(*agg.children[0], b, ctx, &acols[a]));
    }
    Frame scratch;
    for (size_t i = 0; i < n; ++i) {
      Row key;
      key.reserve(ng);
      for (size_t g = 0; g < ng; ++g) key.push_back(gcols[g][i]);
      uint64_t h = HashRow(key);
      size_t idx = Find(h, key);
      if (idx == SIZE_MAX) {
        idx = groups_.size();
        index_[h].push_back(idx);
        Group grp;
        grp.key = std::move(key);
        if (scratch.empty()) scratch = *b.base;
        b.FillFrame(b.sel[i], &scratch);
        if (borrow_reps_) {
          grp.borrowed_rep = scratch;
        } else {
          grp.rep = OwnedFrame(scratch);
        }
        groups_.push_back(std::move(grp));
        accums_.emplace_back(na);
      }
      for (size_t a = 0; a < na; ++a) {
        const Expr& agg = *plan_->agg_exprs[a];
        accums_[idx][a].Update(
            agg, agg.agg_func == AggFunc::kCountStar ? Value() : acols[a][i]);
      }
    }
    return Status::OK();
  }

  /// Merges a LATER partial state into this one: existing groups fold their
  /// accumulators; new groups append in `o`'s own encounter order. Merging
  /// morsel partials in morsel order therefore yields exactly the serial
  /// encounter order (and the serial representative frame per group).
  void Merge(GroupByState&& o) {
    for (size_t gi = 0; gi < o.groups_.size(); ++gi) {
      uint64_t h = HashRow(o.groups_[gi].key);
      size_t idx = Find(h, o.groups_[gi].key);
      if (idx == SIZE_MAX) {
        idx = groups_.size();
        index_[h].push_back(idx);
        groups_.push_back(std::move(o.groups_[gi]));
        accums_.push_back(std::move(o.accums_[gi]));
      } else {
        for (size_t a = 0; a < accums_[idx].size(); ++a) {
          accums_[idx][a].Merge(o.accums_[gi][a]);
        }
      }
    }
  }

  bool empty() const { return groups_.empty(); }

  /// Scalar aggregation over empty input still yields one group.
  void AddEmptyScalarGroup(const Frame& frame) {
    Group g;
    g.rep = OwnedFrame(frame);
    groups_.push_back(std::move(g));
    accums_.emplace_back(plan_->agg_exprs.size());
  }

  /// Fills each group's agg_values and hands the groups over.
  std::vector<Group> Finalize() {
    for (size_t i = 0; i < groups_.size(); ++i) {
      groups_[i].agg_values.reserve(plan_->agg_exprs.size());
      for (size_t a = 0; a < plan_->agg_exprs.size(); ++a) {
        groups_[i].agg_values.push_back(
            accums_[i][a].Finalize(*plan_->agg_exprs[a]));
      }
    }
    return std::move(groups_);
  }

 private:
  size_t Find(uint64_t h, const Row& key) const {
    auto it = index_.find(h);
    if (it == index_.end()) return SIZE_MAX;
    for (size_t cand : it->second) {
      if (CompareRows(groups_[cand].key, key) == 0) return cand;
    }
    return SIZE_MAX;
  }

  const BlockPlan* plan_ = nullptr;
  bool borrow_reps_ = false;
  std::vector<Group> groups_;
  std::unordered_map<uint64_t, std::vector<size_t>> index_;
  std::vector<std::vector<Accum>> accums_;
};

/// A buffered pre-sort row: its ORDER BY key plus the captured frame.
struct SortUnit {
  Row sort_key;
  OwnedFrame frame;
};

// ---------------------------------------------------------------------------
// Pipeline finish stages (shared by the serial and parallel paths)
// ---------------------------------------------------------------------------

/// HAVING, ORDER BY keys, projection and sort over finished groups.
Status FinishAgg(const BlockPlan& plan, std::vector<Group> groups,
                 ExecContext* ctx, bool has_order, std::vector<Row>* output) {
  struct OutUnit {
    Row sort_key;
    Row row;
  };
  std::vector<OutUnit> units;
  for (Group& g : groups) {
    Frame rep_view = g.RepView();
    AggContext agg_ctx;
    agg_ctx.agg_exprs = &plan.agg_exprs;
    agg_ctx.agg_values = &g.agg_values;
    agg_ctx.group_exprs = &plan.group_exprs;
    agg_ctx.group_values = &g.key;
    if (plan.having != nullptr) {
      TAURUS_ASSIGN_OR_RETURN(
          bool ok, EvalPredicate(*plan.having, rep_view, &agg_ctx, ctx));
      if (!ok) continue;
    }
    OutUnit unit;
    if (has_order) {
      for (const auto& [e, asc] : plan.order_keys) {
        TAURUS_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, rep_view, &agg_ctx, ctx));
        unit.sort_key.push_back(std::move(v));
      }
    }
    for (const Expr* p : plan.projections) {
      TAURUS_ASSIGN_OR_RETURN(Value v, EvalExpr(*p, rep_view, &agg_ctx, ctx));
      unit.row.push_back(std::move(v));
    }
    units.push_back(std::move(unit));
  }
  if (has_order) {
    std::vector<bool> asc;
    for (const auto& [e, a] : plan.order_keys) asc.push_back(a);
    std::stable_sort(units.begin(), units.end(),
                     [&](const OutUnit& a, const OutUnit& b) {
                       return CompareRows(a.sort_key, b.sort_key, &asc) < 0;
                     });
  }
  for (OutUnit& u : units) output->push_back(std::move(u.row));
  return Status::OK();
}

/// Sorts buffered rows by their keys and projects them.
Status FinishSort(const BlockPlan& plan, std::vector<SortUnit> units,
                  ExecContext* ctx, std::vector<Row>* output) {
  std::vector<bool> asc;
  for (const auto& [e, a] : plan.order_keys) asc.push_back(a);
  std::stable_sort(units.begin(), units.end(),
                   [&](const SortUnit& a, const SortUnit& b) {
                     return CompareRows(a.sort_key, b.sort_key, &asc) < 0;
                   });
  for (SortUnit& u : units) {
    Frame view = u.frame.View();
    Row row;
    for (const Expr* p : plan.projections) {
      TAURUS_ASSIGN_OR_RETURN(Value v, EvalExpr(*p, view, nullptr, ctx));
      row.push_back(std::move(v));
    }
    output->push_back(std::move(row));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Morsel-driven parallel pipeline (see DESIGN.md section 8)
// ---------------------------------------------------------------------------

/// What the per-worker iterator chains feed, per pipeline shape.
enum class PipeMode { kAgg, kSort, kPlain };

}  // namespace

/// The probe/driving child an eligible pipeline descends through.
const PhysOp* DrivingChild(const PhysOp& op) {
  switch (op.kind) {
    case PhysOp::Kind::kFilter:
      return op.child.get();
    case PhysOp::Kind::kNLJoin:
      return op.child.get();
    case PhysOp::Kind::kHashJoin: {
      bool build_is_left = (op.join_type == JoinType::kInner ||
                            op.join_type == JoinType::kCross);
      return build_is_left ? op.right.get() : op.child.get();
    }
    default:
      return nullptr;
  }
}

/// The driving TableScan of an eligible pipeline (refinement guarantees
/// one exists; returns null defensively otherwise).
const PhysOp* FindDriverScan(const PhysOp* op) {
  while (op != nullptr) {
    if (op->kind == PhysOp::Kind::kTableScan) return op;
    op = DrivingChild(*op);
  }
  return nullptr;
}

namespace {

Status PrebuildHashStates(const PhysOp* root, Frame* frame, ExecContext* ctx,
                          PipelineShared* shared) {
  for (const PhysOp* cur = root; cur != nullptr; cur = DrivingChild(*cur)) {
    if (cur->kind != PhysOp::Kind::kHashJoin) continue;
    HashJoinLayout layout = MakeHashJoinLayout(*cur);
    const PhysOp* build_child =
        layout.build_is_left ? cur->child.get() : cur->right.get();
    std::unique_ptr<FrameIter> build = BuildIter(build_child, ctx);
    TAURUS_RETURN_IF_ERROR(FillHashJoinState(
        *cur, layout, build.get(), frame, ctx, &shared->hash_states[cur]));
  }
  return Status::OK();
}

/// What a pipeline's sink collects, per shape: one per morsel on the
/// parallel path (merged on the main thread in morsel order), one for the
/// whole block on the serial path.
struct PipeOut {
  GroupByState agg;
  std::vector<SortUnit> sort_units;
  std::vector<Row> rows;
};

/// Row sink: drains a Volcano chain into `out`. A plain pipeline stops
/// once it holds `row_limit` rows (-1 drains fully): the LIMIT early exit
/// refine keeps such blocks serial and row-at-a-time for.
Status ConsumeRows(PipeMode mode, const BlockPlan& plan, FrameIter* chain,
                   Frame* frame, ExecContext* ctx, int64_t row_limit,
                   PipeOut* out) {
  while (row_limit < 0 || static_cast<int64_t>(out->rows.size()) < row_limit) {
    TAURUS_ASSIGN_OR_RETURN(bool has, chain->Next(frame, ctx));
    if (!has) break;
    switch (mode) {
      case PipeMode::kAgg:
        TAURUS_RETURN_IF_ERROR(out->agg.Consume(*frame, ctx));
        break;
      case PipeMode::kSort: {
        SortUnit u;
        for (const auto& [e, a] : plan.order_keys) {
          TAURUS_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, *frame, nullptr, ctx));
          u.sort_key.push_back(std::move(v));
        }
        u.frame = OwnedFrame(*frame);
        out->sort_units.push_back(std::move(u));
        break;
      }
      case PipeMode::kPlain: {
        Row row;
        for (const Expr* p : plan.projections) {
          TAURUS_ASSIGN_OR_RETURN(Value v, EvalExpr(*p, *frame, nullptr, ctx));
          row.push_back(std::move(v));
        }
        out->rows.push_back(std::move(row));
        break;
      }
    }
  }
  return Status::OK();
}

/// Batch sink: drains a batch chain into the same per-shape outputs,
/// evaluating order keys / projections as whole vectors. Row order
/// (selection order) matches the Volcano chain's emission order exactly, so
/// groups, sort stability and plain output are bit-identical.
Status ConsumeBatches(PipeMode mode, const BlockPlan& plan, BatchOp* chain,
                      ExecContext* ctx, PipeOut* out) {
  Frame scratch;
  while (true) {
    TAURUS_ASSIGN_OR_RETURN(Batch* b, chain->NextBatch(ctx));
    if (b == nullptr) return Status::OK();
    ++ctx->batches;
    ctx->batch_rows += static_cast<int64_t>(b->sel.size());
    switch (mode) {
      case PipeMode::kAgg:
        TAURUS_RETURN_IF_ERROR(out->agg.ConsumeBatch(*b, ctx));
        break;
      case PipeMode::kSort: {
        const size_t nk = plan.order_keys.size();
        std::vector<std::vector<Value>> kcols(nk);
        for (size_t k = 0; k < nk; ++k) {
          TAURUS_RETURN_IF_ERROR(
              EvalExprBatch(*plan.order_keys[k].first, *b, ctx, &kcols[k]));
        }
        if (scratch.empty()) scratch = *b->base;
        for (size_t i = 0; i < b->sel.size(); ++i) {
          SortUnit u;
          u.sort_key.reserve(nk);
          for (size_t k = 0; k < nk; ++k) {
            u.sort_key.push_back(std::move(kcols[k][i]));
          }
          b->FillFrame(b->sel[i], &scratch);
          u.frame = OwnedFrame(scratch);
          out->sort_units.push_back(std::move(u));
        }
        break;
      }
      case PipeMode::kPlain: {
        const size_t np = plan.projections.size();
        std::vector<std::vector<Value>> pcols(np);
        for (size_t p = 0; p < np; ++p) {
          TAURUS_RETURN_IF_ERROR(
              EvalExprBatch(*plan.projections[p], *b, ctx, &pcols[p]));
        }
        for (size_t i = 0; i < b->sel.size(); ++i) {
          Row row;
          row.reserve(np);
          for (size_t p = 0; p < np; ++p) row.push_back(std::move(pcols[p][i]));
          out->rows.push_back(std::move(row));
        }
        break;
      }
    }
  }
}

/// Attempts to run the block's driving pipeline morsel-parallel. Returns
/// false when a runtime gate keeps it serial (no pool, small driver table,
/// DOP < 2, pool busy); true when the parallel pipeline ran and its merged
/// output is in `out`. The hash build sides land in `shared`, which merged
/// groups borrow rows from. Errors from workers (including deterministic
/// budget kills through the shared atomic row counter) propagate with the
/// smallest morsel index winning, so failures are reproducible too.
Result<bool> TryParallelPipeline(const BlockPlan& plan, const Frame& outer,
                                 ExecContext* ctx, PipeMode mode,
                                 PipelineShared* shared, PipeOut* out) {
  const PhysOp* driver = FindDriverScan(plan.join_root.get());
  if (driver == nullptr) return false;
  const TableData* data = ctx->storage->Get(driver->leaf->table->id);
  if (data == nullptr) return false;
  const int64_t total = static_cast<int64_t>(data->NumRows());
  if (total < ctx->parallel_min_driver_rows) return false;
  const int64_t morsel = std::max<int64_t>(1, ctx->morsel_rows);
  const int64_t num_morsels = (total + morsel - 1) / morsel;
  const int dop = static_cast<int>(
      std::min<int64_t>(ctx->parallel_workers, num_morsels));
  if (dop < 2) return false;

  // Build sides run once, serially, with the root context (they may hold
  // derived tables, subqueries, anything — the workers never re-enter them).
  {
    Frame build_frame = outer;
    TAURUS_RETURN_IF_ERROR(
        PrebuildHashStates(plan.join_root.get(), &build_frame, ctx, shared));
  }

  // Per-morsel output slots: workers write disjoint indices, the main
  // thread reads only after the pool joins, so no locking is needed and
  // the merged result is independent of scheduling.
  const size_t nm = static_cast<size_t>(num_morsels);
  std::vector<PipeOut> parts(nm);
  for (PipeOut& part : parts) part.agg.InitPartial(&plan);
  std::vector<Status> morsel_status(nm, Status::OK());
  std::vector<Status> worker_status(static_cast<size_t>(dop), Status::OK());
  std::unique_ptr<ExecContext[]> shards(new ExecContext[dop]);

  std::atomic<int64_t> next_morsel{0};
  std::atomic<bool> abort{false};
  const bool batch = plan.batch_eligible && ctx->use_batch;

  // Executor profiling (DESIGN.md section 15): each worker times its own
  // slot — no synchronization — and the main thread computes idle time
  // against the pipeline wall after the pool joins.
  const bool profiled =
      ctx->exec_profile != nullptr && ctx->profile_clock != nullptr;
  std::vector<WorkerProfile> worker_profiles(
      profiled ? static_cast<size_t>(dop) : 0);
  const Clock* profile_clock = ctx->profile_clock;

  auto worker = [&](int w) {
    ExecContext* shard = &shards[w];
    ctx->InitShard(shard);
    // Each worker runs its morsels through a private clone of the driving
    // chain probing the shared hash states: vectorized when refine marked
    // the block batch-eligible, row-at-a-time otherwise.
    std::unique_ptr<BatchOp> bchain;
    BatchTableScan* bscan = nullptr;
    std::unique_ptr<FrameIter> chain;
    TableScanIter* scan = nullptr;
    const PhysOp* built = nullptr;
    if (batch) {
      bchain = BuildBatchChain(plan.join_root.get(), shard, shared, &bscan);
      if (bchain != nullptr && bscan != nullptr) built = bscan->Op();
    } else {
      chain = BuildIter(plan.join_root.get(), shard, shared, &scan);
      if (chain != nullptr && scan != nullptr) built = scan->Op();
    }
    if (built != driver) {
      worker_status[static_cast<size_t>(w)] =
          Status::Internal("worker chain build failed");
      abort.store(true, std::memory_order_relaxed);
      return;
    }
    Frame frame = outer;
    WorkerProfile* profile =
        profiled ? &worker_profiles[static_cast<size_t>(w)] : nullptr;
    while (!abort.load(std::memory_order_relaxed)) {
      int64_t m = next_morsel.fetch_add(1, std::memory_order_relaxed);
      if (m >= num_morsels) break;
      const size_t begin = static_cast<size_t>(m * morsel);
      const size_t end = static_cast<size_t>(std::min(total, (m + 1) * morsel));
      PipeOut* part = &parts[static_cast<size_t>(m)];
      const double morsel_start =
          profile != nullptr ? profile_clock->NowMs() : 0.0;
      Status st;
      if (batch) {
        bscan->SetRange(begin, end);
        st = bchain->Open(&frame, shard);
        if (st.ok()) st = ConsumeBatches(mode, plan, bchain.get(), shard, part);
      } else {
        scan->SetRange(begin, end);
        st = chain->Open(&frame, shard);
        if (st.ok()) {
          st = ConsumeRows(mode, plan, chain.get(), &frame, shard,
                           /*row_limit=*/-1, part);
        }
      }
      if (profile != nullptr) {
        profile->busy_ms += profile_clock->NowMs() - morsel_start;
        ++profile->morsels;
        // Driver rows processed this morsel, by the engine that ran them.
        const int64_t driver_rows =
            static_cast<int64_t>(end) - static_cast<int64_t>(begin);
        (batch ? profile->batch_rows : profile->volcano_rows) += driver_rows;
      }
      if (!st.ok()) {
        morsel_status[static_cast<size_t>(m)] = std::move(st);
        abort.store(true, std::memory_order_relaxed);
        break;
      }
    }
  };

  const double pipeline_start = profiled ? profile_clock->NowMs() : 0.0;
  if (!ctx->pool->TryRun(dop, worker)) {  // pool busy: go serial
    *shared = PipelineShared();
    return false;
  }
  if (profiled) {
    // Per-worker idle = pipeline wall minus that worker's busy time: queue
    // hand-off plus waiting for the slowest peer after draining the queue.
    const double wall = profile_clock->NowMs() - pipeline_start;
    for (WorkerProfile& wp : worker_profiles) {
      wp.idle_ms = std::max(0.0, wall - wp.busy_ms);
    }
    ctx->exec_profile->MergePipeline(worker_profiles);
  }

  for (int w = 0; w < dop; ++w) ctx->MergeShard(shards[w]);
  // First failing morsel (by morsel index, not completion order) wins.
  for (const Status& st : morsel_status) {
    if (!st.ok()) return st;
  }
  for (const Status& st : worker_status) {
    if (!st.ok()) return st;
  }

  out->agg = std::move(parts[0].agg);
  for (size_t i = 0; i < nm; ++i) {
    if (i > 0) out->agg.Merge(std::move(parts[i].agg));
    for (SortUnit& u : parts[i].sort_units) {
      out->sort_units.push_back(std::move(u));
    }
    for (Row& r : parts[i].rows) out->rows.push_back(std::move(r));
  }

  ++ctx->parallel_pipelines;
  if (batch) ++ctx->batch_pipelines;
  ctx->max_workers_used = std::max(ctx->max_workers_used, dop);
  return true;
}

// ---------------------------------------------------------------------------
// Block execution
// ---------------------------------------------------------------------------

Result<std::vector<Row>> ExecuteSingle(const BlockPlan& plan,
                                       const Frame& outer, ExecContext* ctx,
                                       bool apply_order_limit) {
  Frame frame = outer;
  std::vector<Row> output;

  // Block-level actuals (rows after agg/sort/distinct/limit) keyed by the
  // BlockPlan itself; per-operator actuals come from the AnalyzeIter wraps.
  const bool analyze = ctx->op_actuals != nullptr;
  const double analyze_t0 = analyze ? ctx->analyze_clock->NowMs() : 0.0;
  auto record_block = [&](const std::vector<Row>& rows) {
    OpActual& a = ctx->op_actuals->At(&plan);
    ++a.loops;
    a.rows += static_cast<int64_t>(rows.size());
    a.time_ms += ctx->analyze_clock->NowMs() - analyze_t0;
  };

  const bool has_order = apply_order_limit && !plan.order_keys.empty() &&
                         !plan.order_satisfied;
  const bool has_limit = apply_order_limit && plan.limit >= 0;

  // ---- No FROM clause: one conceptual row. ----
  if (plan.join_root == nullptr && plan.agg_mode == AggMode::kNone) {
    Row row;
    for (const Expr* p : plan.projections) {
      TAURUS_ASSIGN_OR_RETURN(Value v, EvalExpr(*p, frame, nullptr, ctx));
      row.push_back(std::move(v));
    }
    output.push_back(std::move(row));
    if (analyze) record_block(output);
    return output;
  }

  const PipeMode mode = plan.agg_mode != AggMode::kNone
                            ? PipeMode::kAgg
                            : (has_order ? PipeMode::kSort : PipeMode::kPlain);

  // ---- Driving pipeline: morsel-parallel when refine marked it eligible
  // and the runtime gates agree, else serial. Either way it runs batched
  // exactly when refine marked it batch-eligible and the knob is on. ----
  PipelineShared shared;  // outlives the merged groups that borrow from it
  PipeOut out;
  out.agg.Init(&plan);
  bool parallel = false;
  if (plan.join_root != nullptr && plan.parallel_eligible &&
      ctx->pool != nullptr && !ctx->is_worker_shard) {
    TAURUS_ASSIGN_OR_RETURN(
        parallel, TryParallelPipeline(plan, outer, ctx, mode, &shared, &out));
  }
  // The serial chains live until the block is finished: `frame` may still
  // point at rows they own when an empty scalar aggregate copies it.
  std::unique_ptr<BatchOp> bchain;
  std::unique_ptr<FrameIter> chain;
  if (plan.join_root == nullptr) {
    TAURUS_RETURN_IF_ERROR(out.agg.Consume(frame, ctx));
  } else if (!parallel && plan.batch_eligible && ctx->use_batch) {
    bchain = BuildBatchChain(plan.join_root.get(), ctx);
    if (bchain == nullptr) return Status::Internal("batch chain build failed");
    ++ctx->batch_pipelines;
    TAURUS_RETURN_IF_ERROR(bchain->Open(&frame, ctx));
    TAURUS_RETURN_IF_ERROR(ConsumeBatches(mode, plan, bchain.get(), ctx, &out));
  } else if (!parallel) {
    chain = BuildIter(plan.join_root.get(), ctx);
    TAURUS_RETURN_IF_ERROR(chain->Open(&frame, ctx));
    const int64_t row_limit = mode == PipeMode::kPlain && has_limit &&
                                      !plan.distinct
                                  ? plan.offset + plan.limit
                                  : -1;
    TAURUS_RETURN_IF_ERROR(
        ConsumeRows(mode, plan, chain.get(), &frame, ctx, row_limit, &out));
  }

  if (mode == PipeMode::kAgg) {
    if (out.agg.empty() && plan.group_exprs.empty()) {
      out.agg.AddEmptyScalarGroup(frame);
    }
    TAURUS_RETURN_IF_ERROR(
        FinishAgg(plan, out.agg.Finalize(), ctx, has_order, &output));
  } else if (mode == PipeMode::kSort) {
    TAURUS_RETURN_IF_ERROR(
        FinishSort(plan, std::move(out.sort_units), ctx, &output));
  } else {
    output = std::move(out.rows);
  }

  // DISTINCT.
  if (plan.distinct) {
    std::vector<Row> dedup;
    std::unordered_map<uint64_t, std::vector<size_t>> seen;
    for (Row& r : output) {
      uint64_t h = HashRow(r);
      bool dup = false;
      for (size_t idx : seen[h]) {
        if (CompareRows(dedup[idx], r) == 0) {
          dup = true;
          break;
        }
      }
      if (!dup) {
        seen[h].push_back(dedup.size());
        dedup.push_back(std::move(r));
      }
    }
    output = std::move(dedup);
  }

  // OFFSET / LIMIT.
  if (apply_order_limit && (plan.offset > 0 || plan.limit >= 0)) {
    size_t begin = std::min(static_cast<size_t>(plan.offset), output.size());
    size_t end = plan.limit >= 0
                     ? std::min(begin + static_cast<size_t>(plan.limit),
                                output.size())
                     : output.size();
    std::vector<Row> window(std::make_move_iterator(output.begin() + begin),
                            std::make_move_iterator(output.begin() + end));
    output = std::move(window);
  }
  if (analyze) record_block(output);
  return output;
}

}  // namespace

Result<std::vector<Row>> ExecuteBlock(const BlockPlan& plan,
                                      const Frame& outer, ExecContext* ctx) {
  if (plan.union_arms.empty()) {
    return ExecuteSingle(plan, outer, ctx, /*apply_order_limit=*/true);
  }
  // UNION: run all arms without per-arm ordering, combine, then apply the
  // head block's ORDER BY (resolved to positions) and LIMIT.
  TAURUS_ASSIGN_OR_RETURN(
      std::vector<Row> rows,
      ExecuteSingle(plan, outer, ctx, /*apply_order_limit=*/false));
  for (const auto& arm : plan.union_arms) {
    TAURUS_ASSIGN_OR_RETURN(
        std::vector<Row> arm_rows,
        ExecuteSingle(*arm, outer, ctx, /*apply_order_limit=*/false));
    for (Row& r : arm_rows) rows.push_back(std::move(r));
  }
  if (!plan.union_all) {
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
    rows.erase(std::unique(rows.begin(), rows.end(),
                           [](const Row& a, const Row& b) {
                             return CompareRows(a, b) == 0;
                           }),
               rows.end());
  }
  if (!plan.union_order_positions.empty()) {
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const Row& a, const Row& b) {
                       for (const auto& [pos, asc] : plan.union_order_positions) {
                         int c = Value::Compare(a[static_cast<size_t>(pos)],
                                                b[static_cast<size_t>(pos)]);
                         if (c != 0) return asc ? c < 0 : c > 0;
                       }
                       return false;
                     });
  }
  if (plan.offset > 0 || plan.limit >= 0) {
    size_t begin = std::min(static_cast<size_t>(plan.offset), rows.size());
    size_t end =
        plan.limit >= 0
            ? std::min(begin + static_cast<size_t>(plan.limit), rows.size())
            : rows.size();
    std::vector<Row> window(std::make_move_iterator(rows.begin() + begin),
                            std::make_move_iterator(rows.begin() + end));
    rows = std::move(window);
  }
  return rows;
}

Result<std::vector<Row>> ExecuteQuery(CompiledQuery* query,
                                      const Storage& storage,
                                      ExecContext* ctx_out) {
  ExecContext local;
  ExecContext* ctx = ctx_out != nullptr ? ctx_out : &local;
  ctx->storage = &storage;
  ctx->query = query;
  ctx->subplan_cache.clear();
  Frame outer(static_cast<size_t>(query->num_refs), nullptr);
  return ExecuteBlock(*query->root, outer, ctx);
}

}  // namespace taurus
