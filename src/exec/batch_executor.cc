#include "exec/batch_executor.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "exec/expr_eval.h"
#include "exec/vector_ops.h"
#include "types/value.h"

namespace taurus {
namespace {

/// Scoped actuals recorder for batch operators: same semantics as the
/// Volcano AnalyzeIter wrapper (inclusive wall time, one loop per Open,
/// one row per emitted selection entry), keyed by the same PhysOp address,
/// so EXPLAIN ANALYZE output is indistinguishable between the two engines.
class OpTimer {
 public:
  OpTimer(const PhysOp* op, ExecContext* ctx) {
    if (ctx->op_actuals != nullptr) {
      actual_ = &ctx->op_actuals->At(op);
      clock_ = ctx->analyze_clock;
      t0_ = clock_->NowMs();
    }
  }

  void RecordOpen() {
    if (actual_ == nullptr) return;
    ++actual_->loops;
    actual_->time_ms += clock_->NowMs() - t0_;
  }

  void RecordRows(int64_t rows) {
    if (actual_ == nullptr) return;
    actual_->rows += rows;
    actual_->time_ms += clock_->NowMs() - t0_;
  }

 private:
  OpActual* actual_ = nullptr;
  const Clock* clock_ = nullptr;
  double t0_ = 0.0;
};

/// Vectorized kFilter: pulls child batches and shrinks their selection in
/// place, looping past fully filtered blocks (NextBatch never returns an
/// empty selection).
class BatchFilter : public BatchOp {
 public:
  BatchFilter(const PhysOp* op, std::unique_ptr<BatchOp> child)
      : op_(op), child_(std::move(child)) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    OpTimer t(op_, ctx);
    TAURUS_RETURN_IF_ERROR(child_->Open(frame, ctx));
    t.RecordOpen();
    return Status::OK();
  }

  Result<Batch*> NextBatch(ExecContext* ctx) override {
    OpTimer t(op_, ctx);
    while (true) {
      TAURUS_ASSIGN_OR_RETURN(Batch* b, child_->NextBatch(ctx));
      if (b == nullptr) {
        t.RecordRows(0);
        return nullptr;
      }
      TAURUS_RETURN_IF_ERROR(FilterBatch(op_->conds, b, ctx));
      if (!b->sel.empty()) {
        t.RecordRows(static_cast<int64_t>(b->sel.size()));
        return b;
      }
    }
  }

 private:
  const PhysOp* op_;
  std::unique_ptr<BatchOp> child_;
};

/// Vectorized hash-join probe over the same HashJoinShared build state the
/// Volcano iterator uses. Probe keys are evaluated as whole vectors and
/// hashed in bulk; candidate emission is resumable so output batches stay
/// bounded by ctx->batch_size even through high-fanout keys. Covers
/// inner/cross (residual conds applied as a post-emit FilterBatch — order
/// preserving, so results are bit-identical) and left joins without
/// residual conds (a row matched iff its candidate list is nonempty).
class BatchHashJoinProbe : public BatchOp {
 public:
  /// Serial form passes `build_iter` (own state rebuilt per Open); worker
  /// form passes `shared` (prebuilt read-only state).
  BatchHashJoinProbe(const PhysOp* op, std::unique_ptr<BatchOp> child,
                     std::unique_ptr<FrameIter> build_iter,
                     const HashJoinShared* shared)
      : op_(op),
        layout_(MakeHashJoinLayout(*op)),
        probe_refs_(
            SubtreeRefs(layout_.build_is_left ? *op->right : *op->child)),
        child_(std::move(child)),
        build_iter_(std::move(build_iter)),
        shared_(shared) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    OpTimer t(op_, ctx);
    if (shared_ == nullptr) {
      TAURUS_RETURN_IF_ERROR(FillHashJoinState(
          *op_, layout_, build_iter_.get(), frame, ctx, &own_state_));
    } else {
      ClearSlots(frame, layout_.build_refs);
    }
    // Probe-side Fast-AGMS stream: same gating and ownership rules as the
    // Volcano HashJoinIter (serial pipelines only; this instance owns the
    // stream). Updates are fed batch-at-a-time in PrepareInput — sketch
    // folds are order-independent, so the stream digests to the same state
    // as the row-interleaved path.
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
    TAURUS_RETURN_IF_ERROR(child_->Open(frame, ctx));
    out_.Reset(frame->size(), frame);
    for (int r : probe_refs_) out_.Activate(r);
    for (int r : layout_.build_refs) out_.Activate(r);
    cap_ = std::max<int64_t>(1, ctx->batch_size);
    in_ = nullptr;
    in_pos_ = 0;
    row_ready_ = false;
    t.RecordOpen();
    return Status::OK();
  }

  Result<Batch*> NextBatch(ExecContext* ctx) override {
    OpTimer t(op_, ctx);
    while (true) {
      ResetOut();
      TAURUS_ASSIGN_OR_RETURN(bool more, FillOut(ctx));
      if (!op_->conds.empty() && !out_.sel.empty()) {
        TAURUS_RETURN_IF_ERROR(FilterBatch(op_->conds, &out_, ctx));
      }
      if (!out_.sel.empty()) {
        t.RecordRows(static_cast<int64_t>(out_.sel.size()));
        return &out_;
      }
      if (!more) {
        t.RecordRows(0);
        return nullptr;
      }
    }
  }

 private:
  void ResetOut() {
    for (int r : probe_refs_) out_.cols[static_cast<size_t>(r)].clear();
    for (int r : layout_.build_refs) out_.cols[static_cast<size_t>(r)].clear();
    out_.sel.clear();
    out_.size = 0;
  }

  /// Evaluates the key vectors, null map, bulk hashes (replicating
  /// HashRow's combine exactly) and the probe-side sketch updates for the
  /// freshly pulled input batch.
  Status PrepareInput(ExecContext* ctx) {
    const size_t n = in_->sel.size();
    const size_t nk = layout_.probe_keys.size();
    keys_.resize(nk);
    for (size_t k = 0; k < nk; ++k) {
      TAURUS_RETURN_IF_ERROR(
          EvalExprBatch(*layout_.probe_keys[k], *in_, ctx, &keys_[k]));
    }
    null_key_.assign(n, 0);
    hashes_.assign(n, 0x9e3779b97f4a7c15ULL);
    for (size_t k = 0; k < nk; ++k) {
      const std::vector<Value>& col = keys_[k];
      for (size_t i = 0; i < n; ++i) {
        if (col[i].is_null()) null_key_[i] = 1;
        hashes_[i] = HashCombine(hashes_[i], col[i].Hash());
      }
    }
    if (probe_sketch_ != nullptr && nk > 0) {
      for (size_t i = 0; i < n; ++i) {
        if (null_key_[i] == 0) probe_sketch_->Update(keys_[0][i].Hash());
      }
    }
    return Status::OK();
  }

  /// Fills the output batch up to cap_. Returns false when the probe input
  /// is exhausted (a partially filled output may still need emitting).
  Result<bool> FillOut(ExecContext* ctx) {
    const HashJoinShared& state = shared_ != nullptr ? *shared_ : own_state_;
    const JoinType jt = op_->join_type;
    while (static_cast<int64_t>(out_.size) < cap_) {
      if (in_ == nullptr) {
        TAURUS_ASSIGN_OR_RETURN(Batch* nb, child_->NextBatch(ctx));
        if (nb == nullptr) return false;
        in_ = nb;
        in_pos_ = 0;
        row_ready_ = false;
        TAURUS_RETURN_IF_ERROR(PrepareInput(ctx));
      }
      if (in_pos_ >= in_->sel.size()) {
        in_ = nullptr;
        continue;
      }
      if (!row_ready_) {
        BuildCandidates(state);
        row_ready_ = true;
      }
      if (EmitCurrentRow(state, jt)) {
        ++in_pos_;
        row_ready_ = false;
      }
    }
    return true;
  }

  void BuildCandidates(const HashJoinShared& state) {
    candidates_.clear();
    cand_pos_ = 0;
    const size_t i = in_pos_;
    if (null_key_[i] != 0) return;
    auto [b, e] = state.table.equal_range(hashes_[i]);
    for (auto it = b; it != e; ++it) {
      const HashJoinShared::Entry& cand = state.entries[it->second];
      bool eq = true;
      for (size_t k = 0; k < keys_.size(); ++k) {
        if (Value::Compare(cand.key[k], keys_[k][i]) != 0) {
          eq = false;
          break;
        }
      }
      if (eq) candidates_.push_back(it->second);
    }
  }

  /// Emits the current probe row's remaining candidate pairs (or its
  /// NULL-extended row for an unmatched left probe). Returns true when the
  /// row is done. Precondition: the output batch has room for one row.
  bool EmitCurrentRow(const HashJoinShared& state, JoinType jt) {
    if (candidates_.empty()) {
      if (jt == JoinType::kLeft) EmitRow(nullptr);
      return true;  // inner/cross: unmatched probe rows vanish
    }
    while (cand_pos_ < candidates_.size()) {
      if (static_cast<int64_t>(out_.size) >= cap_) return false;
      EmitRow(&state.entries[candidates_[cand_pos_++]]);
    }
    return true;
  }

  /// Appends one output row: probe slots copied from the input batch,
  /// build slots restored from the entry (null = NULL-extended).
  void EmitRow(const HashJoinShared::Entry* entry) {
    const uint32_t prow = in_->sel[in_pos_];
    for (int r : probe_refs_) {
      const size_t slot = static_cast<size_t>(r);
      const Row* rp =
          in_->active[slot] != 0
              ? in_->cols[slot][prow]
              : (in_->base != nullptr ? (*in_->base)[slot] : nullptr);
      out_.cols[slot].push_back(rp);
    }
    for (int r : layout_.build_refs) {
      const size_t slot = static_cast<size_t>(r);
      const Row* rp = entry != nullptr && entry->frame.present[slot]
                          ? &entry->frame.rows[slot]
                          : nullptr;
      out_.cols[slot].push_back(rp);
    }
    out_.sel.push_back(static_cast<uint32_t>(out_.size));
    ++out_.size;
  }

  const PhysOp* op_;
  HashJoinLayout layout_;
  std::vector<int> probe_refs_;
  std::unique_ptr<BatchOp> child_;
  std::unique_ptr<FrameIter> build_iter_;   ///< serial form only
  const HashJoinShared* shared_ = nullptr;  ///< worker form only
  HashJoinShared own_state_;
  AgmsSketch* probe_sketch_ = nullptr;

  Batch out_;
  int64_t cap_ = 1;

  // Probe-input cursor state (survives across NextBatch calls).
  Batch* in_ = nullptr;
  size_t in_pos_ = 0;
  bool row_ready_ = false;
  std::vector<std::vector<Value>> keys_;  ///< per key expr, per sel entry
  std::vector<uint8_t> null_key_;
  std::vector<uint64_t> hashes_;
  std::vector<size_t> candidates_;
  size_t cand_pos_ = 0;
};

}  // namespace

Status BatchTableScan::Open(Frame* frame, ExecContext* ctx) {
  OpTimer t(op_, ctx);
  data_ = ctx->storage->Get(op_->leaf->table->id);
  if (data_ == nullptr) {
    return Status::Internal("no storage for table " + op_->leaf->table_name);
  }
  pos_ = ranged_ ? range_begin_ : 0;
  end_ = ranged_ ? std::min(range_end_, data_->NumRows()) : data_->NumRows();
  cap_ = std::max<int64_t>(1, ctx->batch_size);
  batch_.Reset(frame->size(), frame);
  batch_.Activate(op_->leaf->ref_id);
  t.RecordOpen();
  return Status::OK();
}

Result<Batch*> BatchTableScan::NextBatch(ExecContext* ctx) {
  OpTimer t(op_, ctx);
  const size_t slot = static_cast<size_t>(op_->leaf->ref_id);
  std::vector<const Row*>& col = batch_.cols[slot];
  while (pos_ < end_) {
    const size_t n = std::min(static_cast<size_t>(cap_), end_ - pos_);
    col.resize(n);
    for (size_t i = 0; i < n; ++i) col[i] = &data_->row(pos_ + i);
    pos_ += n;
    batch_.size = n;
    batch_.sel.resize(n);
    for (size_t i = 0; i < n; ++i) batch_.sel[i] = static_cast<uint32_t>(i);
    // Charged before the filters run, in scan order, so the row-budget
    // kill fires at the same global count as the row-at-a-time scan.
    TAURUS_RETURN_IF_ERROR(ctx->ChargeScannedRows(static_cast<int64_t>(n)));
    TAURUS_RETURN_IF_ERROR(FilterBatch(op_->filters, &batch_, ctx));
    if (!batch_.sel.empty()) {
      t.RecordRows(static_cast<int64_t>(batch_.sel.size()));
      return &batch_;
    }
  }
  t.RecordRows(0);
  return nullptr;
}

std::unique_ptr<BatchOp> BuildBatchChain(const PhysOp* op, ExecContext* ctx,
                                         const PipelineShared* shared,
                                         BatchTableScan** driver) {
  if (!op->batch_native) return nullptr;
  if (op->kind == PhysOp::Kind::kTableScan) {
    auto scan = std::make_unique<BatchTableScan>(op);
    if (driver != nullptr) *driver = scan.get();
    return scan;
  }
  std::unique_ptr<BatchOp> child =
      BuildBatchChain(DrivingChild(*op), ctx, shared, driver);
  if (child == nullptr) return nullptr;
  if (op->kind == PhysOp::Kind::kFilter) {
    return std::make_unique<BatchFilter>(op, std::move(child));
  }
  if (shared != nullptr) {
    auto it = shared->hash_states.find(op);
    if (it == shared->hash_states.end()) return nullptr;
    return std::make_unique<BatchHashJoinProbe>(op, std::move(child), nullptr,
                                                &it->second);
  }
  const PhysOp* build_child =
      MakeHashJoinLayout(*op).build_is_left ? op->child.get() : op->right.get();
  return std::make_unique<BatchHashJoinProbe>(
      op, std::move(child), BuildIter(build_child, ctx), nullptr);
}

}  // namespace taurus
