#ifndef TAURUS_EXEC_BATCH_EXECUTOR_H_
#define TAURUS_EXEC_BATCH_EXECUTOR_H_

// Vectorized (batch-at-a-time) execution over the same physical plans the
// Volcano executor runs. Operators pull column-major Batches of up to
// ExecContext::batch_size rows; filters shrink the selection vector in
// place, and hash-join probes hash whole key vectors against the shared
// build state. A block's driving pipeline runs here exactly when refine
// marked it BlockPlan::batch_eligible; everything else runs row-at-a-time.
// See DESIGN.md section 13.

#include <memory>

#include "exec/batch.h"
#include "exec/exec_internal.h"

namespace taurus {

/// A vectorized operator. The contract differs from FrameIter in two ways:
/// NextBatch never returns a batch with an empty selection (operators loop
/// internally past fully filtered blocks), and nullptr means end of stream.
/// A returned Batch stays valid until the next NextBatch/Open call on the
/// same operator.
class BatchOp {
 public:
  virtual ~BatchOp() = default;
  /// (Re)positions at the start; `frame` carries the outer bindings and
  /// becomes the base frame of every batch this operator emits.
  virtual Status Open(Frame* frame, ExecContext* ctx) = 0;
  virtual Result<Batch*> NextBatch(ExecContext* ctx) = 0;
};

/// The batch-native driving scan, exposed so the morsel executor can
/// reposition worker-private chains with SetRange + Open per morsel
/// (mirroring TableScanIter).
class BatchTableScan : public BatchOp {
 public:
  explicit BatchTableScan(const PhysOp* op) : op_(op) {}

  void SetRange(size_t begin, size_t end) {
    ranged_ = true;
    range_begin_ = begin;
    range_end_ = end;
  }

  const PhysOp* Op() const { return op_; }

  Status Open(Frame* frame, ExecContext* ctx) override;
  Result<Batch*> NextBatch(ExecContext* ctx) override;

 private:
  const PhysOp* op_;
  const TableData* data_ = nullptr;
  size_t pos_ = 0;
  size_t end_ = 0;
  bool ranged_ = false;
  size_t range_begin_ = 0, range_end_ = 0;
  int64_t cap_ = 1;
  Batch batch_;
};

/// Builds the vectorized chain over `op`'s driving path, mirroring
/// BuildIter: serial hash-join probes (shared == nullptr) build their own
/// state per Open from a Volcano build side; a morsel worker's probes
/// (`shared` set) read the prebuilt states, and `driver` receives the
/// repositionable driving scan. Returns null when an operator on the path
/// is not batch-native (PhysOp::batch_native, decided at refine time).
std::unique_ptr<BatchOp> BuildBatchChain(const PhysOp* op, ExecContext* ctx,
                                         const PipelineShared* shared = nullptr,
                                         BatchTableScan** driver = nullptr);

}  // namespace taurus

#endif  // TAURUS_EXEC_BATCH_EXECUTOR_H_
