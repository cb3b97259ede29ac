#ifndef TAURUS_EXEC_EXEC_INTERNAL_H_
#define TAURUS_EXEC_EXEC_INTERNAL_H_

// Internals shared between the row-at-a-time Volcano executor
// (block_executor.cc) and the vectorized batch executor
// (batch_executor.cc): the iterator interface, the hash-join build
// machinery (one Volcano build, probed by either engine), and the
// driving-path helpers. Not part of the public executor API.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/exec_context.h"
#include "exec/frame.h"
#include "exec/physical_plan.h"

namespace taurus {

/// Returns the ref_ids of all leaves under a physical subtree.
std::vector<int> SubtreeRefs(const PhysOp& op);

void ClearSlots(Frame* frame, const std::vector<int>& refs);

/// Row-at-a-time (Volcano) iterator over a PhysOp subtree.
class FrameIter {
 public:
  virtual ~FrameIter() = default;
  /// (Re)positions the iterator at the start. The frame carries the current
  /// outer bindings; index lookups and correlated derived tables read them
  /// here (a re-Open with new bindings is a "rebind").
  virtual Status Open(Frame* frame, ExecContext* ctx) = 0;
  /// Advances; on success fills this subtree's slots in `frame`.
  virtual Result<bool> Next(Frame* frame, ExecContext* ctx) = 0;
};

/// Static (per-plan-node) hash join shape: which child builds, which slots
/// the build side populates, and the key expressions on each side.
struct HashJoinLayout {
  bool build_is_left = false;
  std::vector<int> build_refs;
  std::vector<const Expr*> build_keys;
  std::vector<const Expr*> probe_keys;
};

/// Convention: the build side is the right child — except for INNER hash
/// joins, where (matching the MySQL quirk the paper reports in Section 7
/// item 2) the BUILD side is the LEFT child and the probe side the right.
HashJoinLayout MakeHashJoinLayout(const PhysOp& op);

/// The sketchable stream key of one hash-join side ("" when the side is
/// not a single leaf joined on one plain column — see DESIGN.md §11).
std::string SketchStreamKey(const PhysOp& side,
                            const std::vector<const Expr*>& keys);

/// The materialized build side of a hash join. Built once (serially), then
/// probed — possibly by many workers concurrently, which is safe because
/// probing never mutates it.
struct HashJoinShared {
  struct Entry {
    Row key;
    OwnedFrame frame;  ///< only the build subtree's slots (narrowed copy)
  };
  std::unordered_multimap<uint64_t, size_t> table;
  std::vector<Entry> entries;
};

/// Drains `build` into `out` (NULL keys skipped, AGMS build stream fed).
Status FillHashJoinState(const PhysOp& op, const HashJoinLayout& layout,
                         FrameIter* build, Frame* frame, ExecContext* ctx,
                         HashJoinShared* out);

/// The probe/driving child a pipeline descends through (null for leaves).
const PhysOp* DrivingChild(const PhysOp& op);

/// The driving TableScan of an eligible pipeline (null defensively).
const PhysOp* FindDriverScan(const PhysOp* op);

/// Hash-join build sides along the driving path, materialized once on the
/// main thread and probed read-only by all workers.
struct PipelineShared {
  std::unordered_map<const PhysOp*, HashJoinShared> hash_states;
};

class TableScanIter;

/// Builds the row-at-a-time (Volcano) iterator tree for `op`. With `shared`
/// (a morsel worker's clone), hash joins on the driving path probe its
/// prebuilt states and `driver` receives the driving scan, which the worker
/// repositions per morsel. Hash-join build sides and nested-loop inner sides
/// are always built plain.
std::unique_ptr<FrameIter> BuildIter(const PhysOp* op, ExecContext* ctx,
                                     const PipelineShared* shared = nullptr,
                                     TableScanIter** driver = nullptr);

}  // namespace taurus

#endif  // TAURUS_EXEC_EXEC_INTERNAL_H_
