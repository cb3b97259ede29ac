#ifndef TAURUS_EXEC_BATCH_H_
#define TAURUS_EXEC_BATCH_H_

#include <cstdint>
#include <vector>

#include "exec/frame.h"

namespace taurus {

/// The unit of data flowing through the vectorized executor: a column-major
/// block of up to a few thousand Frame rows. Like a Frame, a Batch has one
/// slot per table-reference leaf (indexed by TableRef::ref_id); unlike a
/// Frame, an *active* slot holds a vector of row pointers — one per physical
/// batch position — so a whole block of rows moves per virtual call.
///
/// Row visibility is carried by an explicit selection vector: `sel` lists
/// the physical positions that are alive, in pipeline order. Filters shrink
/// `sel` in place without moving any row data (progressive selection shrink
/// = vectorized short-circuit AND); downstream operators iterate `sel`, not
/// [0, size). A null row pointer in an active slot means the slot is
/// NULL-extended for that row (outer-join semantics), exactly like a null
/// Frame slot.
///
/// Inactive slots fall through to `base`, the pipeline's outer-binding
/// frame, so correlated expressions evaluate against batches unchanged.
struct Batch {
  /// Per-slot row-pointer columns; only active slots are populated.
  std::vector<std::vector<const Row*>> cols;
  /// Which slots this pipeline fills (parallel to `cols`).
  std::vector<uint8_t> active;
  /// Selected physical positions, in pipeline row order.
  std::vector<uint32_t> sel;
  /// Physical rows filled in the active columns.
  size_t size = 0;
  /// Outer bindings for inactive slots (never null while executing).
  const Frame* base = nullptr;

  /// (Re)shapes the batch for a pipeline over `num_refs` leaves with the
  /// given outer bindings. Deactivates all slots; column capacity is kept
  /// when the shape is unchanged (morsel loops re-Open every morsel).
  void Reset(size_t num_refs, const Frame* base_frame) {
    if (cols.size() != num_refs) cols.assign(num_refs, {});
    active.assign(num_refs, 0);
    sel.clear();
    size = 0;
    base = base_frame;
  }

  /// Marks `ref` as produced by this pipeline.
  void Activate(int ref) { active[static_cast<size_t>(ref)] = 1; }

  size_t num_slots() const { return cols.size(); }

  /// Reconstitutes physical row `row` into `frame`: every active slot is
  /// overwritten (with null for NULL-extended rows); inactive slots keep
  /// whatever `frame` already holds (the outer bindings). Used by per-row
  /// fallbacks (subquery expressions, sort/group representative capture).
  void FillFrame(uint32_t row, Frame* frame) const {
    for (size_t s = 0; s < cols.size(); ++s) {
      if (active[s] != 0) (*frame)[s] = cols[s][row];
    }
  }
};

}  // namespace taurus

#endif  // TAURUS_EXEC_BATCH_H_
