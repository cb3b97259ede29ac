#ifndef TAURUS_STORAGE_ORDERED_INDEX_H_
#define TAURUS_STORAGE_ORDERED_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "types/value.h"

namespace taurus {

/// An ordered (B-tree-like) index: a sorted array of (key, row id) entries
/// supporting point lookups, key-prefix lookups and range scans. Built once
/// after bulk load, which matches the read-only benchmark workloads. The
/// sorted-array representation has the same asymptotics as a B-tree for
/// lookups (O(log n) + sequential leaf scan) and keeps the cost model's
/// random-vs-sequential distinction meaningful.
class OrderedIndex {
 public:
  /// One index entry: the key column values and the base-table row id.
  struct Entry {
    Row key;
    uint32_t row_id;
  };

  OrderedIndex(const IndexDef* def) : def_(def) {}  // NOLINT: internal type

  const IndexDef& def() const { return *def_; }
  size_t NumEntries() const { return entries_.size(); }
  const Entry& entry(size_t i) const { return entries_[i]; }

  /// Bulk-builds the index from `rows`.
  void Build(const std::vector<Row>& rows);

  /// Returns the [begin, end) entry range whose first key columns equal
  /// `prefix` (prefix.size() <= number of key columns). This is the "ref"
  /// access path MySQL uses for index lookups under nested-loop joins.
  std::pair<size_t, size_t> EqualRange(const Row& prefix) const;

  /// Returns the [begin, end) range of entries whose first key column lies
  /// in [lo, hi] with the given inclusivities. Null pointers mean
  /// unbounded. As in SQL comparisons, a bound whose value is NULL gives an
  /// empty range and a NULL key lies in no range.
  std::pair<size_t, size_t> Range(const Value* lo, bool lo_inclusive,
                                  const Value* hi, bool hi_inclusive) const;

 private:
  /// Lexicographic compare of the first `prefix_len` key columns.
  static int ComparePrefix(const Row& key, const Row& prefix);

  const IndexDef* def_;
  std::vector<Entry> entries_;
};

}  // namespace taurus

#endif  // TAURUS_STORAGE_ORDERED_INDEX_H_
