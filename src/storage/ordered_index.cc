#include "storage/ordered_index.h"

#include <algorithm>

namespace taurus {

int OrderedIndex::ComparePrefix(const Row& key, const Row& prefix) {
  size_t n = std::min(key.size(), prefix.size());
  for (size_t i = 0; i < n; ++i) {
    int c = Value::Compare(key[i], prefix[i]);
    if (c != 0) return c;
  }
  return 0;  // equal on the shared prefix
}

void OrderedIndex::Build(const std::vector<Row>& rows) {
  entries_.clear();
  entries_.reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    Entry e;
    e.key.reserve(def_->column_idx.size());
    for (int c : def_->column_idx) {
      e.key.push_back(rows[r][static_cast<size_t>(c)]);
    }
    e.row_id = static_cast<uint32_t>(r);
    entries_.push_back(std::move(e));
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              size_t n = std::min(a.key.size(), b.key.size());
              for (size_t i = 0; i < n; ++i) {
                int c = Value::Compare(a.key[i], b.key[i]);
                if (c != 0) return c < 0;
              }
              return a.row_id < b.row_id;
            });
}

std::pair<size_t, size_t> OrderedIndex::EqualRange(const Row& prefix) const {
  auto lo = std::lower_bound(
      entries_.begin(), entries_.end(), prefix,
      [](const Entry& e, const Row& p) { return ComparePrefix(e.key, p) < 0; });
  auto hi = std::upper_bound(
      entries_.begin(), entries_.end(), prefix,
      [](const Row& p, const Entry& e) { return ComparePrefix(e.key, p) > 0; });
  return {static_cast<size_t>(lo - entries_.begin()),
          static_cast<size_t>(hi - entries_.begin())};
}

std::pair<size_t, size_t> OrderedIndex::Range(const Value* lo,
                                              bool lo_inclusive,
                                              const Value* hi,
                                              bool hi_inclusive) const {
  // SQL comparison semantics: a NULL bound matches nothing, and a NULL key
  // satisfies no bound (NULL keys sort first, so an open low end starts
  // past them).
  if ((lo != nullptr && lo->is_null()) || (hi != nullptr && hi->is_null())) {
    return {0, 0};
  }
  size_t begin = static_cast<size_t>(
      std::partition_point(entries_.begin(), entries_.end(),
                           [](const Entry& e) { return e.key[0].is_null(); }) -
      entries_.begin());
  size_t end = entries_.size();
  if (lo != nullptr) {
    begin = static_cast<size_t>(
        std::partition_point(entries_.begin(), entries_.end(),
                             [&](const Entry& e) {
                               int c = Value::Compare(e.key[0], *lo);
                               return lo_inclusive ? c < 0 : c <= 0;
                             }) -
        entries_.begin());
  }
  if (hi != nullptr) {
    end = static_cast<size_t>(
        std::partition_point(entries_.begin(), entries_.end(),
                             [&](const Entry& e) {
                               int c = Value::Compare(e.key[0], *hi);
                               return hi_inclusive ? c <= 0 : c < 0;
                             }) -
        entries_.begin());
  }
  if (end < begin) end = begin;
  return {begin, end};
}

}  // namespace taurus
