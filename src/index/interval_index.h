#ifndef TEMPORADB_INDEX_INTERVAL_INDEX_H_
#define TEMPORADB_INDEX_INTERVAL_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/period.h"

namespace temporadb {

/// A static interval index over `Period`s: built once from (period, id)
/// entries, then only queried.  The entries are sorted by (begin, id), and
/// an implicit balanced tree over the sorted array — the node of a range
/// `[lo, hi)` is its midpoint — carries each subtree's maximum `end`, which
/// prunes subtrees that end before a query begins.
///
/// `Overlapping` reports every period intersecting a query period in
/// (begin, id) order in O(log n + k); a stab at chronon `t` is the query
/// `Period::At(t)`.  Empty periods are dropped at build time, so they are
/// never reported.  The evaluator builds one per keyless when-join step
/// over the step's candidates (tquel/evaluator.cpp).
class IntervalIndex {
 public:
  using Id = uint64_t;
  struct Entry {
    Period period;
    Id id = 0;
  };

  IntervalIndex() = default;
  explicit IntervalIndex(std::vector<Entry> entries);

  /// Calls `fn(period, id)` for every entry whose period overlaps `q`.
  template <typename Fn>
  void Overlapping(Period q, const Fn& fn) const {
    if (!q.IsEmpty()) Visit(0, entries_.size(), q, fn);
  }

  size_t size() const { return entries_.size(); }

 private:
  // Builds `max_end_` for the subtree of `[lo, hi)`; returns its maximum.
  Chronon BuildMaxEnd(size_t lo, size_t hi);

  // In-order walk of the subtree of `[lo, hi)`: left subtree, node, right
  // subtree (iterated, not recursed).
  template <typename Fn>
  void Visit(size_t lo, size_t hi, Period q, const Fn& fn) const {
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (max_end_[mid] <= q.begin()) return;  // Nothing ends after q begins.
      Visit(lo, mid, q, fn);
      const Entry& e = entries_[mid];
      // The node and everything right of it begin at or after e's begin.
      if (e.period.begin() >= q.end()) return;
      if (q.begin() < e.period.end()) fn(e.period, e.id);
      lo = mid + 1;
    }
  }

  std::vector<Entry> entries_;     // Non-empty periods, by (begin, id).
  std::vector<Chronon> max_end_;   // Max end of the subtree rooted at i.
};

}  // namespace temporadb

#endif  // TEMPORADB_INDEX_INTERVAL_INDEX_H_
