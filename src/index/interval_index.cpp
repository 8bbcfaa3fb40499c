#include "index/interval_index.h"

#include <algorithm>

namespace temporadb {

IntervalIndex::IntervalIndex(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  std::erase_if(entries_, [](const Entry& e) { return e.period.IsEmpty(); });
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              if (a.period.begin() != b.period.begin()) {
                return a.period.begin() < b.period.begin();
              }
              return a.id < b.id;
            });
  max_end_.resize(entries_.size());
  BuildMaxEnd(0, entries_.size());
}

Chronon IntervalIndex::BuildMaxEnd(size_t lo, size_t hi) {
  if (lo >= hi) return Chronon::Beginning();
  const size_t mid = lo + (hi - lo) / 2;
  const Chronon end = std::max({entries_[mid].period.end(),
                                BuildMaxEnd(lo, mid),
                                BuildMaxEnd(mid + 1, hi)});
  max_end_[mid] = end;
  return end;
}

}  // namespace temporadb
