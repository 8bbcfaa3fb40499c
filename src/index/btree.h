#ifndef TEMPORADB_INDEX_BTREE_H_
#define TEMPORADB_INDEX_BTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace temporadb {

/// One end of a key range: `value`, which the range holds when `inclusive`.
struct KeyBound {
  Value value;
  bool inclusive = true;
};

/// An in-memory B+-tree mapping attribute `Value`s to row-id postings.
///
/// Keys are ordered by `Value`'s total order (null first); duplicates are
/// supported (a key holds a postings vector, in insertion order).  Used for
/// key-range probes on explicit attributes; the temporal dimensions use
/// `IntervalIndex`.
class BTreeIndex {
 public:
  using RowId = uint64_t;

  BTreeIndex() = default;
  BTreeIndex(const BTreeIndex&) = delete;
  BTreeIndex& operator=(const BTreeIndex&) = delete;

  /// Adds `row` under `key` (duplicates allowed).
  void Insert(const Value& key, RowId row);

  /// Removes one posting of `row` under `key`; NotFound if absent.
  Status Remove(const Value& key, RowId row);

  /// Calls `fn(key, postings)` for every stored key between `lo` and `hi`,
  /// in key order; an absent bound leaves its end open, and a point is
  /// `[v, v]`.  Stops as soon as `fn` returns false, and then returns
  /// false.
  bool ForEachInRange(
      const std::optional<KeyBound>& lo, const std::optional<KeyBound>& hi,
      const std::function<bool(const Value&, const std::vector<RowId>&)>& fn)
      const;

  size_t size() const { return size_; }

  /// Removes every entry (used when rebuilding after compaction).
  void Clear() {
    root_.reset();
    size_ = 0;
  }

  /// Tree height (1 = just a leaf); exposed for tests.
  int height() const;

  /// Validates B+-tree invariants (sortedness, arity, size); for tests.
  Status CheckInvariants() const;

 private:
  static constexpr int kOrder = 64;  // Max keys per node.

  struct Node {
    bool leaf = true;
    std::vector<Value> keys;
    // Internal: children.size() == keys.size() + 1.
    std::vector<std::unique_ptr<Node>> children;
    // Leaf: postings[i] are the rows for keys[i].
    std::vector<std::vector<RowId>> postings;
  };

  // Splits child `idx` of `parent`, which must be full.
  void SplitChild(Node* parent, size_t idx);
  void InsertNonFull(Node* node, const Value& key, RowId row);
  const Node* FindLeaf(const Value& key) const;
  bool WalkRange(
      const Node* node, const std::optional<KeyBound>& lo,
      const std::optional<KeyBound>& hi,
      const std::function<bool(const Value&, const std::vector<RowId>&)>& fn)
      const;

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace temporadb

#endif  // TEMPORADB_INDEX_BTREE_H_
