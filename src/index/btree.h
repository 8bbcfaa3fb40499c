#ifndef TEMPORADB_INDEX_BTREE_H_
#define TEMPORADB_INDEX_BTREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace temporadb {

/// An in-memory B+-tree mapping attribute `Value`s to row-id postings.
///
/// Keys are ordered by `Value`'s total order; duplicates are supported (a
/// key holds a postings vector, in insertion order).  Used for equality
/// probes on explicit attributes; the temporal dimensions use
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

  /// All rows with exactly this key.
  std::vector<RowId> Lookup(const Value& key) const;

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

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace temporadb

#endif  // TEMPORADB_INDEX_BTREE_H_
