#include "index/btree.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace temporadb {

namespace {

// First position whose key is >= `key`.
size_t LowerBound(const std::vector<Value>& keys, const Value& key) {
  return static_cast<size_t>(
      std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
}

// First position whose key is > `key`.
size_t UpperBound(const std::vector<Value>& keys, const Value& key) {
  return static_cast<size_t>(
      std::upper_bound(keys.begin(), keys.end(), key) - keys.begin());
}

}  // namespace

void BTreeIndex::SplitChild(Node* parent, size_t idx) {
  Node* child = parent->children[idx].get();
  auto right = std::make_unique<Node>();
  right->leaf = child->leaf;
  size_t mid = child->keys.size() / 2;

  if (child->leaf) {
    // Leaf split: right gets keys[mid..]; the separator is right's first key
    // (B+-tree: separators are copies, data stays in leaves).
    right->keys.assign(child->keys.begin() + mid, child->keys.end());
    right->postings.assign(child->postings.begin() + mid,
                           child->postings.end());
    child->keys.resize(mid);
    child->postings.resize(mid);
    parent->keys.insert(parent->keys.begin() + idx, right->keys.front());
    parent->children.insert(parent->children.begin() + idx + 1,
                            std::move(right));
  } else {
    // Internal split: the middle key moves up.
    Value up = child->keys[mid];
    right->keys.assign(child->keys.begin() + mid + 1, child->keys.end());
    for (size_t i = mid + 1; i < child->children.size(); ++i) {
      right->children.push_back(std::move(child->children[i]));
    }
    child->keys.resize(mid);
    child->children.resize(mid + 1);
    parent->keys.insert(parent->keys.begin() + idx, std::move(up));
    parent->children.insert(parent->children.begin() + idx + 1,
                            std::move(right));
  }
}

void BTreeIndex::InsertNonFull(Node* node, const Value& key, RowId row) {
  while (true) {
    if (node->leaf) {
      size_t pos = LowerBound(node->keys, key);
      if (pos < node->keys.size() && node->keys[pos] == key) {
        node->postings[pos].push_back(row);
      } else {
        node->keys.insert(node->keys.begin() + pos, key);
        node->postings.insert(node->postings.begin() + pos, {row});
      }
      return;
    }
    size_t pos = LowerBound(node->keys, key);
    // Descend right of equal separators: child i holds the keys in
    // [keys[i-1], keys[i]).
    if (pos < node->keys.size() && node->keys[pos] == key) ++pos;
    Node* child = node->children[pos].get();
    if (child->keys.size() >= kOrder) {
      SplitChild(node, pos);
      if (key < node->keys[pos]) {
        child = node->children[pos].get();
      } else {
        child = node->children[pos + 1].get();
      }
    }
    node = child;
  }
}

void BTreeIndex::Insert(const Value& key, RowId row) {
  if (!root_) {
    root_ = std::make_unique<Node>();
  }
  if (root_->keys.size() >= kOrder) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->children.push_back(std::move(root_));
    SplitChild(new_root.get(), 0);
    root_ = std::move(new_root);
  }
  InsertNonFull(root_.get(), key, row);
  ++size_;
}

const BTreeIndex::Node* BTreeIndex::FindLeaf(const Value& key) const {
  const Node* node = root_.get();
  if (node == nullptr) return nullptr;
  while (!node->leaf) {
    size_t pos = LowerBound(node->keys, key);
    if (pos < node->keys.size() && node->keys[pos] == key) ++pos;
    node = node->children[pos].get();
  }
  return node;
}

Status BTreeIndex::Remove(const Value& key, RowId row) {
  // Lazy deletion: postings shrink, empty keys are erased from their leaf,
  // but nodes are not rebalanced.  Index rebuilds happen at checkpoint.
  Node* node = const_cast<Node*>(FindLeaf(key));
  if (node == nullptr) return Status::NotFound("empty index");
  size_t pos = LowerBound(node->keys, key);
  if (pos >= node->keys.size() || !(node->keys[pos] == key)) {
    return Status::NotFound("key not in index");
  }
  auto& rows = node->postings[pos];
  auto it = std::find(rows.begin(), rows.end(), row);
  if (it == rows.end()) return Status::NotFound("row not in postings");
  rows.erase(it);
  if (rows.empty()) {
    node->keys.erase(node->keys.begin() + pos);
    node->postings.erase(node->postings.begin() + pos);
  }
  --size_;
  return Status::OK();
}

bool BTreeIndex::ForEachInRange(
    const std::optional<KeyBound>& lo, const std::optional<KeyBound>& hi,
    const std::function<bool(const Value&, const std::vector<RowId>&)>& fn)
    const {
  return root_ == nullptr || WalkRange(root_.get(), lo, hi, fn);
}

bool BTreeIndex::WalkRange(
    const Node* node, const std::optional<KeyBound>& lo,
    const std::optional<KeyBound>& hi,
    const std::function<bool(const Value&, const std::vector<RowId>&)>& fn)
    const {
  const std::vector<Value>& keys = node->keys;
  if (!node->leaf) {
    // Child i holds the keys in [keys[i-1], keys[i]): visit the children
    // from the one that would hold `lo` to the one that would hold `hi`.
    // Stale separators (lazy deletion) only widen the walk.
    const size_t first = lo.has_value() ? UpperBound(keys, lo->value) : 0;
    const size_t last =
        hi.has_value() ? UpperBound(keys, hi->value) : keys.size();
    for (size_t i = first; i <= last && i < node->children.size(); ++i) {
      if (!WalkRange(node->children[i].get(), lo, hi, fn)) return false;
    }
    return true;
  }
  size_t i = 0;
  if (lo.has_value()) {
    i = lo->inclusive ? LowerBound(keys, lo->value)
                      : UpperBound(keys, lo->value);
  }
  for (; i < keys.size(); ++i) {
    const Value& k = keys[i];
    if (hi.has_value() &&
        (hi->inclusive ? hi->value < k : !(k < hi->value))) {
      break;
    }
    if (!fn(k, node->postings[i])) return false;
  }
  return true;
}

int BTreeIndex::height() const {
  int h = 0;
  const Node* node = root_.get();
  while (node != nullptr) {
    ++h;
    node = node->leaf ? nullptr : node->children.front().get();
  }
  return h;
}

Status BTreeIndex::CheckInvariants() const {
  if (!root_) return Status::OK();
  // Recursively check sortedness against the separators, child/key arity,
  // and count the postings.
  size_t counted = 0;
  std::function<Status(const Node*, const Value*, const Value*)> check =
      [&](const Node* node, const Value* lo, const Value* hi) -> Status {
    for (size_t i = 0; i + 1 < node->keys.size(); ++i) {
      if (node->keys[i + 1] < node->keys[i]) {
        return Status::Internal("keys out of order");
      }
    }
    for (const Value& k : node->keys) {
      if (lo != nullptr && k < *lo) return Status::Internal("key below bound");
      if (hi != nullptr && *hi < k) return Status::Internal("key above bound");
    }
    if (!node->leaf) {
      if (node->children.size() != node->keys.size() + 1) {
        return Status::Internal("internal node arity mismatch");
      }
      if (!node->postings.empty()) {
        return Status::Internal("internal node has postings");
      }
      for (size_t i = 0; i < node->children.size(); ++i) {
        const Value* clo = i == 0 ? lo : &node->keys[i - 1];
        const Value* chi = i == node->keys.size() ? hi : &node->keys[i];
        TDB_RETURN_IF_ERROR(check(node->children[i].get(), clo, chi));
      }
    } else {
      if (node->postings.size() != node->keys.size()) {
        return Status::Internal("leaf postings arity mismatch");
      }
      for (const std::vector<RowId>& rows : node->postings) {
        counted += rows.size();
      }
    }
    return Status::OK();
  };
  TDB_RETURN_IF_ERROR(check(root_.get(), nullptr, nullptr));
  if (counted != size_) {
    return Status::Internal("size counter does not match postings");
  }
  return Status::OK();
}

}  // namespace temporadb
