#include "rel/join.h"

#include <optional>
#include <unordered_map>

#include "rel/operators.h"

namespace temporadb {

Result<Rowset> NestedLoopJoin(const Rowset& a, const Rowset& b,
                              const Expr& pred) {
  TDB_ASSIGN_OR_RETURN(Rowset product, CrossProduct(a, b));
  return Select(product, pred);
}

namespace {

struct KeyHash {
  size_t operator()(const std::vector<Value>& key) const {
    size_t h = 1469598103934665603ULL;
    for (const Value& v : key) {
      h ^= v.Hash();
      h *= 1099511628211ULL;
    }
    return h;
  }
};

std::vector<Value> KeyOf(const Row& row, const std::vector<size_t>& keys) {
  std::vector<Value> key;
  key.reserve(keys.size());
  for (size_t k : keys) key.push_back(row.values[k]);
  return key;
}

}  // namespace

Result<Rowset> HashEquiJoin(const Rowset& a, const Rowset& b,
                            const std::vector<size_t>& keys_a,
                            const std::vector<size_t>& keys_b) {
  if (keys_a.size() != keys_b.size() || keys_a.empty()) {
    return Status::InvalidArgument("equi-join key lists must match");
  }
  for (size_t k : keys_a) {
    if (k >= a.schema().size()) {
      return Status::InvalidArgument("left join key out of range");
    }
  }
  for (size_t k : keys_b) {
    if (k >= b.schema().size()) {
      return Status::InvalidArgument("right join key out of range");
    }
  }
  TDB_ASSIGN_OR_RETURN(
      TemporalClass cls,
      ProductClass(a.temporal_class(), b.temporal_class(), "equi-join"));
  Rowset out(a.schema().Concat(b.schema()), cls);

  // Build on the smaller side.
  const bool build_left = a.size() <= b.size();
  const Rowset& build = build_left ? a : b;
  const Rowset& probe = build_left ? b : a;
  const std::vector<size_t>& build_keys = build_left ? keys_a : keys_b;
  const std::vector<size_t>& probe_keys = build_left ? keys_b : keys_a;

  // Buckets hold build rows in insertion (= ascending) order, so pairs come
  // out probe row first, then bucket order.
  std::unordered_map<std::vector<Value>, std::vector<const Row*>, KeyHash>
      table;
  for (const Row& row : build.rows()) {
    table[KeyOf(row, build_keys)].push_back(&row);
  }
  for (const Row& probe_row : probe.rows()) {
    auto it = table.find(KeyOf(probe_row, probe_keys));
    if (it == table.end()) continue;
    for (const Row* build_row : it->second) {
      std::optional<Row> pair =
          build_left ? PairRows(*build_row, probe_row, cls)
                     : PairRows(probe_row, *build_row, cls);
      if (pair.has_value()) TDB_RETURN_IF_ERROR(out.AddRow(std::move(*pair)));
    }
  }
  return out;
}

}  // namespace temporadb
