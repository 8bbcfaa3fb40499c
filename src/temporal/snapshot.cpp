#include "temporal/snapshot.h"

#include <algorithm>
#include <functional>
#include <set>

namespace temporadb {

namespace {

// Calls `fn` on every version the head-pin sweep selects under `preds`.
void ForEachSelected(const VersionStore& store, const BatchPredicates& preds,
                     const std::function<void(const BitemporalTuple&)>& fn) {
  VersionBatchScan scan = store.BatchScan(store.HeadPin(), preds);
  VersionBatch batch;
  while (scan.Next(&batch)) {
    for (const BitemporalTuple* tuple : batch.tuples) fn(*tuple);
  }
}

// The stored state as of transaction time `t`.
void ForEachAsOf(const VersionStore& store, Chronon t,
                 const std::function<void(const BitemporalTuple&)>& fn) {
  BatchPredicates preds;
  preds.txn_contains = t;
  ForEachSelected(store, preds, fn);
}

}  // namespace

StaticState RollbackSlice(const VersionStore& store, Chronon t) {
  StaticState state;
  state.at = t;
  ForEachAsOf(store, t, [&](const BitemporalTuple& tuple) {
    state.rows.push_back(tuple.values);
  });
  std::sort(state.rows.begin(), state.rows.end());
  return state;
}

StaticState ValidTimeslice(const VersionStore& store, Chronon v) {
  StaticState state;
  state.at = v;
  // Only the current stored state participates; superseded versions of a
  // temporal relation belong to past states.
  BatchPredicates preds;
  preds.txn_current = true;
  preds.valid_overlaps = Period::At(v);
  ForEachSelected(store, preds, [&](const BitemporalTuple& tuple) {
    state.rows.push_back(tuple.values);
  });
  std::sort(state.rows.begin(), state.rows.end());
  return state;
}

HistoricalState HistoricalStateAsOf(const VersionStore& store, Chronon t) {
  HistoricalState state;
  state.at = t;
  ForEachAsOf(store, t, [&](const BitemporalTuple& tuple) {
    state.rows.push_back(tuple);
  });
  std::sort(state.rows.begin(), state.rows.end(),
            [](const BitemporalTuple& a, const BitemporalTuple& b) {
              if (a.values != b.values) return a.values < b.values;
              return a.valid.begin() < b.valid.begin();
            });
  return state;
}

std::vector<Chronon> TransactionBoundaries(const VersionStore& store) {
  std::set<Chronon> boundaries;
  store.ForEach([&](RowId, const BitemporalTuple& t) {
    if (t.txn.begin().IsFinite()) boundaries.insert(t.txn.begin());
    if (t.txn.end().IsFinite()) boundaries.insert(t.txn.end());
  });
  return std::vector<Chronon>(boundaries.begin(), boundaries.end());
}

std::vector<Chronon> ValidBoundaries(const VersionStore& store) {
  std::set<Chronon> boundaries;
  store.ForEach([&](RowId, const BitemporalTuple& t) {
    if (!t.IsCurrentState()) return;  // Slice the current knowledge only.
    if (t.valid.begin().IsFinite()) boundaries.insert(t.valid.begin());
    if (t.valid.end().IsFinite()) boundaries.insert(t.valid.end());
  });
  return std::vector<Chronon>(boundaries.begin(), boundaries.end());
}

std::vector<StaticState> RollbackStates(const VersionStore& store) {
  std::vector<StaticState> states;
  for (Chronon t : TransactionBoundaries(store)) {
    states.push_back(RollbackSlice(store, t));
  }
  return states;
}

std::vector<StaticState> HistoricalSlices(const VersionStore& store) {
  std::vector<StaticState> slices;
  for (Chronon v : ValidBoundaries(store)) {
    slices.push_back(ValidTimeslice(store, v));
  }
  return slices;
}

std::vector<HistoricalState> TemporalStates(const VersionStore& store) {
  std::vector<HistoricalState> states;
  for (Chronon t : TransactionBoundaries(store)) {
    states.push_back(HistoricalStateAsOf(store, t));
  }
  return states;
}

}  // namespace temporadb
