#ifndef TEMPORADB_TESTS_RELATION_TEST_UTIL_H_
#define TEMPORADB_TESTS_RELATION_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/paper_scenario.h"
#include "temporal/stored_relation.h"
#include "txn/clock.h"
#include "txn/txn_manager.h"

namespace temporadb {
namespace testutil {

/// The versions `rel.BatchScan(spec)` selects, sorted by values, then valid
/// begin: the state a scan reads, in the order the figures print it.
inline std::vector<BitemporalTuple> ScanSorted(const StoredRelation& rel,
                                               const ScanSpec& spec) {
  std::vector<BitemporalTuple> out;
  VersionBatchScan scan = rel.BatchScan(spec);
  VersionBatch batch;
  while (scan.Next(&batch)) {
    for (const BitemporalTuple* t : batch.tuples) out.push_back(*t);
  }
  std::sort(out.begin(), out.end(),
            [](const BitemporalTuple& a, const BitemporalTuple& b) {
              if (a.values != b.values) return a.values < b.values;
              return a.valid.begin() < b.valid.begin();
            });
  return out;
}

/// The rows a head-pin scan of `store` under `preds` yields, in row order.
inline std::vector<RowId> HeadPinRows(const VersionStore& store,
                                      BatchPredicates preds) {
  std::vector<RowId> rows;
  VersionBatchScan scan = store.BatchScan(store.HeadPin(), std::move(preds));
  VersionBatch batch;
  while (scan.Next(&batch)) {
    rows.insert(rows.end(), batch.rows.begin(), batch.rows.end());
  }
  return rows;
}

/// The rows of `store`'s current state (transaction end = ∞), in row order.
inline std::vector<RowId> CurrentStateRows(const VersionStore& store) {
  BatchPredicates preds;
  preds.txn_current = true;
  return HeadPinRows(store, std::move(preds));
}

/// The postings of exactly `key` in `store`'s index on attribute `attr`,
/// in insertion order; fails the test when `attr` is not indexed.
inline std::vector<RowId> IndexRows(const VersionStore& store, size_t attr,
                                    const Value& key) {
  std::vector<RowId> out;
  const BTreeIndex* index = store.AttributeIndex(attr);
  EXPECT_NE(index, nullptr) << "attribute " << attr << " is not indexed";
  if (index == nullptr) return out;
  index->ForEachInRange(KeyBound{key, true}, KeyBound{key, true},
                        [&](const Value&, const std::vector<RowId>& rows) {
                          out.insert(out.end(), rows.begin(), rows.end());
                          return true;
                        });
  return out;
}

/// The stored state as of transaction time `t` (a rollback).
inline ScanSpec AsOf(Chronon t) {
  ScanSpec spec;
  spec.asof = Period::At(t);
  return spec;
}

/// The current state's tuples valid at `v` (a timeslice).
inline ScanSpec ValidAt(Chronon v) {
  ScanSpec spec;
  spec.valid_during = Period::At(v);
  return spec;
}

/// The select phase of a DML statement `where values[attr] = key` over
/// valid clause `valid`, as the evaluator runs it: the statement's window
/// and the rows it rewrites, in the kind's order.
struct Selection {
  std::optional<Period> window;
  std::vector<RowId> victims;
};
inline Result<Selection> SelectEqual(const StoredRelation& rel,
                                     Transaction* txn, size_t attr,
                                     const Value& key,
                                     std::optional<Period> valid) {
  Selection out;
  TDB_ASSIGN_OR_RETURN(out.window, rel.DmlWindow(txn, valid));
  const VersionBatch candidates = rel.DmlCandidates(out.window, std::nullopt);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates.values(i)[attr] == key) {
      out.victims.push_back(candidates.rows[i]);
    }
  }
  return out;
}

/// A `delete` (no `set`) or a `replace` that sets attribute `set->first` to
/// `set->second` of the versions `SelectEqual` picks: the select phase,
/// then the kind's write step.  Returns the number of victims.
inline Result<size_t> UpdateEqual(StoredRelation* rel, Transaction* txn,
                                  size_t attr, const Value& key,
                                  std::optional<std::pair<size_t, Value>> set,
                                  std::optional<Period> valid) {
  TDB_ASSIGN_OR_RETURN(Selection sel,
                       SelectEqual(*rel, txn, attr, key, valid));
  if (!set.has_value()) {
    TDB_RETURN_IF_ERROR(rel->Delete(txn, sel.victims, sel.window));
    return sel.victims.size();
  }
  std::vector<std::vector<Value>> values;
  for (RowId row : sel.victims) {
    values.push_back((*rel->store()->Get(row))->values);
    values.back()[set->first] = set->second;
  }
  TDB_RETURN_IF_ERROR(
      rel->Replace(txn, sel.victims, std::move(values), sel.window));
  return sel.victims.size();
}

/// An in-memory database on `clock` after `steps` (core/paper_scenario.h):
/// the statement-level counterpart of `RelationFixture`.
inline std::unique_ptr<Database> Replayed(
    ManualClock* clock, const std::vector<paper::ScriptStep>& steps) {
  DatabaseOptions options;
  options.clock = clock;
  std::unique_ptr<Database> db = std::move(*Database::Open(options));
  Status s = paper::Replay(db.get(), clock, steps);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return db;
}

/// The rows `query` answers on `db`, sorted (values, then periods).
inline std::vector<Row> SortedRows(Database* db, const std::string& query) {
  Result<Rowset> rows = db->Query(query);
  EXPECT_TRUE(rows.ok()) << query << ": " << rows.status().ToString();
  if (!rows.ok()) return {};
  std::vector<Row> out(rows->rows().begin(), rows->rows().end());
  std::sort(out.begin(), out.end());
  return out;
}

/// Shared fixture for stored-relation tests: a (name, rank) relation of a
/// chosen temporal class, a manual clock, and one-shot transaction helpers.
class RelationFixture : public ::testing::Test {
 protected:
  RelationFixture() : manager_(&clock_) {}

  void MakeRelation(TemporalClass cls,
                    TemporalDataModel model = TemporalDataModel::kInterval) {
    RelationInfo info;
    info.id = 1;
    info.name = "faculty";
    info.schema = *Schema::Make({Attribute{"name", Type::String()},
                                 Attribute{"rank", Type::String()}});
    info.temporal_class = cls;
    info.data_model = model;
    relation_ = MakeStoredRelation(info);
  }

  Chronon Day(const char* text) { return Date::Parse(text)->chronon(); }
  Period Between(const char* a, const char* b) {
    return Period(Day(a), Day(b));
  }
  Period Since(const char* a) { return Period::From(Day(a)); }

  /// Runs `fn` in a transaction stamped at `date`, committing on OK.
  Status AtDate(const char* date, const std::function<Status(Transaction*)>& fn) {
    EXPECT_TRUE(clock_.SetDate(date).ok());
    Result<Transaction*> txn = manager_.Begin();
    if (!txn.ok()) return txn.status();
    Status s = fn(*txn);
    if (!s.ok()) {
      EXPECT_TRUE(manager_.Abort(*txn).ok());
      return s;
    }
    return manager_.Commit(*txn);
  }

  Status Append(const char* date, const char* name, const char* rank,
                std::optional<Period> valid = std::nullopt) {
    return AtDate(date, [&](Transaction* txn) {
      return relation_->Append(txn, {Value(name), Value(rank)}, valid);
    });
  }

  /// Deletes the versions named `name` over `valid` in `txn`.
  Result<size_t> DeleteIn(Transaction* txn, const char* name,
                          std::optional<Period> valid = std::nullopt) {
    return UpdateEqual(relation_.get(), txn, 0, Value(name), std::nullopt,
                       valid);
  }

  /// Sets the rank of the versions named `name` to `new_rank` in `txn`.
  Result<size_t> ReplaceIn(Transaction* txn, const char* name,
                           const char* new_rank,
                           std::optional<Period> valid = std::nullopt) {
    return UpdateEqual(relation_.get(), txn, 0, Value(name),
                       std::pair<size_t, Value>{1, Value(new_rank)}, valid);
  }

  Result<size_t> Delete(const char* date, const char* name,
                        std::optional<Period> valid = std::nullopt) {
    size_t count = 0;
    Status s = AtDate(date, [&](Transaction* txn) -> Status {
      TDB_ASSIGN_OR_RETURN(count, DeleteIn(txn, name, valid));
      return Status::OK();
    });
    if (!s.ok()) return s;
    return count;
  }

  Result<size_t> Replace(const char* date, const char* name,
                         const char* new_rank,
                         std::optional<Period> valid = std::nullopt) {
    size_t count = 0;
    Status s = AtDate(date, [&](Transaction* txn) -> Status {
      TDB_ASSIGN_OR_RETURN(count, ReplaceIn(txn, name, new_rank, valid));
      return Status::OK();
    });
    if (!s.ok()) return s;
    return count;
  }

  /// All live versions matching `name`, in row order.
  std::vector<BitemporalTuple> VersionsOf(const char* name) {
    std::vector<BitemporalTuple> out;
    relation_->store()->ForEach([&](RowId, const BitemporalTuple& t) {
      if (t.values[0].AsString() == name) out.push_back(t);
    });
    return out;
  }

  size_t LiveCount() { return relation_->store()->live_count(); }

  ManualClock clock_;
  TxnManager manager_;
  std::unique_ptr<StoredRelation> relation_;
};

}  // namespace testutil
}  // namespace temporadb

#endif  // TEMPORADB_TESTS_RELATION_TEST_UTIL_H_
