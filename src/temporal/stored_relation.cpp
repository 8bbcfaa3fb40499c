#include "temporal/stored_relation.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/strings.h"
#include "temporal/historical_relation.h"
#include "temporal/rollback_relation.h"
#include "temporal/static_relation.h"
#include "temporal/temporal_relation.h"

namespace temporadb {

Result<std::optional<Period>> StoredRelation::DmlWindow(
    Transaction* txn, std::optional<Period> valid) const {
  if (!SupportsValidTime(info_.temporal_class)) {
    TDB_RETURN_IF_ERROR(RejectValidPeriod(valid));
    return std::optional<Period>();
  }
  TDB_ASSIGN_OR_RETURN(Period window, ResolveValidPeriod(txn, valid));
  return std::optional<Period>(window);
}

VersionBatch StoredRelation::DmlCandidates(
    std::optional<Period> window, const std::optional<KeyRanges>& key) const {
  ScanSpec spec;
  spec.valid_during = window;
  size_t examined = 0;
  VersionBatch candidates = Candidates(spec, key, &examined);
  if (ScanStats* stats = store_.options().scan_stats) {
    stats->dml_rows_examined.fetch_add(examined, std::memory_order_relaxed);
  }
  if (!window.has_value() || SupportsTransactionTime(info_.temporal_class)) {
    return candidates;
  }
  // The historical rewrite's order: (valid begin, row).  Candidates come
  // in row order, so (valid begin, position) is that order.
  if (std::is_sorted(candidates.valid_from.begin(),
                     candidates.valid_from.end())) {
    return candidates;
  }
  std::vector<std::pair<int64_t, size_t>> order(candidates.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = {candidates.valid_from[i], i};
  }
  std::sort(order.begin(), order.end());
  // Each column is permuted through one column-sized copy at a time.
  const auto permute = [&order](auto& column) {
    std::remove_reference_t<decltype(column)> sorted(column.size());
    for (size_t i = 0; i < order.size(); ++i) {
      sorted[i] = column[order[i].second];
    }
    column.swap(sorted);
  };
  permute(candidates.rows);
  permute(candidates.tuples);
  permute(candidates.valid_from);
  permute(candidates.valid_to);
  permute(candidates.tt_start);
  permute(candidates.tt_end);
  return candidates;
}

VersionBatchScan StoredRelation::BatchScan(const ScanSpec& spec) const {
  // Without transaction time every row under the pin is visible: in-place
  // corrections cannot run while reader pins are held, and a head pin sees
  // the writer's own.
  BatchPredicates preds;
  if (SupportsTransactionTime(info_.temporal_class)) {
    if (!spec.asof.has_value()) {
      preds.txn_current = true;
    } else if (spec.asof->IsInstant()) {
      preds.txn_contains = spec.asof->begin();
    } else {
      preds.txn_overlaps = spec.asof;
    }
  }
  if (SupportsValidTime(info_.temporal_class)) {
    preds.valid_overlaps = spec.valid_during;
  }
  // A reader thread must not compute the head pin: it reads writer state.
  return store_.BatchScan(
      spec.snapshot.has_value() ? *spec.snapshot : store_.HeadPin(),
      std::move(preds));
}

VersionBatch StoredRelation::Candidates(const ScanSpec& spec,
                                        const std::optional<KeyRanges>& key,
                                        size_t* examined) const {
  VersionBatch out;
  const BTreeIndex* index =
      key.has_value() && !spec.snapshot.has_value()
          ? store_.AttributeIndex(key->attr)
          : nullptr;
  if (index != nullptr) {
    // Count first, so that giving up costs a walk and no copies.
    const size_t limit =
        static_cast<size_t>(kProbeFraction * store_.HeadPin().rows);
    size_t count = 0;
    bool within = true;
    for (size_t r = 0; within && r < key->ranges.size(); ++r) {
      within = index->ForEachInRange(
          key->ranges[r].lo, key->ranges[r].hi,
          [&](const Value&, const std::vector<RowId>& postings) {
            count += postings.size();
            return count <= limit;
          });
    }
    if (within) {
      std::vector<RowId> rows;
      rows.reserve(count);
      for (const KeyRange& r : key->ranges) {
        index->ForEachInRange(
            r.lo, r.hi, [&](const Value&, const std::vector<RowId>& postings) {
              rows.insert(rows.end(), postings.begin(), postings.end());
              return true;
            });
      }
      // Postings are in key, then insertion order (a correction re-files
      // its row last); the scan's order is the row's.
      std::sort(rows.begin(), rows.end());
      if (examined != nullptr) *examined = rows.size();
      out.Reserve(rows.size());
      const bool txn_kind = SupportsTransactionTime(info_.temporal_class);
      const bool valid_kind = SupportsValidTime(info_.temporal_class);
      for (RowId row : rows) {
        Result<const BitemporalTuple*> got = store_.Get(row);
        if (!got.ok()) continue;
        const BitemporalTuple& t = **got;
        if (txn_kind && !(spec.asof.has_value() ? t.txn.Overlaps(*spec.asof)
                                                : t.IsCurrentState())) {
          continue;
        }
        if (valid_kind && spec.valid_during.has_value() &&
            !t.valid.Overlaps(*spec.valid_during)) {
          continue;
        }
        out.Add(row, &t, t.valid.begin().days(), t.valid.end().days(),
                t.txn.begin().days(), t.txn.end().days());
      }
      return out;
    }
  }
  BatchScan(spec).ReadAll(&out);
  if (examined != nullptr) *examined = out.size();
  return out;
}

Status StoredRelation::CreateIndex(std::string_view attribute) {
  std::optional<size_t> idx = info_.schema.IndexOf(attribute);
  if (!idx.has_value()) {
    return Status::InvalidArgument(StringPrintf(
        "relation '%s' has no attribute '%s'", info_.name.c_str(),
        std::string(attribute).c_str()));
  }
  return store_.CreateAttributeIndex(*idx);
}

Result<std::vector<Value>> StoredRelation::CheckValues(
    std::vector<Value> values) const {
  const Schema& schema = info_.schema;
  if (values.size() != schema.size()) {
    return Status::InvalidArgument(StringPrintf(
        "relation '%s' expects %zu attributes, got %zu", info_.name.c_str(),
        schema.size(), values.size()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    TDB_ASSIGN_OR_RETURN(values[i], schema.at(i).type.Coerce(values[i]));
  }
  return values;
}

Result<Period> StoredRelation::ResolveValidPeriod(
    Transaction* txn, std::optional<Period> valid) const {
  if (!valid.has_value()) {
    // The fact holds "from now on" (interval model) or "happens now"
    // (event model), where "now" is the transaction timestamp.
    if (info_.data_model == TemporalDataModel::kEvent) {
      return Period::At(txn->timestamp());
    }
    return Period::From(txn->timestamp());
  }
  if (valid->IsEmpty()) {
    return Status::InvalidArgument("valid period is empty");
  }
  if (info_.data_model == TemporalDataModel::kEvent && !valid->IsInstant()) {
    return Status::InvalidArgument(StringPrintf(
        "'%s' is an event relation; its valid time is a single chronon "
        "(use 'valid at'), not an interval",
        info_.name.c_str()));
  }
  return *valid;
}

Status StoredRelation::RejectValidPeriod(
    const std::optional<Period>& valid) const {
  if (valid.has_value()) {
    return Status::NotSupported(StringPrintf(
        "relation '%s' is %s and does not maintain valid time; retroactive "
        "or postactive changes (a 'valid' clause) are not supported",
        info_.name.c_str(),
        std::string(TemporalClassName(info_.temporal_class)).c_str()));
  }
  return Status::OK();
}

std::unique_ptr<StoredRelation> MakeStoredRelation(
    RelationInfo info, VersionStoreOptions options) {
  switch (info.temporal_class) {
    case TemporalClass::kStatic:
      return std::make_unique<StaticRelation>(std::move(info), options);
    case TemporalClass::kRollback:
      return std::make_unique<RollbackRelation>(std::move(info), options);
    case TemporalClass::kHistorical:
      return std::make_unique<HistoricalRelation>(std::move(info), options);
    case TemporalClass::kTemporal:
      return std::make_unique<TemporalRelation>(std::move(info), options);
  }
  return nullptr;
}

}  // namespace temporadb
