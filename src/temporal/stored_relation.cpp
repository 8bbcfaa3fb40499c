#include "temporal/stored_relation.h"

#include <algorithm>

#include "common/strings.h"
#include "temporal/historical_relation.h"
#include "temporal/rollback_relation.h"
#include "temporal/static_relation.h"
#include "temporal/temporal_relation.h"

namespace temporadb {

UpdateAction ConstUpdate(size_t index, Value v) {
  return UpdateAction{
      index,
      [v = std::move(v)](const std::vector<Value>&) -> Result<Value> {
        return v;
      }};
}

Result<std::vector<Value>> ApplyUpdates(const UpdateSpec& updates,
                                        const std::vector<Value>& values) {
  std::vector<Value> out = values;
  for (const UpdateAction& action : updates) {
    if (action.index >= out.size()) {
      return Status::InvalidArgument("update index out of range");
    }
    TDB_ASSIGN_OR_RETURN(out[action.index], action.compute(values));
  }
  return out;
}

Result<size_t> StoredRelation::CorrectErase(
    Transaction*, const TuplePredicate&, const std::optional<AttributeKey>&) {
  return Status::NotSupported(StringPrintf(
      "physical corrections are only meaningful for historical relations; "
      "'%s' is %s",
      info_.name.c_str(),
      std::string(TemporalClassName(info_.temporal_class)).c_str()));
}

Result<std::vector<RowId>> StoredRelation::SelectVictims(
    const VictimFilter& match, std::optional<Period> window) const {
  const bool current_only = SupportsTransactionTime(info_.temporal_class);
  const bool valid_walk = !current_only && window.has_value();
  std::vector<RowId> candidates;
  bool probe = false;
  if (match.key.has_value()) {
    TDB_ASSIGN_OR_RETURN(candidates, store_.LookupAttribute(
                                         match.key->attr, match.key->value));
    probe = !current_only || candidates.size() <= store_.current_count();
  }
  if (!probe && current_only) {
    candidates = store_.CurrentRows();
  } else if (!probe) {
    // Every live row, or those of a historical window.
    BatchPredicates preds;
    preds.valid_overlaps = window;
    VersionBatchScan scan = store_.BatchScan(store_.HeadPin(), preds);
    VersionBatch batch;
    while (scan.Next(&batch)) {
      candidates.insert(candidates.end(), batch.rows.begin(),
                        batch.rows.end());
    }
  }
  if (probe || valid_walk) {
    // The walk's order: (valid begin, row) under a historical window, else
    // row order.
    const int64_t* begin = store_.chronon_valid_from();
    std::sort(candidates.begin(), candidates.end(), [&](RowId a, RowId b) {
      return valid_walk && begin[a] != begin[b] ? begin[a] < begin[b] : a < b;
    });
  }
  if (ScanStats* stats = store_.options().scan_stats) {
    stats->dml_rows_examined.fetch_add(candidates.size(),
                                       std::memory_order_relaxed);
  }
  const auto outside = [&](const BitemporalTuple& t) {
    return window.has_value() && !t.valid.Overlaps(*window);
  };
  std::vector<RowId> victims;
  for (RowId row : candidates) {
    TDB_ASSIGN_OR_RETURN(const BitemporalTuple* t, store_.Get(row));
    if (current_only ? !t->IsCurrentState() : outside(*t)) continue;
    if (match.when != nullptr && !match.when(t->valid)) continue;
    if (!outside(*t) && match.pred(t->values)) victims.push_back(row);
  }
  return victims;
}

Result<size_t> StoredRelation::DeleteWhere(
    Transaction* txn, const TuplePredicate& pred, std::optional<Period> valid,
    const PeriodPredicate& when, const std::optional<AttributeKey>& key) {
  if (when != nullptr && !SupportsValidTime(info_.temporal_class)) {
    return Status::NotSupported(StringPrintf(
        "relation '%s' is %s and does not maintain valid time; a 'when' "
        "clause is not supported",
        info_.name.c_str(),
        std::string(TemporalClassName(info_.temporal_class)).c_str()));
  }
  return DoDeleteWhere(txn, {pred, when, key}, std::move(valid));
}

Result<size_t> StoredRelation::ReplaceWhere(
    Transaction* txn, const TuplePredicate& pred, const UpdateSpec& updates,
    std::optional<Period> valid, const PeriodPredicate& when,
    const std::optional<AttributeKey>& key) {
  if (when != nullptr && !SupportsValidTime(info_.temporal_class)) {
    return Status::NotSupported(StringPrintf(
        "relation '%s' is %s and does not maintain valid time; a 'when' "
        "clause is not supported",
        info_.name.c_str(),
        std::string(TemporalClassName(info_.temporal_class)).c_str()));
  }
  return DoReplaceWhere(txn, {pred, when, key}, updates, std::move(valid));
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
