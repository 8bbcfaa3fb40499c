#include "tquel/evaluator.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "index/interval_index.h"
#include "rel/temporal_ops.h"
#include "temporal/historical_relation.h"

namespace temporadb {
namespace tquel {

namespace {

/// The access path planned for one participant (see EvaluateRetrieve).
struct Level {
  bool dynamic = false;                         ///< Probed per prefix.
  const BoundRetrieve::JoinKey* key = nullptr;  ///< Hash step when set.
  const Expr* filter = nullptr;                 ///< Its `local_filters`.
  std::vector<Candidate> candidates;
  /// Hash step: candidate indices per key value, in candidate order.
  std::unordered_map<Value, std::vector<size_t>, ValueHash> buckets;
  /// Dynamic step: the candidates' valid periods, by candidate index.
  IntervalIndex by_valid;
};

// Converts a TQuel value for storage into a date attribute when the user
// wrote a string literal ("09/01/77").
Result<Value> CoerceForAttribute(const Type& type, Value v) {
  if (type.value_type() == ValueType::kDate &&
      v.type() == ValueType::kString) {
    TDB_ASSIGN_OR_RETURN(Date d, Date::Parse(v.AsString()));
    return Value(d);
  }
  return type.Coerce(v);
}

Result<Participant> SingleParticipant(const EvalContext& ctx,
                                      const std::string& variable) {
  if (ctx.ranges == nullptr || !ctx.ranges->contains(variable)) {
    return Status::InvalidArgument(StringPrintf(
        "unknown range variable '%s'", variable.c_str()));
  }
  TDB_ASSIGN_OR_RETURN(StoredRelation * rel,
                       ctx.get_relation(ctx.ranges->at(variable)));
  return Participant{variable, rel, 0};
}

// One compiled `replace` assignment: attribute index and expression.
using Assignment = std::pair<size_t, ExprPtr>;

Result<std::vector<Assignment>> CompileAssignments(
    const std::vector<std::pair<std::string, AstExprPtr>>& assignments,
    const Participant& participant) {
  std::vector<Assignment> out;
  const Schema& schema = participant.relation->schema();
  for (const auto& [attr, ast] : assignments) {
    std::optional<size_t> idx = schema.IndexOf(attr);
    if (!idx.has_value()) {
      return Status::InvalidArgument(StringPrintf(
          "relation '%s' has no attribute '%s'",
          participant.relation->info().name.c_str(), attr.c_str()));
    }
    TDB_ASSIGN_OR_RETURN(ExprPtr expr, CompileScalarExpr(ast, {participant}));
    out.emplace_back(*idx, std::move(expr));
  }
  return out;
}

// The select phase of a DML statement: `rel`'s candidates over `window` in
// the order the kind rewrites them (`DmlCandidates`) that pass `when`, then
// `where`.  The first error fails the statement before anything is written.
Result<std::vector<RowId>> SelectVictims(const StoredRelation& rel,
                                         std::optional<Period> window,
                                         const std::optional<KeyRanges>& key,
                                         const TemporalPred* when,
                                         const Expr* where) {
  PeriodBinding binding(1);
  std::vector<RowId> victims;
  for (const Candidate& c : rel.DmlCandidates(window, key)) {
    bool keep = true;
    if (when != nullptr) {
      binding[0] = c.valid;
      TDB_ASSIGN_OR_RETURN(keep, when->Eval(binding));
    }
    if (keep && where != nullptr) {
      TDB_ASSIGN_OR_RETURN(keep, EvalPredicate(*where, *c.values));
    }
    if (keep) victims.push_back(c.row);
  }
  return victims;
}

// What the select phase of a `delete` or `replace` found.
struct Selection {
  std::optional<Period> window;
  std::vector<RowId> victims;
};

// Compiles and runs the select phase of a `delete` or `replace` over
// participant `p`.
Result<Selection> SelectForUpdate(Transaction* txn, const Participant& p,
                                  const AstExprPtr& where_ast,
                                  const AstTemporalPredPtr& when_ast,
                                  const std::optional<ValidClause>& valid) {
  ExprPtr where;
  if (where_ast != nullptr) {
    TDB_ASSIGN_OR_RETURN(where, CompileScalarExpr(where_ast, {p}));
  }
  TDB_ASSIGN_OR_RETURN(std::optional<Period> period,
                       ResolveDmlValidClause(valid));
  const StoredRelation& rel = *p.relation;
  TemporalPredPtr when;
  if (when_ast != nullptr) {
    TDB_ASSIGN_OR_RETURN(when, CompileTemporalPred(when_ast, {p}));
    if (!SupportsValidTime(rel.temporal_class())) {
      return Status::NotSupported(StringPrintf(
          "relation '%s' is %s and does not maintain valid time; a 'when' "
          "clause is not supported",
          rel.info().name.c_str(),
          std::string(TemporalClassName(rel.temporal_class())).c_str()));
    }
  }
  Selection out;
  TDB_ASSIGN_OR_RETURN(out.window, rel.DmlWindow(txn, period));
  TDB_ASSIGN_OR_RETURN(
      out.victims, SelectVictims(rel, out.window,
                                 ProbeKey(where_ast, when_ast, {p}, 0),
                                 when.get(), where.get()));
  return out;
}

// A DML statement's result: `count` tuples, "<verb> <count> tuple(s)".
ExecResult Counted(size_t count, const char* verb) {
  ExecResult r;
  r.kind = ExecResult::Kind::kCount;
  r.count = count;
  r.message = StringPrintf("%s %zu tuple(s)", verb, count);
  return r;
}

// Applies the aggregation step of an aggregate retrieve: the raw rowset has
// one column per target (group keys and aggregate inputs, in target order);
// group, aggregate, and restore the original column order.
Result<Rowset> FinalizeAggregates(const BoundRetrieve& bound, Rowset raw) {
  if (!bound.has_aggregates) return raw;
  std::vector<size_t> group_by;
  std::vector<AggSpec> specs;
  std::vector<size_t> out_pos(bound.target_aggs.size());
  for (size_t i = 0; i < bound.target_aggs.size(); ++i) {
    if (bound.target_aggs[i].is_aggregate) {
      out_pos[i] = specs.size();
      specs.push_back(
          AggSpec{bound.target_aggs[i].func, i, bound.target_names[i]});
    } else {
      out_pos[i] = group_by.size();
      group_by.push_back(i);
    }
  }
  for (size_t i = 0; i < out_pos.size(); ++i) {
    if (bound.target_aggs[i].is_aggregate) out_pos[i] += group_by.size();
  }
  TDB_ASSIGN_OR_RETURN(Rowset grouped, Aggregate(raw, group_by, specs));
  // Aggregates are static: a row is its values, permuted back.
  Rowset out(grouped.schema().Project(out_pos), TemporalClass::kStatic);
  for (Row& row : grouped.rows()) {
    Row permuted;
    for (size_t pos : out_pos) permuted.values.push_back(row.values[pos]);
    out.rows().push_back(std::move(permuted));
  }
  return out;
}

}  // namespace

Result<Rowset> EvaluateRetrieve(const BoundRetrieve& bound,
                                const EvalContext& ctx) {
  // Resolve the rollback window, if any.
  std::optional<Period> asof;
  if (bound.asof_at != nullptr) {
    TDB_ASSIGN_OR_RETURN(Period at, bound.asof_at->Eval({}));
    if (bound.asof_through != nullptr) {
      TDB_ASSIGN_OR_RETURN(Period through, bound.asof_through->Eval({}));
      // Inclusive range of states: [at, through's chronon].
      asof = Period(at.begin(), through.begin().Next());
    } else {
      asof = Period::At(at.begin());
    }
    if (asof->IsEmpty()) {
      return Status::InvalidArgument("as-of window is empty");
    }
  }

  // Every participant is materialized once by `StoredRelation::Candidates`
  // with its fixed pushed-down windows (`as of`, plus any valid window the
  // when clause implies from literals alone), through its probe key
  // (`probe_keys`) when it has one.  Then it is probed in one of three
  // ways, in this order of precedence:
  //
  //  1. A participant with an equality join key to an earlier participant
  //     (`join_keys`) becomes a *hash* step: its candidates are bucketed by
  //     key, so each bound prefix visits only the candidates whose key
  //     equals the prefix's.  Without a probe key of its own, an indexed
  //     join attribute is probed at the head pin for the outer
  //     candidates' key values, the only buckets ever visited.
  //  2. A participant whose when-clause window depends on earlier
  //     participants becomes a *dynamic* step: its candidates are indexed
  //     by valid period, so each bound prefix visits only the candidates
  //     overlapping the window the when clause derives from it (an
  //     index-nested-loop join).
  //  3. Otherwise each bound prefix visits every candidate.
  //
  // Each participant's `local_filters` run on its candidates before any
  // combination is built.  Buckets and interval hits keep materialization
  // order and are probed in outer order, so the result rows and their
  // order are those of the plain nested loop over the same candidates, at
  // the writer's head pin and at a reader pin alike.
  const size_t n = bound.participants.size();
  std::vector<Level> levels(n);
  for (size_t i = 0; i < n; ++i) {
    Level& level = levels[i];
    const StoredRelation& rel = *bound.participants[i].relation;
    if (i < bound.local_filters.size()) {
      level.filter = bound.local_filters[i].get();
    }
    if (i < bound.join_keys.size() && !bound.join_keys[i].empty()) {
      level.key = &bound.join_keys[i].front();
    }
    ScanSpec spec;
    spec.asof = asof;
    if (ctx.snapshot != nullptr) {
      spec.snapshot = ctx.snapshot->PinFor(rel.store());
    }
    if (bound.when != nullptr && SupportsValidTime(rel.temporal_class())) {
      // A window derivable with nothing bound (prefix 0) is static: push it
      // into the one-shot materializing scan.  Otherwise probe whether one
      // becomes derivable once participants 0..i-1 are bound.
      spec.valid_during = bound.when->PushdownWindow(i, {}, 0);
      if (!spec.valid_during.has_value() && i > 0 && level.key == nullptr) {
        const PeriodBinding shape_probe(i, Period::All());
        level.dynamic =
            bound.when->PushdownWindow(i, shape_probe, i).has_value();
      }
    }
    std::optional<KeyRanges> key = bound.probe_keys[i];
    if (!key.has_value() && level.key != nullptr &&
        !spec.snapshot.has_value() &&
        rel.store()->AttributeIndex(level.key->attr) != nullptr) {
      // Distinct under `==`, which `Hash` and the B+-tree's order agree
      // with (keys of one type).
      std::unordered_set<Value, ValueHash> outer;
      for (const Candidate& c : levels[level.key->outer].candidates) {
        outer.insert((*c.values)[level.key->outer_attr]);
      }
      key = KeyRanges{level.key->attr, {}};
      key->ranges.reserve(outer.size());
      for (const Value& v : outer) key->ranges.push_back(KeyRange::Point(v));
    }
    level.candidates = rel.Candidates(spec, key);
    if (level.filter != nullptr) {
      size_t kept = 0;
      for (const Candidate& c : level.candidates) {
        TDB_ASSIGN_OR_RETURN(bool keep,
                             EvalPredicate(*level.filter, *c.values));
        if (keep) level.candidates[kept++] = c;
      }
      level.candidates.resize(kept);
    }
    if (level.dynamic) {
      std::vector<IntervalIndex::Entry> entries;
      entries.reserve(level.candidates.size());
      for (size_t k = 0; k < level.candidates.size(); ++k) {
        entries.push_back({level.candidates[k].valid, k});
      }
      level.by_valid = IntervalIndex(std::move(entries));
    }
    if (level.key == nullptr) continue;
    for (size_t k = 0; k < level.candidates.size(); ++k) {
      level.buckets[(*level.candidates[k].values)[level.key->attr]]
          .push_back(k);
    }
  }

  // Result schema.
  std::vector<Attribute> attrs;
  for (size_t i = 0; i < bound.target_names.size(); ++i) {
    attrs.push_back(
        Attribute{bound.target_names[i], Type(bound.target_types[i])});
  }
  TDB_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  Rowset out(std::move(schema), bound.result_class, bound.result_model);
  // One participant yields at most one row per candidate.
  if (n == 1) out.rows().reserve(levels[0].candidates.size());
  TDB_ASSIGN_OR_RETURN(Rowset::Appender append,
                       out.MakeAppender(bound.target_exprs.size()));
  const bool want_valid = SupportsValidTime(bound.result_class);
  const bool want_txn = SupportsTransactionTime(bound.result_class);

  // Nested-loop over the candidate product: participant 0 is the outermost
  // loop.  `chosen`/`valid_binding` hold the tuple bound at each level.
  // `where` and computed targets read the evaluation row: one candidate's
  // own values, or for a join the bound tuples' values concatenated into
  // `flat`, which is assembled only when something reads it.
  std::vector<const Candidate*> chosen(n);
  PeriodBinding valid_binding(n);
  std::vector<Value> flat;
  const bool computed_target =
      std::find(bound.target_columns.begin(), bound.target_columns.end(),
                std::nullopt) != bound.target_columns.end();
  const bool assemble_flat =
      n > 1 && (bound.where != nullptr || computed_target);
  if (assemble_flat) flat.reserve(bound.total_arity);

  auto emit = [&]() -> Status {
    const std::vector<Value>& values = n == 1 ? *chosen[0]->values : flat;
    if (assemble_flat) {
      flat.clear();
      for (size_t i = 0; i < n; ++i) {
        flat.insert(flat.end(), chosen[i]->values->begin(),
                    chosen[i]->values->end());
      }
    }
    bool keep = true;
    if (bound.where != nullptr) {
      TDB_ASSIGN_OR_RETURN(keep, EvalPredicate(*bound.where, values));
    }
    if (keep && bound.when != nullptr) {
      TDB_ASSIGN_OR_RETURN(keep, bound.when->Eval(valid_binding));
    }
    if (!keep) return Status::OK();
    Period valid = Period::All();
    if (want_valid) {
      if (bound.valid_from != nullptr) {
        TDB_ASSIGN_OR_RETURN(Period from,
                             bound.valid_from->Eval(valid_binding));
        if (bound.valid_at) {
          valid = Period::At(from.begin());
        } else {
          TDB_ASSIGN_OR_RETURN(Period to,
                               bound.valid_to->Eval(valid_binding));
          valid = Period(from.begin(), to.begin());
        }
      } else {
        // Default: the intersection of the target-list variables' valid
        // periods.
        valid = valid_binding[bound.target_vars[0]];
        for (size_t k = 1; k < bound.target_vars.size(); ++k) {
          valid = valid.Intersect(valid_binding[bound.target_vars[k]]);
        }
      }
      if (valid.IsEmpty()) return Status::OK();
    }
    Period txn = Period::All();
    if (want_txn) {
      txn = chosen[bound.target_vars[0]]->txn;
      for (size_t k = 1; k < bound.target_vars.size(); ++k) {
        txn = txn.Intersect(chosen[bound.target_vars[k]]->txn);
      }
      if (txn.IsEmpty()) return Status::OK();
    }
    // The row goes in place; a failing target fails the whole statement,
    // so a partly filled row is never returned.
    std::vector<Value>& row = append.Add(valid, txn);
    for (size_t k = 0; k < bound.target_exprs.size(); ++k) {
      if (const auto& column = bound.target_columns[k]) {
        row.push_back((*chosen[column->participant]->values)[column->attr]);
      } else {
        TDB_ASSIGN_OR_RETURN(Value v, bound.target_exprs[k]->Eval(values));
        row.push_back(std::move(v));
      }
    }
    return Status::OK();
  };

  std::function<Status(size_t)> enumerate = [&](size_t i) -> Status {
    if (i == n) return emit();
    const Level& level = levels[i];
    auto visit = [&](const Candidate& c) -> Status {
      chosen[i] = &c;
      valid_binding[i] = c.valid;
      return enumerate(i + 1);
    };
    if (level.key != nullptr) {
      const Value& probe =
          (*chosen[level.key->outer]->values)[level.key->outer_attr];
      auto bucket = level.buckets.find(probe);
      if (bucket == level.buckets.end()) return Status::OK();
      for (size_t k : bucket->second) {
        TDB_RETURN_IF_ERROR(visit(level.candidates[k]));
      }
      return Status::OK();
    }
    // A dynamic step re-derives the implied valid window from the when
    // clause under the bound prefix (entries >= i are never read) and
    // visits the candidates overlapping it, in candidate order.  A failed
    // derivation visits every candidate — the leaf predicates stay
    // authoritative.
    const std::optional<Period> window =
        level.dynamic ? bound.when->PushdownWindow(i, valid_binding, i)
                      : std::nullopt;
    if (!window.has_value()) {
      for (const Candidate& c : level.candidates) {
        TDB_RETURN_IF_ERROR(visit(c));
      }
      return Status::OK();
    }
    std::vector<size_t> hits;
    level.by_valid.Overlapping(
        *window, [&hits](Period, IntervalIndex::Id k) { hits.push_back(k); });
    std::sort(hits.begin(), hits.end());
    for (size_t k : hits) {
      TDB_RETURN_IF_ERROR(visit(level.candidates[k]));
    }
    return Status::OK();
  };
  TDB_RETURN_IF_ERROR(enumerate(0));
  return FinalizeAggregates(bound, std::move(out));
}

Result<ExecResult> Execute(const Statement& stmt, EvalContext& ctx) {
  struct Visitor {
    EvalContext& ctx;

    Result<ExecResult> operator()(const CreateStmt& s) {
      if (ctx.create_relation == nullptr) {
        return Status::NotSupported("DDL is not available in this context");
      }
      TDB_RETURN_IF_ERROR(ctx.create_relation(s));
      ExecResult r;
      r.message = StringPrintf(
          "created %s relation '%s'",
          std::string(TemporalClassName(s.temporal_class)).c_str(),
          s.name.c_str());
      return r;
    }

    Result<ExecResult> operator()(const DestroyStmt& s) {
      if (ctx.drop_relation == nullptr) {
        return Status::NotSupported("DDL is not available in this context");
      }
      TDB_RETURN_IF_ERROR(ctx.drop_relation(s.name));
      ExecResult r;
      r.message = "destroyed relation '" + s.name + "'";
      return r;
    }

    Result<ExecResult> operator()(const RangeStmt& s) {
      // Validate the relation exists up front.
      TDB_ASSIGN_OR_RETURN(StoredRelation * rel,
                           ctx.get_relation(s.relation));
      (void)rel;
      (*ctx.ranges)[s.variable] = s.relation;
      ExecResult r;
      r.message = "range variable '" + s.variable + "' over '" + s.relation +
                  "'";
      return r;
    }

    Result<ExecResult> operator()(const RetrieveStmt& s) {
      AnalyzerContext actx;
      actx.get_relation = ctx.get_relation;
      actx.ranges = ctx.ranges;
      TDB_ASSIGN_OR_RETURN(BoundRetrieve bound, AnalyzeRetrieve(s, actx));
      TDB_ASSIGN_OR_RETURN(Rowset rows, EvaluateRetrieve(bound, ctx));
      ExecResult r;
      r.kind = ExecResult::Kind::kRows;
      if (bound.into.has_value()) {
        if (ctx.derived == nullptr) {
          return Status::NotSupported(
              "retrieve into is not available in this context");
        }
        (*ctx.derived)[*bound.into] = rows;
        r.message = StringPrintf("stored %zu tuples into '%s'", rows.size(),
                                 bound.into->c_str());
      }
      r.rows = std::move(rows);
      return r;
    }

    Result<ExecResult> operator()(const AppendStmt& s) {
      if (ctx.txn == nullptr) {
        return Status::FailedPrecondition("append requires a transaction");
      }
      TDB_ASSIGN_OR_RETURN(StoredRelation * rel,
                           ctx.get_relation(s.relation));
      const Schema& schema = rel->schema();
      std::vector<Value> values(schema.size(), Value::Null());
      for (const auto& [attr, ast] : s.assignments) {
        std::optional<size_t> idx = schema.IndexOf(attr);
        if (!idx.has_value()) {
          return Status::InvalidArgument(StringPrintf(
              "relation '%s' has no attribute '%s'", s.relation.c_str(),
              attr.c_str()));
        }
        TDB_ASSIGN_OR_RETURN(
            ExprPtr expr,
            CompileScalarExpr(ast, {}, /*allow_columns=*/false));
        TDB_ASSIGN_OR_RETURN(Value v, expr->Eval({}));
        TDB_ASSIGN_OR_RETURN(values[*idx],
                             CoerceForAttribute(schema.at(*idx).type,
                                                std::move(v)));
      }
      TDB_ASSIGN_OR_RETURN(std::optional<Period> valid,
                           ResolveDmlValidClause(s.valid));
      TDB_RETURN_IF_ERROR(rel->Append(ctx.txn, std::move(values), valid));
      ExecResult r;
      r.kind = ExecResult::Kind::kCount;
      r.count = 1;
      r.message = "appended 1 tuple to '" + s.relation + "'";
      return r;
    }

    // DML runs as select, compute, write (see StoredRelation): nothing is
    // written until every victim is selected and every new value computed.
    Result<ExecResult> operator()(const DeleteStmt& s) {
      if (ctx.txn == nullptr) {
        return Status::FailedPrecondition("delete requires a transaction");
      }
      TDB_ASSIGN_OR_RETURN(Participant p, SingleParticipant(ctx, s.variable));
      TDB_ASSIGN_OR_RETURN(
          Selection sel,
          SelectForUpdate(ctx.txn, p, s.where, s.when, s.valid));
      TDB_RETURN_IF_ERROR(p.relation->Delete(ctx.txn, sel.victims,
                                             sel.window));
      return Counted(sel.victims.size(), "deleted");
    }

    Result<ExecResult> operator()(const ReplaceStmt& s) {
      if (ctx.txn == nullptr) {
        return Status::FailedPrecondition("replace requires a transaction");
      }
      TDB_ASSIGN_OR_RETURN(Participant p, SingleParticipant(ctx, s.variable));
      TDB_ASSIGN_OR_RETURN(std::vector<Assignment> assignments,
                           CompileAssignments(s.assignments, p));
      TDB_ASSIGN_OR_RETURN(
          Selection sel,
          SelectForUpdate(ctx.txn, p, s.where, s.when, s.valid));
      // Every victim's new values, computed from its old ones.
      const Schema& schema = p.relation->schema();
      std::vector<std::vector<Value>> values;
      values.reserve(sel.victims.size());
      for (RowId row : sel.victims) {
        TDB_ASSIGN_OR_RETURN(const BitemporalTuple* old,
                             p.relation->store()->Get(row));
        std::vector<Value> updated = old->values;
        for (const auto& [idx, expr] : assignments) {
          TDB_ASSIGN_OR_RETURN(Value v, expr->Eval(old->values));
          TDB_ASSIGN_OR_RETURN(updated[idx], CoerceForAttribute(
                                                 schema.at(idx).type,
                                                 std::move(v)));
        }
        values.push_back(std::move(updated));
      }
      TDB_RETURN_IF_ERROR(p.relation->Replace(ctx.txn, sel.victims,
                                              std::move(values), sel.window));
      return Counted(sel.victims.size(), "replaced");
    }

    Result<ExecResult> operator()(const CorrectStmt& s) {
      if (ctx.txn == nullptr) {
        return Status::FailedPrecondition("correct requires a transaction");
      }
      TDB_ASSIGN_OR_RETURN(Participant p, SingleParticipant(ctx, s.variable));
      ExprPtr where;
      if (s.where != nullptr) {
        TDB_ASSIGN_OR_RETURN(where, CompileScalarExpr(s.where, {p}));
      }
      auto* historical = dynamic_cast<HistoricalRelation*>(p.relation);
      if (historical == nullptr) {
        return Status::NotSupported(StringPrintf(
            "physical corrections are only meaningful for historical "
            "relations; '%s' is %s",
            p.relation->info().name.c_str(),
            std::string(TemporalClassName(p.relation->temporal_class()))
                .c_str()));
      }
      TDB_ASSIGN_OR_RETURN(
          std::vector<RowId> victims,
          SelectVictims(*historical, std::nullopt,
                        ProbeKey(s.where, nullptr, {p}, 0), nullptr,
                        where.get()));
      TDB_RETURN_IF_ERROR(historical->CorrectErase(ctx.txn, victims));
      return Counted(victims.size(), "corrected (erased)");
    }

    Result<ExecResult> operator()(const ShowStmt& s) {
      TDB_ASSIGN_OR_RETURN(StoredRelation * rel, ctx.get_relation(s.relation));
      // Every stored version in row order, with the periods its kind keeps.
      ExecResult r;
      r.kind = ExecResult::Kind::kRows;
      r.rows = Rowset(rel->schema(), rel->temporal_class(), rel->data_model());
      TDB_ASSIGN_OR_RETURN(Rowset::Appender append,
                           r.rows.MakeAppender(rel->schema().size()));
      const VersionStore* store = rel->store();
      VersionBatchScan scan = store->BatchScan(store->HeadPin(), {});
      VersionBatch batch;
      while (scan.Next(&batch)) {
        for (size_t i = 0; i < batch.size(); ++i) {
          const Candidate c = Candidate::FromBatch(batch, i);
          append.Add(c.valid, c.txn) = *c.values;
        }
      }
      return r;
    }

    Result<ExecResult> operator()(const CreateIndexStmt& s) {
      TDB_ASSIGN_OR_RETURN(StoredRelation * rel,
                           ctx.get_relation(s.relation));
      TDB_RETURN_IF_ERROR(rel->CreateIndex(s.attribute));
      ExecResult r;
      r.message = "indexed " + s.relation + "." + s.attribute;
      return r;
    }

    // Transaction-control statements are handled by the database facade
    // (which owns Begin/Commit/Abort); reaching the evaluator means the
    // context cannot manage them.
    Result<ExecResult> operator()(const BeginTxnStmt&) {
      return Status::NotSupported(
          "transaction control is not available in this context");
    }
    Result<ExecResult> operator()(const CommitStmt&) {
      return Status::NotSupported(
          "transaction control is not available in this context");
    }
    Result<ExecResult> operator()(const AbortStmt&) {
      return Status::NotSupported(
          "transaction control is not available in this context");
    }
  };
  return std::visit(Visitor{ctx}, stmt);
}

}  // namespace tquel
}  // namespace temporadb
