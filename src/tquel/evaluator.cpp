#include "tquel/evaluator.h"

#include <algorithm>
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
  VersionBatch candidates;
  /// The candidates that pass its `local_filters`, by index, in order.
  std::vector<uint32_t> members;
  /// Hash step: member indices per key value, in candidate order.
  std::unordered_map<Value, std::vector<uint32_t>, ValueHash> buckets;
  /// Dynamic step: the members' valid periods, by candidate index.
  IntervalIndex by_valid;
  /// The candidates the bound prefix visits (`members`, a bucket or
  /// `hits`) and the position of the next one.
  const std::vector<uint32_t>* visit = nullptr;
  size_t next = 0;
  std::vector<uint32_t> hits;
};

// A value for a date attribute that the user wrote as a string literal
// ("09/01/77") becomes that date; any other value is left as it is.
Result<Value> ParseDateLiteral(const Type& type, Value v) {
  if (type.value_type() == ValueType::kDate &&
      v.type() == ValueType::kString) {
    TDB_ASSIGN_OR_RETURN(Date d, Date::Parse(v.AsString()));
    return Value(d);
  }
  return v;
}

// Converts a TQuel value for storage into an attribute of `type`.
Result<Value> CoerceForAttribute(const Type& type, Value v) {
  TDB_ASSIGN_OR_RETURN(v, ParseDateLiteral(type, std::move(v)));
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
  const VersionBatch candidates = rel.DmlCandidates(window, key);
  for (size_t i = 0; i < candidates.size(); ++i) {
    bool keep = true;
    if (when != nullptr) {
      binding[0] = candidates.valid(i);
      TDB_ASSIGN_OR_RETURN(keep, when->Eval(binding));
    }
    if (keep && where != nullptr) {
      TDB_ASSIGN_OR_RETURN(keep, EvalPredicate(*where, candidates.values(i)));
    }
    if (keep) victims.push_back(candidates.rows[i]);
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
// one column per target (group keys and aggregate inputs, in target order,
// typed by `target_types`); group, aggregate, and restore the original
// column order.
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
  return std::move(grouped).Project(out_pos);
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
      const Level& outer = levels[level.key->outer];
      std::unordered_set<Value, ValueHash> outer_keys;
      for (uint32_t k : outer.members) {
        outer_keys.insert(outer.candidates.values(k)[level.key->outer_attr]);
      }
      key = KeyRanges{level.key->attr, {}};
      key->ranges.reserve(outer_keys.size());
      for (const Value& v : outer_keys) {
        key->ranges.push_back(KeyRange::Point(v));
      }
    }
    level.candidates = rel.Candidates(spec, key);
    const VersionBatch& cands = level.candidates;
    const Expr* filter =
        i < bound.local_filters.size() ? bound.local_filters[i].get() : nullptr;
    level.members.reserve(cands.size());
    for (uint32_t k = 0; k < cands.size(); ++k) {
      bool keep = true;
      if (filter != nullptr) {
        TDB_ASSIGN_OR_RETURN(keep, EvalPredicate(*filter, cands.values(k)));
      }
      if (keep) level.members.push_back(k);
    }
    if (level.dynamic) {
      std::vector<IntervalIndex::Entry> entries;
      entries.reserve(level.members.size());
      for (uint32_t k : level.members) entries.push_back({cands.valid(k), k});
      level.by_valid = IntervalIndex(std::move(entries));
    }
    if (level.key == nullptr) continue;
    for (uint32_t k : level.members) {
      level.buckets[cands.values(k)[level.key->attr]].push_back(k);
    }
  }

  // Result schema: one column per target, of the type its value has.
  std::vector<Attribute> attrs;
  for (size_t i = 0; i < bound.target_names.size(); ++i) {
    attrs.push_back(
        Attribute{bound.target_names[i], Type(bound.target_types[i])});
  }
  TDB_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  Rowset out(std::move(schema), bound.result_class, bound.result_model);
  // One participant yields at most one row per member.
  if (n == 1) out.Reserve(levels[0].members.size());
  const bool want_valid = SupportsValidTime(bound.result_class);
  const bool want_txn = SupportsTransactionTime(bound.result_class);

  // The candidate product is enumerated by one loop over the levels,
  // participant 0 outermost.  `chosen`/`valid_binding` hold the candidate
  // bound at each level.  `where` and computed targets read the evaluation
  // row: one candidate's own values, or for a join the bound tuples'
  // values concatenated into `flat`, which is assembled only when
  // something reads it.
  std::vector<uint32_t> chosen(n);
  PeriodBinding valid_binding(n);
  std::vector<Value> flat;
  const bool computed_target =
      std::find(bound.target_columns.begin(), bound.target_columns.end(),
                std::nullopt) != bound.target_columns.end();
  const bool assemble_flat =
      n > 1 && (bound.where != nullptr || computed_target);
  if (assemble_flat) flat.reserve(bound.total_arity);

  // Result rows are built a run at a time.  Each passing combination's
  // periods and computed targets are appended as it is found, in row
  // order, so the first failing target is the first in row order (and a
  // failing target fails the whole statement); its candidates are picked,
  // one list per participant.  Every `kRun` picks, each plain target
  // column is gathered from its participant's picks, one loop per column.
  constexpr size_t kRun = 1024;
  std::vector<std::vector<uint32_t>> picks(n);
  for (std::vector<uint32_t>& p : picks) p.reserve(kRun);
  auto gather = [&]() -> Status {
    for (size_t k = 0; k < bound.target_columns.size(); ++k) {
      const auto& column = bound.target_columns[k];
      if (!column.has_value()) continue;
      const std::vector<uint32_t>& pick = picks[column->participant];
      const VersionBatch& from = levels[column->participant].candidates;
      const size_t attr = column->attr;
      TDB_RETURN_IF_ERROR(
          out.Gather(k, pick.size(), [&](size_t j) -> const Value& {
            return from.values(pick[j])[attr];
          }));
    }
    for (std::vector<uint32_t>& p : picks) p.clear();
    return Status::OK();
  };

  auto emit = [&]() -> Status {
    const std::vector<Value>& values =
        n == 1 ? levels[0].candidates.values(chosen[0]) : flat;
    if (assemble_flat) {
      flat.clear();
      for (size_t i = 0; i < n; ++i) {
        const std::vector<Value>& v = levels[i].candidates.values(chosen[i]);
        flat.insert(flat.end(), v.begin(), v.end());
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
      for (size_t k = 0; k < bound.target_vars.size(); ++k) {
        const size_t var = bound.target_vars[k];
        const Period t = levels[var].candidates.txn(chosen[var]);
        txn = k == 0 ? t : txn.Intersect(t);
      }
      if (txn.IsEmpty()) return Status::OK();
    }
    out.AddPeriods(valid, txn);
    if (computed_target) {
      for (size_t k = 0; k < bound.target_exprs.size(); ++k) {
        if (bound.target_columns[k].has_value()) continue;
        TDB_ASSIGN_OR_RETURN(Value v, bound.target_exprs[k]->Eval(values));
        TDB_RETURN_IF_ERROR(out.Push(k, v));
      }
    }
    for (size_t i = 0; i < n; ++i) picks[i].push_back(chosen[i]);
    return picks[0].size() == kRun ? gather() : Status::OK();
  };

  // Points level i's visit list at the candidates the bound prefix
  // 0..i-1 selects.  A dynamic step re-derives the implied valid window
  // from the when clause under the bound prefix (entries >= i are never
  // read) and visits the members overlapping it, in candidate order; a
  // failed derivation visits every member — the leaf predicates stay
  // authoritative.
  static const std::vector<uint32_t> kNone;
  auto open = [&](size_t i) {
    Level& level = levels[i];
    level.next = 0;
    level.visit = &level.members;
    if (level.key != nullptr) {
      const size_t outer = level.key->outer;
      const Value& probe = levels[outer].candidates.values(
          chosen[outer])[level.key->outer_attr];
      auto bucket = level.buckets.find(probe);
      level.visit = bucket == level.buckets.end() ? &kNone : &bucket->second;
    } else if (level.dynamic) {
      const std::optional<Period> window =
          bound.when->PushdownWindow(i, valid_binding, i);
      if (window.has_value()) {
        level.hits.clear();
        level.by_valid.Overlapping(*window, [&](Period, IntervalIndex::Id k) {
          level.hits.push_back(static_cast<uint32_t>(k));
        });
        std::sort(level.hits.begin(), level.hits.end());
        level.visit = &level.hits;
      }
    }
  };

  size_t i = 0;
  open(0);
  for (;;) {
    Level& level = levels[i];
    if (level.next == level.visit->size()) {
      // Level i is exhausted: resume the level above.
      if (i == 0) break;
      --i;
      continue;
    }
    const uint32_t k = (*level.visit)[level.next++];
    chosen[i] = k;
    valid_binding[i] = level.candidates.valid(k);
    if (i + 1 < n) {
      open(++i);
    } else {
      TDB_RETURN_IF_ERROR(emit());
    }
  }
  TDB_RETURN_IF_ERROR(gather());
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
        // The kind's `Append` checks and coerces the values (`CheckValues`).
        TDB_ASSIGN_OR_RETURN(values[*idx],
                             ParseDateLiteral(schema.at(*idx).type,
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
      const VersionStore* store = rel->store();
      VersionBatchScan scan = store->BatchScan(store->HeadPin(), {});
      VersionBatch batch;
      while (scan.Next(&batch)) {
        for (size_t i = 0; i < batch.size(); ++i) {
          r.rows.AddPeriods(batch.valid(i), batch.txn(i));
        }
        for (size_t col = 0; col < rel->schema().size(); ++col) {
          TDB_RETURN_IF_ERROR(r.rows.Gather(
              col, batch.size(), [&](size_t i) -> const Value& {
                return batch.values(i)[col];
              }));
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
