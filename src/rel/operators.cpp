#include "rel/operators.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "common/strings.h"

namespace temporadb {

Result<Rowset> Select(const Rowset& input, const Expr& pred) {
  Rowset out(input.schema(), input.temporal_class(), input.data_model());
  for (const Row& row : input.rows()) {
    TDB_ASSIGN_OR_RETURN(bool keep, EvalPredicate(pred, row.values));
    if (keep) out.rows().push_back(row);
  }
  return out;
}

Result<Rowset> Project(const Rowset& input, const std::vector<ExprPtr>& exprs,
                       const std::vector<std::string>& names) {
  if (exprs.size() != names.size()) {
    return Status::InvalidArgument("projection names/expressions mismatch");
  }
  // Output attribute types: inferred from the first row, defaulting to
  // string for empty inputs.
  std::vector<Attribute> attrs;
  attrs.reserve(exprs.size());
  for (size_t i = 0; i < exprs.size(); ++i) {
    ValueType vt = ValueType::kString;
    if (!input.empty()) {
      TDB_ASSIGN_OR_RETURN(Value v, exprs[i]->Eval(input.rows()[0].values));
      if (!v.is_null()) vt = v.type();
    }
    attrs.push_back(Attribute{names[i], Type(vt)});
  }
  TDB_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  Rowset out(std::move(schema), input.temporal_class(), input.data_model());
  // Row-major evaluation: the first expression error is the first failing
  // row's.  Projection keeps the DBMS-maintained periods untouched.
  for (const Row& row : input.rows()) {
    Row projected;
    projected.values.reserve(exprs.size());
    for (const ExprPtr& expr : exprs) {
      TDB_ASSIGN_OR_RETURN(Value v, expr->Eval(row.values));
      projected.values.push_back(std::move(v));
    }
    projected.valid = row.valid;
    projected.txn = row.txn;
    TDB_RETURN_IF_ERROR(out.AddRow(std::move(projected)));
  }
  return out;
}

Result<Rowset> ProjectColumns(const Rowset& input,
                              const std::vector<size_t>& indexes) {
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  for (size_t idx : indexes) {
    if (idx >= input.schema().size()) {
      return Status::InvalidArgument("projection index out of range");
    }
    exprs.push_back(MakeColumnRef(idx, input.schema().at(idx).name));
    names.push_back(input.schema().at(idx).name);
  }
  return Project(input, exprs, names);
}

Result<Rowset> Union(const Rowset& a, const Rowset& b) {
  if (a.schema() != b.schema()) {
    return Status::InvalidArgument("union of incompatible schemas");
  }
  if (a.temporal_class() != b.temporal_class()) {
    return Status::InvalidArgument(StringPrintf(
        "union of %s and %s relations",
        std::string(TemporalClassName(a.temporal_class())).c_str(),
        std::string(TemporalClassName(b.temporal_class())).c_str()));
  }
  Rowset out = a;
  out.rows().insert(out.rows().end(), b.rows().begin(), b.rows().end());
  return out;
}

Result<Rowset> Difference(const Rowset& a, const Rowset& b) {
  if (a.schema() != b.schema() ||
      a.temporal_class() != b.temporal_class()) {
    return Status::InvalidArgument("difference of incompatible relations");
  }
  const std::set<Row> exclude(b.rows().begin(), b.rows().end());
  Rowset out(a.schema(), a.temporal_class(), a.data_model());
  for (const Row& row : a.rows()) {
    if (!exclude.contains(row)) out.rows().push_back(row);
  }
  return out;
}

Rowset Distinct(const Rowset& input) {
  Rowset out(input.schema(), input.temporal_class(), input.data_model());
  std::set<Row> seen;
  for (const Row& row : input.rows()) {
    if (seen.insert(row).second) out.rows().push_back(row);
  }
  return out;
}

Result<Rowset> SortBy(const Rowset& input, const std::vector<size_t>& keys) {
  for (size_t k : keys) {
    if (k >= input.schema().size()) {
      return Status::InvalidArgument("sort key index out of range");
    }
  }
  Rowset out = input;
  std::stable_sort(out.rows().begin(), out.rows().end(),
                   [&keys](const Row& a, const Row& b) {
                     for (size_t k : keys) {
                       if (a.values[k] < b.values[k]) return true;
                       if (b.values[k] < a.values[k]) return false;
                     }
                     return a < b;
                   });
  return out;
}

Result<TemporalClass> ProductClass(TemporalClass a, TemporalClass b,
                                   const char* op) {
  if (!HasMeetClass(a, b)) {
    return Status::InvalidArgument(StringPrintf(
        "%s of %s and %s relations: the temporal classes have no meet (one "
        "maintains only transaction time, the other only valid time), so "
        "every pairing would silently drop both time dimensions",
        op, std::string(TemporalClassName(a)).c_str(),
        std::string(TemporalClassName(b)).c_str()));
  }
  return MeetClass(a, b);
}

std::optional<Row> PairRows(const Row& a, const Row& b, TemporalClass cls) {
  Row out;
  if (SupportsValidTime(cls)) {
    out.valid = a.valid->Intersect(*b.valid);
    if (out.valid->IsEmpty()) return std::nullopt;
  }
  if (SupportsTransactionTime(cls)) {
    out.txn = a.txn->Intersect(*b.txn);
    if (out.txn->IsEmpty()) return std::nullopt;
  }
  out.values.reserve(a.values.size() + b.values.size());
  out.values.insert(out.values.end(), a.values.begin(), a.values.end());
  out.values.insert(out.values.end(), b.values.begin(), b.values.end());
  return out;
}

Result<Rowset> CrossProduct(const Rowset& a, const Rowset& b) {
  TDB_ASSIGN_OR_RETURN(
      TemporalClass cls,
      ProductClass(a.temporal_class(), b.temporal_class(), "cross product"));
  Rowset out(a.schema().Concat(b.schema()), cls);
  // Pair order: outer row, then inner rows ascending.
  for (const Row& left : a.rows()) {
    for (const Row& right : b.rows()) {
      std::optional<Row> pair = PairRows(left, right, cls);
      if (pair.has_value()) TDB_RETURN_IF_ERROR(out.AddRow(std::move(*pair)));
    }
  }
  return out;
}

}  // namespace temporadb
