#include "rel/aggregate.h"

#include <map>

#include "common/strings.h"

namespace temporadb {

std::string_view AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAny:
      return "any";
  }
  return "?";
}

namespace {

struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool sum_is_float = false;
  Value min;
  Value max;
  Value any;
};

}  // namespace

Result<Rowset> Aggregate(const Rowset& input,
                         const std::vector<size_t>& group_by,
                         const std::vector<AggSpec>& aggs) {
  for (size_t g : group_by) {
    if (g >= input.schema().size()) {
      return Status::InvalidArgument("group-by index out of range");
    }
  }
  for (const AggSpec& a : aggs) {
    if (a.func != AggFunc::kCount && a.column >= input.schema().size()) {
      return Status::InvalidArgument(StringPrintf(
          "aggregate column out of range for %s",
          std::string(AggFuncName(a.func)).c_str()));
    }
  }

  // Output schema: group columns then aggregates.
  std::vector<Attribute> attrs;
  for (size_t g : group_by) attrs.push_back(input.schema().at(g));
  for (const AggSpec& a : aggs) {
    ValueType vt = ValueType::kInt;
    if (a.func == AggFunc::kAvg) vt = ValueType::kFloat;
    if (a.func == AggFunc::kMin || a.func == AggFunc::kMax ||
        a.func == AggFunc::kAny) {
      vt = a.column < input.schema().size()
               ? input.schema().at(a.column).type.value_type()
               : ValueType::kNull;
    }
    if (a.func == AggFunc::kSum) {
      vt = input.schema().at(a.column).type.value_type();
    }
    attrs.push_back(Attribute{a.as_name, Type(vt)});
  }
  TDB_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  Rowset out(std::move(schema), TemporalClass::kStatic);

  // Accumulate in input row order (so the first AsNumeric error is the
  // first failing row's).
  std::map<std::vector<Value>, std::vector<AggState>> groups;
  const Value kZero(int64_t{0});
  for (size_t row = 0; row < input.size(); ++row) {
    std::vector<Value> key;
    key.reserve(group_by.size());
    for (size_t g : group_by) key.push_back(input.Get(row, g));
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) it->second.resize(aggs.size());
    for (size_t i = 0; i < aggs.size(); ++i) {
      AggState& st = it->second[i];
      const AggSpec& spec = aggs[i];
      const Value v =
          spec.func == AggFunc::kCount ? kZero : input.Get(row, spec.column);
      ++st.count;
      switch (spec.func) {
        case AggFunc::kCount:
          break;
        case AggFunc::kSum:
        case AggFunc::kAvg: {
          TDB_ASSIGN_OR_RETURN(double d, v.AsNumeric());
          st.sum += d;
          if (v.type() == ValueType::kFloat) st.sum_is_float = true;
          break;
        }
        case AggFunc::kMin:
          if (st.min.is_null() || v < st.min) st.min = v;
          break;
        case AggFunc::kMax:
          if (st.max.is_null() || st.max < v) st.max = v;
          break;
        case AggFunc::kAny:
          if (st.any.is_null()) st.any = v;
          break;
      }
    }
  }

  if (groups.empty() && group_by.empty()) {
    // SQL-style global aggregate over an empty input.
    groups.try_emplace({}).first->second.resize(aggs.size());
  }

  for (const auto& [key, states] : groups) {
    Row row;
    row.values = key;
    for (size_t i = 0; i < aggs.size(); ++i) {
      const AggState& st = states[i];
      switch (aggs[i].func) {
        case AggFunc::kCount:
          row.values.push_back(Value(st.count));
          break;
        case AggFunc::kSum:
          if (st.count == 0) {
            row.values.push_back(Value::Null());
          } else if (st.sum_is_float) {
            row.values.push_back(Value(st.sum));
          } else {
            row.values.push_back(Value(static_cast<int64_t>(st.sum)));
          }
          break;
        case AggFunc::kAvg:
          row.values.push_back(st.count == 0
                                   ? Value::Null()
                                   : Value(st.sum / st.count));
          break;
        case AggFunc::kMin:
          row.values.push_back(st.min);
          break;
        case AggFunc::kMax:
          row.values.push_back(st.max);
          break;
        case AggFunc::kAny:
          row.values.push_back(st.any);
          break;
      }
    }
    TDB_RETURN_IF_ERROR(out.AddRow(std::move(row)));
  }
  return out;
}

}  // namespace temporadb
