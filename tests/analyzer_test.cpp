#include "tquel/analyzer.h"

#include <gtest/gtest.h>

#include "tquel/parser.h"

namespace temporadb {
namespace tquel {
namespace {

class AnalyzerTest : public ::testing::Test {
 protected:
  void AddRelation(const char* name, TemporalClass cls) {
    RelationInfo info;
    info.id = next_id_++;
    info.name = name;
    info.schema = *Schema::Make({Attribute{"name", Type::String()},
                                 Attribute{"rank", Type::String()},
                                 Attribute{"salary", Type::Int()},
                                 Attribute{"hired", Type::DateType()}});
    info.temporal_class = cls;
    relations_[name] = MakeStoredRelation(info);
  }

  void AddRange(const char* var, const char* relation) {
    ranges_[var] = relation;
  }

  AnalyzerContext Context() {
    AnalyzerContext ctx;
    ctx.get_relation = [this](std::string_view name)
        -> Result<StoredRelation*> {
      auto it = relations_.find(std::string(name));
      if (it == relations_.end()) return Status::NotFound("no relation");
      return it->second.get();
    };
    ctx.ranges = &ranges_;
    return ctx;
  }

  Result<BoundRetrieve> Analyze(std::string_view src) {
    Result<Statement> stmt = ParseOne(src);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    if (!stmt.ok()) return stmt.status();
    AnalyzerContext ctx = Context();
    return AnalyzeRetrieve(std::get<RetrieveStmt>(*stmt), ctx);
  }

  uint64_t next_id_ = 1;
  std::map<std::string, std::unique_ptr<StoredRelation>> relations_;
  std::map<std::string, std::string> ranges_;
};

TEST_F(AnalyzerTest, ResolvesQualifiedColumns) {
  AddRelation("faculty", TemporalClass::kStatic);
  AddRange("f", "faculty");
  Result<BoundRetrieve> bound =
      Analyze("retrieve (f.rank) where f.name = \"Merrie\"");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound->participants.size(), 1u);
  EXPECT_EQ(bound->participants[0].name, "f");
  EXPECT_EQ(bound->target_names[0], "rank");
  EXPECT_EQ(bound->target_types[0], ValueType::kString);
  EXPECT_EQ(bound->result_class, TemporalClass::kStatic);
}

TEST_F(AnalyzerTest, ResolvesBareColumns) {
  AddRelation("faculty", TemporalClass::kStatic);
  AddRange("f", "faculty");
  Result<BoundRetrieve> bound = Analyze("retrieve (rank)");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound->participants.size(), 1u);
}

TEST_F(AnalyzerTest, AmbiguousBareColumnRejected) {
  AddRelation("faculty", TemporalClass::kStatic);
  AddRelation("students", TemporalClass::kStatic);
  AddRange("f", "faculty");
  AddRange("s", "students");
  Result<BoundRetrieve> bound = Analyze("retrieve (rank)");
  ASSERT_FALSE(bound.ok());
  EXPECT_NE(bound.status().message().find("ambiguous"), std::string::npos);
}

TEST_F(AnalyzerTest, UnknownVariableAndAttribute) {
  AddRelation("faculty", TemporalClass::kStatic);
  AddRange("f", "faculty");
  EXPECT_FALSE(Analyze("retrieve (g.rank)").ok());
  EXPECT_FALSE(Analyze("retrieve (f.missing)").ok());
  EXPECT_FALSE(Analyze("retrieve (missing)").ok());
}

TEST_F(AnalyzerTest, ClauseLegalityPerClass) {
  AddRelation("stat", TemporalClass::kStatic);
  AddRelation("roll", TemporalClass::kRollback);
  AddRelation("hist", TemporalClass::kHistorical);
  AddRelation("temp", TemporalClass::kTemporal);
  AddRange("s", "stat");
  AddRange("r", "roll");
  AddRange("h", "hist");
  AddRange("t", "temp");

  // Figure 10, row by row.
  EXPECT_FALSE(Analyze("retrieve (s.rank) as of \"01/01/80\"").ok());
  EXPECT_FALSE(Analyze("retrieve (s.rank) when s overlap s").ok());
  EXPECT_TRUE(Analyze("retrieve (r.rank) as of \"01/01/80\"").ok());
  EXPECT_FALSE(Analyze("retrieve (r.rank) when r overlap r").ok());
  EXPECT_FALSE(Analyze("retrieve (h.rank) as of \"01/01/80\"").ok());
  EXPECT_TRUE(Analyze("retrieve (h.rank) when h overlap h").ok());
  EXPECT_TRUE(
      Analyze("retrieve (t.rank) when t overlap t as of \"01/01/80\"").ok());
  // The violations are NotSupported, not parse errors.
  EXPECT_TRUE(Analyze("retrieve (s.rank) as of \"01/01/80\"")
                  .status()
                  .IsNotSupported());
}

// The full sweep: every temporal class crossed with every retrieve clause
// (Figures 10-12).  `where` restricts explicit attributes and is legal
// everywhere; `when`/`valid` are historical constructs requiring valid
// time; `as of` is a rollback construct requiring transaction time.
// DESIGN.md §11.3 carries this same matrix in machine-readable form and
// tools/tdb_lint.py keeps it in sync with the analyzer — this test is the
// runtime twin of that compile-time check.
TEST_F(AnalyzerTest, ClauseLegalityMatrix) {
  AddRelation("stat", TemporalClass::kStatic);
  AddRelation("roll", TemporalClass::kRollback);
  AddRelation("hist", TemporalClass::kHistorical);
  AddRelation("temp", TemporalClass::kTemporal);
  AddRange("s", "stat");
  AddRange("r", "roll");
  AddRange("h", "hist");
  AddRange("t", "temp");

  struct Row {
    const char* var;
    TemporalClass cls;
    bool when_ok;
    bool valid_ok;
    bool asof_ok;
  };
  constexpr Row kMatrix[] = {
      {"s", TemporalClass::kStatic, false, false, false},
      {"r", TemporalClass::kRollback, false, false, true},
      {"h", TemporalClass::kHistorical, true, true, false},
      {"t", TemporalClass::kTemporal, true, true, true},
  };

  for (const Row& row : kMatrix) {
    SCOPED_TRACE(std::string(TemporalClassName(row.cls)));
    const std::string v = row.var;

    // `where` is non-temporal: legal on every kind.
    EXPECT_TRUE(
        Analyze("retrieve (" + v + ".rank) where " + v + ".name = \"x\"")
            .ok());

    Result<BoundRetrieve> when_bound =
        Analyze("retrieve (" + v + ".rank) when " + v + " overlap " + v);
    EXPECT_EQ(when_bound.ok(), row.when_ok);
    if (!row.when_ok) {
      EXPECT_TRUE(when_bound.status().IsNotSupported());
    }

    Result<BoundRetrieve> valid_bound = Analyze(
        "retrieve (" + v + ".rank) valid from \"01/01/80\" to \"06/01/80\"");
    EXPECT_EQ(valid_bound.ok(), row.valid_ok);
    if (!row.valid_ok) {
      EXPECT_TRUE(valid_bound.status().IsNotSupported());
    }

    Result<BoundRetrieve> asof_bound =
        Analyze("retrieve (" + v + ".rank) as of \"01/01/80\"");
    EXPECT_EQ(asof_bound.ok(), row.asof_ok);
    if (!row.asof_ok) {
      EXPECT_TRUE(asof_bound.status().IsNotSupported());
    }

    // Clause combinations never launder an illegal clause: the conjunction
    // is legal iff every component is.
    Result<BoundRetrieve> all = Analyze(
        "retrieve (" + v + ".rank) valid from \"01/01/80\" to \"06/01/80\" "
        "where " + v + ".name = \"x\" when " + v + " overlap " + v +
        " as of \"01/01/80\"");
    EXPECT_EQ(all.ok(), row.when_ok && row.valid_ok && row.asof_ok);
  }
}

TEST_F(AnalyzerTest, MixedParticipantsTakeTheMeet) {
  AddRelation("hist", TemporalClass::kHistorical);
  AddRelation("temp", TemporalClass::kTemporal);
  AddRange("h", "hist");
  AddRange("t", "temp");
  Result<BoundRetrieve> bound =
      Analyze("retrieve (h.rank, rank2 = t.rank)");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound->result_class, TemporalClass::kHistorical);
  // A when clause is fine (both have valid time)...
  EXPECT_TRUE(Analyze("retrieve (h.rank) when h overlap t").ok());
  // ...but as-of is not (the historical participant lacks txn time).
  EXPECT_FALSE(Analyze("retrieve (h.rank) when h overlap t "
                       "as of \"01/01/80\"")
                   .ok());
}

TEST_F(AnalyzerTest, ResultClassPerParticipants) {
  AddRelation("roll", TemporalClass::kRollback);
  AddRelation("temp", TemporalClass::kTemporal);
  AddRange("r", "roll");
  AddRange("t", "temp");
  EXPECT_EQ(Analyze("retrieve (r.rank)")->result_class,
            TemporalClass::kStatic);
  EXPECT_EQ(Analyze("retrieve (t.rank)")->result_class,
            TemporalClass::kTemporal);
  // rollback x temporal -> static (the rollback side derives static).
  EXPECT_EQ(Analyze("retrieve (r.rank, t2 = t.rank)")->result_class,
            TemporalClass::kStatic);
}

TEST_F(AnalyzerTest, AsOfMustBeConstant) {
  AddRelation("temp", TemporalClass::kTemporal);
  AddRange("t", "temp");
  Result<BoundRetrieve> bound = Analyze("retrieve (t.rank) as of begin of t");
  ASSERT_FALSE(bound.ok());
  EXPECT_TRUE(bound.status().IsInvalidArgument());
}

TEST_F(AnalyzerTest, BadDateLiteralInTemporalExpr) {
  AddRelation("temp", TemporalClass::kTemporal);
  AddRange("t", "temp");
  EXPECT_FALSE(Analyze("retrieve (t.rank) as of \"not a date\"").ok());
}

TEST_F(AnalyzerTest, DateCoercionInComparisons) {
  AddRelation("faculty", TemporalClass::kStatic);
  AddRange("f", "faculty");
  Result<BoundRetrieve> bound =
      Analyze("retrieve (f.rank) where f.hired < \"01/01/80\"");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  // Evaluate the compiled predicate against a row with a date value.
  std::vector<Value> row{Value("x"), Value("y"), Value(int64_t{1}),
                         Value(*Date::Parse("06/01/79"))};
  Result<bool> hit = EvalPredicate(*bound->where, row);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(*hit);
  row[3] = Value(*Date::Parse("06/01/81"));
  EXPECT_FALSE(*EvalPredicate(*bound->where, row));
}

TEST_F(AnalyzerTest, TypeInference) {
  AddRelation("faculty", TemporalClass::kStatic);
  AddRange("f", "faculty");
  Result<BoundRetrieve> bound = Analyze(
      "retrieve (f.salary, bumped = f.salary * 2, rate = f.salary * 1.5, "
      "senior = f.salary > 50000)");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound->target_types[0], ValueType::kInt);
  EXPECT_EQ(bound->target_types[1], ValueType::kInt);
  EXPECT_EQ(bound->target_types[2], ValueType::kFloat);
  EXPECT_EQ(bound->target_types[3], ValueType::kBool);
}

TEST_F(AnalyzerTest, TargetVarsTracked) {
  AddRelation("a", TemporalClass::kHistorical);
  AddRelation("b", TemporalClass::kHistorical);
  AddRange("x", "a");
  AddRange("y", "b");
  Result<BoundRetrieve> bound =
      Analyze("retrieve (x.rank) where y.name = \"t\"");
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->participants.size(), 2u);
  // Only x feeds the target list.
  ASSERT_EQ(bound->target_vars.size(), 1u);
  EXPECT_EQ(bound->target_vars[0], 0u);
}

TEST_F(AnalyzerTest, DmlValidClauseResolution) {
  Result<Statement> stmt = ParseOne(
      "append to r (a = 1) valid from \"01/01/80\" to \"06/01/80\"");
  ASSERT_TRUE(stmt.ok());
  const AppendStmt& append = std::get<AppendStmt>(*stmt);
  Result<std::optional<Period>> period = ResolveDmlValidClause(append.valid);
  ASSERT_TRUE(period.ok()) << period.status().ToString();
  ASSERT_TRUE(period->has_value());
  EXPECT_EQ((*period)->begin(), Date::Parse("01/01/80")->chronon());
  EXPECT_EQ((*period)->end(), Date::Parse("06/01/80")->chronon());
}

TEST_F(AnalyzerTest, DmlValidAtResolvesToInstant) {
  Result<Statement> stmt =
      ParseOne("append to r (a = 1) valid at \"12/11/82\"");
  ASSERT_TRUE(stmt.ok());
  Result<std::optional<Period>> period =
      ResolveDmlValidClause(std::get<AppendStmt>(*stmt).valid);
  ASSERT_TRUE(period.ok());
  EXPECT_TRUE((*period)->IsInstant());
}

TEST_F(AnalyzerTest, DmlEmptyValidPeriodRejected) {
  Result<Statement> stmt = ParseOne(
      "append to r (a = 1) valid from \"06/01/80\" to \"01/01/80\"");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(
      ResolveDmlValidClause(std::get<AppendStmt>(*stmt).valid).ok());
}

// Renders participant 0's probe key as "attr [lo, hi)", "-" for none.
std::string ProbeKeyOf(const Result<BoundRetrieve>& bound) {
  if (!bound.ok()) return bound.status().ToString();
  const std::optional<KeyRanges>& key = bound->probe_keys[0];
  if (!key.has_value()) return "-";
  std::string out = std::to_string(key->attr);
  for (const KeyRange& r : key->ranges) {
    out += " ";
    out += r.lo ? (r.lo->inclusive ? "[" : "(") + r.lo->value.ToString()
                : "(-";
    out += ", ";
    out += r.hi ? r.hi->value.ToString() + (r.hi->inclusive ? "]" : ")")
                : "+)";
  }
  return out;
}

// `ProbeKey`: the literal conjuncts on one indexed attribute intersect into
// one key range; an equality picks its attribute first.  A literal of
// another type, `!=`, an `or`, a conjunct that can fail and an unindexed
// attribute give none.
TEST_F(AnalyzerTest, ProbeKeyIntersectsLiteralBounds) {
  AddRelation("faculty", TemporalClass::kStatic);
  AddRange("f", "faculty");
  StoredRelation* rel = relations_["faculty"].get();
  ASSERT_TRUE(rel->CreateIndex("name").ok());
  ASSERT_TRUE(rel->CreateIndex("salary").ok());
  ASSERT_TRUE(rel->CreateIndex("hired").ok());
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"f.salary >= 10 and f.salary < 20", "2 [10, 20)"},
      {"10 < f.salary and 20 >= f.salary", "2 (10, 20]"},
      {"f.salary >= 5 and f.salary > 5 and f.salary < 9 and f.salary <= 9",
       "2 (5, 9)"},
      {"f.salary > 5 and f.salary >= 5", "2 (5, +)"},
      {"f.salary <= 7", "2 (-, 7]"},
      {"f.salary = 7 and f.salary >= 3", "2 [7, 7]"},
      {"f.salary > 30 and f.salary < 10", "2 (30, 10)"},
      {"f.salary >= 10 and f.name = \"x\"", "0 [x, x]"},
      {"f.rank = \"x\" and f.salary > 1", "2 (1, +)"},
      {"f.hired >= \"01/01/80\"", "3 [01/01/80, +)"},
      {"f.salary < 10.5", "-"},
      {"f.salary != 3", "-"},
      {"f.salary >= 10 or f.salary < 2", "-"},
      {"f.salary >= 10 and f.salary / 0 > 1", "-"},
      {"f.rank > \"a\"", "-"},
  };
  for (const auto& [where, want] : cases) {
    EXPECT_EQ(ProbeKeyOf(Analyze("retrieve (f.rank) where " + where)), want)
        << where;
  }
}

}  // namespace
}  // namespace tquel
}  // namespace temporadb
