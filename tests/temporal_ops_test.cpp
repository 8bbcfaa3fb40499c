#include "rel/temporal_ops.h"

#include <gtest/gtest.h>

#include "common/date.h"

namespace temporadb {
namespace {

TEST(TemporalExprs, VarAndLiteral) {
  PeriodBinding binding{Period(Chronon(0), Chronon(10))};
  TemporalExprPtr var = MakeVarPeriod(0, "f");
  EXPECT_EQ(*var->Eval(binding), Period(Chronon(0), Chronon(10)));
  EXPECT_EQ(var->ToString(), "f");
  EXPECT_FALSE(MakeVarPeriod(3, "g")->Eval(binding).ok());
  TemporalExprPtr lit = MakePeriodLiteral(Period::At(Chronon(5)), "\"d\"");
  EXPECT_EQ(*lit->Eval({}), Period::At(Chronon(5)));
}

TEST(TemporalExprs, Endpoints) {
  PeriodBinding binding{Period(Chronon(10), Chronon(20))};
  TemporalExprPtr var = MakeVarPeriod(0, "f");
  EXPECT_EQ(*MakeBeginOf(var)->Eval(binding), Period::At(Chronon(10)));
  EXPECT_EQ(*MakeEndOf(var)->Eval(binding), Period::At(Chronon(20)));
  // Endpoint of an empty period is an error.
  PeriodBinding empty{Period(Chronon(5), Chronon(5))};
  EXPECT_FALSE(MakeBeginOf(var)->Eval(empty).ok());
}

TEST(TemporalExprs, OverlapAndExtend) {
  PeriodBinding binding{Period(Chronon(0), Chronon(10)),
                        Period(Chronon(5), Chronon(15))};
  TemporalExprPtr a = MakeVarPeriod(0, "a");
  TemporalExprPtr b = MakeVarPeriod(1, "b");
  EXPECT_EQ(*MakeOverlapExpr(a, b)->Eval(binding),
            Period(Chronon(5), Chronon(10)));
  EXPECT_EQ(*MakeExtendExpr(a, b)->Eval(binding),
            Period(Chronon(0), Chronon(15)));
}

TEST(TemporalPreds, CompareKinds) {
  PeriodBinding binding{Period(Chronon(0), Chronon(10)),
                        Period(Chronon(10), Chronon(20))};
  TemporalExprPtr a = MakeVarPeriod(0, "a");
  TemporalExprPtr b = MakeVarPeriod(1, "b");
  EXPECT_TRUE(*MakePrecedePred(a, b)->Eval(binding));
  EXPECT_FALSE(*MakePrecedePred(b, a)->Eval(binding));
  EXPECT_FALSE(*MakeOverlapPred(a, b)->Eval(binding));
  EXPECT_TRUE(*MakeEqualPred(a, a)->Eval(binding));
  EXPECT_FALSE(*MakeEqualPred(a, b)->Eval(binding));
}

TEST(TemporalPreds, Connectives) {
  PeriodBinding binding{Period(Chronon(0), Chronon(10)),
                        Period(Chronon(5), Chronon(15))};
  TemporalExprPtr a = MakeVarPeriod(0, "a");
  TemporalExprPtr b = MakeVarPeriod(1, "b");
  TemporalPredPtr overlap = MakeOverlapPred(a, b);   // true
  TemporalPredPtr precede = MakePrecedePred(a, b);   // false
  EXPECT_FALSE(*MakeAndPred(overlap, precede)->Eval(binding));
  EXPECT_TRUE(*MakeOrPred(overlap, precede)->Eval(binding));
  EXPECT_TRUE(*MakeNotPred(precede)->Eval(binding));
  EXPECT_EQ(MakeAndPred(overlap, precede)->ToString(),
            "((a overlap b) and (a precede b))");
}

TEST(TemporalPreds, PaperWhenClause) {
  // "when f1 overlap start of f2": Merrie-full valid [12/01/82, inf),
  // Tom valid [12/05/82, inf).
  PeriodBinding binding{
      Period(Date::Parse("12/01/82")->chronon(), Chronon::Forever()),
      Period(Date::Parse("12/05/82")->chronon(), Chronon::Forever())};
  TemporalPredPtr when = MakeOverlapPred(
      MakeVarPeriod(0, "f1"), MakeBeginOf(MakeVarPeriod(1, "f2")));
  EXPECT_TRUE(*when->Eval(binding));
  // Merrie-associate valid [09/01/77, 12/01/82) does NOT overlap Tom's
  // arrival.
  PeriodBinding binding2{
      Period(Date::Parse("09/01/77")->chronon(),
             Date::Parse("12/01/82")->chronon()),
      binding[1]};
  EXPECT_FALSE(*when->Eval(binding2));
}

}  // namespace
}  // namespace temporadb
