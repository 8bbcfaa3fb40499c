#include "common/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

namespace temporadb {
namespace {

TEST(Value, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{42}).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value(3.5).AsFloat(), 3.5);
  EXPECT_EQ(Value("hello").AsString(), "hello");
  EXPECT_EQ(Value(true).AsBool(), true);
  Date d = *Date::Parse("12/15/82");
  EXPECT_EQ(Value(d).AsDate(), d);
}

TEST(Value, Equality) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_NE(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_NE(Value(int64_t{1}), Value(1.0));  // Different representations.
  EXPECT_EQ(Value("a"), Value(std::string("a")));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(Value, CompareNumericPromotion) {
  Result<int> c = Value::Compare(Value(int64_t{3}), Value(3.0));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, 0);
  EXPECT_EQ(*Value::Compare(Value(int64_t{2}), Value(2.5)), -1);
  EXPECT_EQ(*Value::Compare(Value(2.5), Value(int64_t{2})), 1);
}

TEST(Value, CompareStringsAndDates) {
  EXPECT_EQ(*Value::Compare(Value("abc"), Value("abd")), -1);
  Date d1 = *Date::Parse("09/01/77");
  Date d2 = *Date::Parse("12/01/82");
  EXPECT_EQ(*Value::Compare(Value(d1), Value(d2)), -1);
  EXPECT_EQ(*Value::Compare(Value(d2), Value(d2)), 0);
}

TEST(Value, CompareCrossTypeIsError) {
  EXPECT_FALSE(Value::Compare(Value("a"), Value(int64_t{1})).ok());
  EXPECT_FALSE(
      Value::Compare(Value(*Date::Parse("09/01/77")), Value("09/01/77")).ok());
}

TEST(Value, CompareNulls) {
  EXPECT_EQ(*Value::Compare(Value::Null(), Value::Null()), 0);
  EXPECT_EQ(*Value::Compare(Value::Null(), Value(int64_t{1})), -1);
  EXPECT_EQ(*Value::Compare(Value(int64_t{1}), Value::Null()), 1);
}

TEST(Value, TotalOrderAcrossTypes) {
  // NULL < bool < numeric < string < date.
  std::vector<Value> values{Value(*Date::Parse("01/01/80")), Value("s"),
                            Value(int64_t{5}), Value(true), Value::Null()};
  std::sort(values.begin(), values.end(),
            [](const Value& a, const Value& b) { return a < b; });
  EXPECT_TRUE(values[0].is_null());
  EXPECT_EQ(values[1].type(), ValueType::kBool);
  EXPECT_EQ(values[2].type(), ValueType::kInt);
  EXPECT_EQ(values[3].type(), ValueType::kString);
  EXPECT_EQ(values[4].type(), ValueType::kDate);
}

TEST(Value, IntFloatInterleaveInOrder) {
  EXPECT_TRUE(Value(int64_t{1}) < Value(1.5));
  EXPECT_TRUE(Value(1.5) < Value(int64_t{2}));
}

TEST(Value, HashEqualValuesAgree) {
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  EXPECT_EQ(Value(int64_t{7}).Hash(), Value(int64_t{7}).Hash());
  // Type participates in the hash.
  EXPECT_NE(Value(int64_t{0}).Hash(), Value(false).Hash());
}

TEST(Value, HashSpreads) {
  std::set<size_t> hashes;
  for (int64_t i = 0; i < 1000; ++i) {
    hashes.insert(Value(i).Hash());
  }
  EXPECT_EQ(hashes.size(), 1000u);
}

TEST(Value, AsNumeric) {
  EXPECT_DOUBLE_EQ(*Value(int64_t{4}).AsNumeric(), 4.0);
  EXPECT_DOUBLE_EQ(*Value(2.5).AsNumeric(), 2.5);
  EXPECT_FALSE(Value("4").AsNumeric().ok());
  EXPECT_FALSE(Value::Null().AsNumeric().ok());
}

TEST(Value, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value("x").ToString(), "x");
  EXPECT_EQ(Value(*Date::Parse("12/15/82")).ToString(), "12/15/82");
}

// --- The numeric order, pinned ---------------------------------------------
//
// The reference model compares values with the same `Value::Compare` as the
// engine, so a fault in this order cannot show as an oracle mismatch; these
// cases pin it directly.  Floats follow PostgreSQL's float order: NaN equals
// NaN and sorts above every number, -0.0 equals 0.0.  Ints and floats
// compare exactly, but `==` still tells an int from a float.

constexpr int64_t kTwo53 = int64_t{1} << 53;

// One pair and the three-way answer `Compare(a, b)` must give.
struct OrderCase {
  Value a;
  Value b;
  int cmp;
};

void ExpectOrder(const OrderCase& c) {
  SCOPED_TRACE(std::string(ValueTypeName(c.a.type())) + " " +
               c.a.ToString() + " vs " +
               std::string(ValueTypeName(c.b.type())) + " " +
               c.b.ToString());
  ASSERT_TRUE(Value::Compare(c.a, c.b).ok());
  EXPECT_EQ(*Value::Compare(c.a, c.b), c.cmp);
  EXPECT_EQ(*Value::Compare(c.b, c.a), -c.cmp);
  EXPECT_EQ(c.a < c.b, c.cmp < 0);
  EXPECT_EQ(c.b < c.a, c.cmp > 0);
  const bool equal = c.cmp == 0 && c.a.type() == c.b.type();
  EXPECT_EQ(c.a == c.b, equal);
  EXPECT_EQ(c.b == c.a, equal);
  EXPECT_EQ(c.a != c.b, !equal);
  if (equal) {
    EXPECT_EQ(c.a.Hash(), c.b.Hash());
  }
}

TEST(ValueOrder, NaNEqualsNaNAndSortsAboveEveryNumber) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Value v_nan(nan);
  for (const OrderCase& c : std::vector<OrderCase>{
           {v_nan, v_nan, 0},
           {v_nan, Value(-nan), 0},
           {v_nan, Value(inf - inf), 0},
           {v_nan, Value(inf), 1},
           {v_nan, Value(-inf), 1},
           {v_nan, Value(0.0), 1},
           {v_nan, Value(-0.0), 1},
           {v_nan, Value(2.0), 1},
           {v_nan, Value(std::numeric_limits<double>::max()), 1},
           {v_nan, Value(int64_t{0}), 1},
           {v_nan, Value(int64_t{2}), 1},
           {v_nan, Value(kTwo53 + 1), 1},
           {v_nan, Value(std::numeric_limits<int64_t>::max()), 1},
           {v_nan, Value(std::numeric_limits<int64_t>::min()), 1},
       }) {
    ExpectOrder(c);
  }
}

TEST(ValueOrder, NegativeZeroEqualsZero) {
  for (const OrderCase& c : std::vector<OrderCase>{
           {Value(-0.0), Value(0.0), 0},
           {Value(-0.0), Value(int64_t{0}), 0},
           {Value(0.0), Value(int64_t{0}), 0},
           {Value(-0.0), Value(std::numeric_limits<double>::denorm_min()),
            -1},
           {Value(-0.0), Value(-std::numeric_limits<double>::denorm_min()),
            1},
       }) {
    ExpectOrder(c);
  }
}

TEST(ValueOrder, IntAgainstFloatIsExactAroundTwoTo53) {
  const double inf = std::numeric_limits<double>::infinity();
  const double f53 = static_cast<double>(kTwo53);  // Exact.
  std::vector<OrderCase> cases;
  for (int sign : {1, -1}) {
    const double f = sign * f53;
    const int64_t i = sign * kTwo53;
    cases.push_back({Value(i), Value(f), 0});
    cases.push_back({Value(i + sign), Value(f), sign});  // 2^53+1 > 2^53.
    cases.push_back({Value(i - sign), Value(f), -sign});
    cases.push_back({Value(i + sign), Value(f + sign * 2.0), -sign});
    cases.push_back({Value(i + sign), Value(sign * inf), -sign});
    cases.push_back({Value(i + sign), Value(i), sign});
    cases.push_back({Value(f), Value(f + sign * 2.0), -sign});
  }
  for (const OrderCase& c : cases) ExpectOrder(c);
}

TEST(ValueOrder, SortingIsAStrictWeakOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Value> values{
      Value(nan),          Value(2.0),         Value(int64_t{2}),
      Value(-0.0),         Value(inf),         Value(-nan),
      Value(0.0),          Value(int64_t{0}),  Value(-inf),
      Value(kTwo53 + 1),   Value(kTwo53),      Value(kTwo53 - 1),
      Value(static_cast<double>(kTwo53)),      Value(-kTwo53 - 1),
      Value(static_cast<double>(-kTwo53)),     Value(nan),
  };
  std::sort(values.begin(), values.end());
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    EXPECT_LE(*Value::Compare(values[i], values[i + 1]), 0)
        << values[i].ToString() << " before " << values[i + 1].ToString();
  }
  EXPECT_TRUE(std::isnan(values.back().AsFloat()));
  // Every NaN is one set element, and so are -0.0 and 0.0.
  const std::set<Value> floats{Value(nan), Value(-nan), Value(-0.0),
                               Value(0.0)};
  EXPECT_EQ(floats.size(), 2u);
}

TEST(ValueTypeName, Coverage) {
  EXPECT_EQ(ValueTypeName(ValueType::kNull), "null");
  EXPECT_EQ(ValueTypeName(ValueType::kInt), "int");
  EXPECT_EQ(ValueTypeName(ValueType::kFloat), "float");
  EXPECT_EQ(ValueTypeName(ValueType::kString), "string");
  EXPECT_EQ(ValueTypeName(ValueType::kDate), "date");
  EXPECT_EQ(ValueTypeName(ValueType::kBool), "bool");
}

}  // namespace
}  // namespace temporadb
