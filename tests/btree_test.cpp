#include "index/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "common/random.h"

namespace temporadb {
namespace {

// The postings of exactly `key`: the point range [key, key].
std::vector<uint64_t> Lookup(const BTreeIndex& index, const Value& key) {
  std::vector<uint64_t> out;
  index.ForEachInRange(KeyBound{key, true}, KeyBound{key, true},
                       [&](const Value& k, const std::vector<uint64_t>& rows) {
                         EXPECT_EQ(k, key);
                         out.insert(out.end(), rows.begin(), rows.end());
                         return true;
                       });
  return out;
}

TEST(BTree, EmptyLookup) {
  BTreeIndex index;
  EXPECT_TRUE(Lookup(index, Value(int64_t{1})).empty());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.CheckInvariants().ok());
}

TEST(BTree, InsertAndLookup) {
  BTreeIndex index;
  index.Insert(Value("merrie"), 1);
  index.Insert(Value("tom"), 2);
  EXPECT_EQ(Lookup(index, Value("merrie")), std::vector<uint64_t>{1});
  EXPECT_EQ(Lookup(index, Value("tom")), std::vector<uint64_t>{2});
  EXPECT_TRUE(Lookup(index, Value("mike")).empty());
  EXPECT_EQ(index.size(), 2u);
}

TEST(BTree, DuplicateKeysAccumulate) {
  BTreeIndex index;
  for (uint64_t row = 0; row < 10; ++row) {
    index.Insert(Value(int64_t{7}), row);
  }
  EXPECT_EQ(Lookup(index, Value(int64_t{7})).size(), 10u);
  EXPECT_EQ(index.size(), 10u);
}

TEST(BTree, SplitsGrowHeight) {
  BTreeIndex index;
  EXPECT_EQ(index.height(), 0);
  for (int64_t i = 0; i < 10000; ++i) {
    index.Insert(Value(i), static_cast<uint64_t>(i));
  }
  EXPECT_GE(index.height(), 3);
  ASSERT_TRUE(index.CheckInvariants().ok());
  for (int64_t i = 0; i < 10000; i += 97) {
    ASSERT_EQ(Lookup(index, Value(i)).size(), 1u) << i;
  }
}

TEST(BTree, ReverseAndRandomInsertionOrders) {
  for (int mode = 0; mode < 2; ++mode) {
    BTreeIndex index;
    std::vector<int64_t> keys;
    for (int64_t i = 0; i < 2000; ++i) keys.push_back(i);
    if (mode == 0) {
      std::reverse(keys.begin(), keys.end());
    } else {
      Random rng(77);
      for (size_t i = keys.size(); i > 1; --i) {
        std::swap(keys[i - 1], keys[rng.Uniform(i)]);
      }
    }
    for (int64_t k : keys) index.Insert(Value(k), static_cast<uint64_t>(k));
    ASSERT_TRUE(index.CheckInvariants().ok());
    for (int64_t k = 0; k < 2000; k += 53) {
      EXPECT_EQ(Lookup(index, Value(k)), std::vector<uint64_t>{
                                            static_cast<uint64_t>(k)});
    }
  }
}

TEST(BTree, RemovePostings) {
  BTreeIndex index;
  index.Insert(Value("k"), 1);
  index.Insert(Value("k"), 2);
  ASSERT_TRUE(index.Remove(Value("k"), 1).ok());
  EXPECT_EQ(Lookup(index, Value("k")), std::vector<uint64_t>{2});
  ASSERT_TRUE(index.Remove(Value("k"), 2).ok());
  EXPECT_TRUE(Lookup(index, Value("k")).empty());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.Remove(Value("k"), 2).IsNotFound());
  EXPECT_TRUE(index.Remove(Value("other"), 1).IsNotFound());
}

TEST(BTree, MixedStringKeys) {
  BTreeIndex index;
  Random rng(5);
  std::map<std::string, std::vector<uint64_t>> expected;
  for (uint64_t row = 0; row < 3000; ++row) {
    std::string key = rng.NextName(3);  // Many duplicates.
    index.Insert(Value(key), row);
    expected[key].push_back(row);
  }
  ASSERT_TRUE(index.CheckInvariants().ok());
  for (const auto& [key, rows] : expected) {
    std::vector<uint64_t> got = Lookup(index, Value(key));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, rows) << key;
  }
}

// Parameterized churn sweep: interleave inserts and removes at several
// scales; the index must agree with a reference map throughout.
class BTreeChurnTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreeChurnTest, MatchesReferenceModel) {
  const int scale = GetParam();
  BTreeIndex index;
  std::multimap<int64_t, uint64_t> model;
  Random rng(static_cast<uint64_t>(scale) * 31 + 7);
  for (int op = 0; op < scale; ++op) {
    int64_t key = static_cast<int64_t>(rng.Uniform(scale / 4 + 1));
    if (!model.empty() && rng.OneIn(3)) {
      // Remove a random existing entry.
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_TRUE(index.Remove(Value(it->first), it->second).ok());
      model.erase(it);
    } else {
      uint64_t row = static_cast<uint64_t>(op);
      index.Insert(Value(key), row);
      model.emplace(key, row);
    }
  }
  ASSERT_TRUE(index.CheckInvariants().ok());
  EXPECT_EQ(index.size(), model.size());
  // Every key's postings must match the model exactly, absent keys none.
  for (int64_t key = 0; key <= scale / 4 + 1; ++key) {
    std::vector<uint64_t> got = Lookup(index, Value(key));
    std::vector<uint64_t> want;
    auto [lo, hi] = model.equal_range(key);
    for (auto it = lo; it != hi; ++it) want.push_back(it->second);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, BTreeChurnTest,
                         ::testing::Values(64, 256, 1024, 4096));

// A range end for the brute-force filter and the walk alike.
using Bound = std::optional<KeyBound>;

bool InRange(const Value& k, const Bound& lo, const Bound& hi) {
  if (lo.has_value() &&
      (lo->inclusive ? k < lo->value : !(lo->value < k))) {
    return false;
  }
  return !hi.has_value() ||
         (hi->inclusive ? !(hi->value < k) : k < hi->value);
}

std::string Describe(const Bound& lo, const Bound& hi) {
  return (lo ? (lo->inclusive ? "[" : "(") + lo->value.ToString() : "(-") +
         ", " +
         (hi ? hi->value.ToString() + (hi->inclusive ? "]" : ")") : "+)");
}

// Random keys with duplicates and nulls, a third of the postings removed
// again (lazy deletion leaves stale separators behind), and random ranges:
// inclusive and exclusive ends, open ends, reversed and empty ranges.  The
// walk must give exactly the brute-force filter's keys, in key order, each
// with its postings.
class BTreeRangeTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreeRangeTest, MatchesBruteForceFilter) {
  const int scale = GetParam();
  const int64_t domain = scale / 3 + 1;
  BTreeIndex index;
  std::map<Value, std::vector<uint64_t>> model;
  Random rng(static_cast<uint64_t>(scale) * 131 + 3);
  for (int op = 0; op < scale; ++op) {
    const Value key = rng.OneIn(20)
                          ? Value::Null()
                          : Value(static_cast<int64_t>(rng.Uniform(domain)));
    index.Insert(key, static_cast<uint64_t>(op));
    model[key].push_back(static_cast<uint64_t>(op));
  }
  for (int op = 0; op < scale / 3; ++op) {
    auto it = model.begin();
    std::advance(it, rng.Uniform(model.size()));
    std::vector<uint64_t>& rows = it->second;
    const size_t pos = rng.Uniform(rows.size());
    ASSERT_TRUE(index.Remove(it->first, rows[pos]).ok());
    rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(pos));
    if (rows.empty()) model.erase(it);
  }
  ASSERT_TRUE(index.CheckInvariants().ok());
  if (scale >= 20000) {
    EXPECT_GE(index.height(), 3);
  }

  const auto random_bound = [&]() -> Bound {
    if (rng.OneIn(5)) return std::nullopt;
    const int64_t v = static_cast<int64_t>(rng.Uniform(domain + 4)) - 2;
    return KeyBound{rng.OneIn(15) ? Value::Null() : Value(v), rng.OneIn(2)};
  };
  std::vector<std::pair<Bound, Bound>> ranges;
  for (int q = 0; q < 300; ++q) {
    ranges.emplace_back(random_bound(), random_bound());
  }
  const Value mid(domain / 2);
  const Value low(domain / 4);
  ranges.push_back({KeyBound{mid, true}, KeyBound{mid, false}});   // [v, v)
  ranges.push_back({KeyBound{mid, false}, KeyBound{mid, true}});   // (v, v]
  ranges.push_back({KeyBound{mid, true}, KeyBound{low, true}});    // reversed
  ranges.push_back({std::nullopt, KeyBound{Value::Null(), true}}); // nulls
  ranges.push_back({KeyBound{Value::Null(), false}, std::nullopt}); // non-null
  ranges.push_back({std::nullopt, KeyBound{Value(int64_t{3}), false}});
  ranges.push_back({std::nullopt, std::nullopt});
  for (const auto& [lo, hi] : ranges) {
    std::vector<std::pair<Value, std::vector<uint64_t>>> want;
    for (const auto& [k, rows] : model) {
      if (InRange(k, lo, hi)) want.emplace_back(k, rows);
    }
    std::vector<std::pair<Value, std::vector<uint64_t>>> got;
    EXPECT_TRUE(index.ForEachInRange(
        lo, hi, [&](const Value& k, const std::vector<uint64_t>& rows) {
          got.emplace_back(k, rows);
          return true;
        }));
    ASSERT_EQ(got.size(), want.size()) << Describe(lo, hi);
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, want[i].first) << Describe(lo, hi);
      EXPECT_EQ(got[i].second, want[i].second) << Describe(lo, hi);
    }
    // A false return stops the walk at once.
    if (want.size() >= 2) {
      size_t calls = 0;
      EXPECT_FALSE(index.ForEachInRange(
          lo, hi, [&](const Value&, const std::vector<uint64_t>&) {
            return ++calls < 2;
          }));
      EXPECT_EQ(calls, 2u) << Describe(lo, hi);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, BTreeRangeTest,
                         ::testing::Values(40, 600, 30000));

// `Value::Compare` puts null below every value, and so does the tree: an
// upper bound alone admits stored nulls, any lower bound excludes them.
TEST(BTree, NullsSortFirst) {
  BTreeIndex index;
  index.Insert(Value::Null(), 1);
  index.Insert(Value(int64_t{4}), 2);
  index.Insert(Value(int64_t{7}), 3);
  const auto rows = [&](const Bound& lo, const Bound& hi) {
    std::vector<uint64_t> out;
    index.ForEachInRange(lo, hi,
                         [&](const Value&, const std::vector<uint64_t>& r) {
                           out.insert(out.end(), r.begin(), r.end());
                           return true;
                         });
    return out;
  };
  using Rows = std::vector<uint64_t>;
  EXPECT_EQ(rows(std::nullopt, KeyBound{Value(int64_t{5}), false}),
            (Rows{1, 2}));
  EXPECT_EQ(rows(KeyBound{Value(int64_t{-100}), true}, std::nullopt),
            (Rows{2, 3}));
  EXPECT_EQ(rows(KeyBound{Value::Null(), true}, KeyBound{Value::Null(), true}),
            (Rows{1}));
  EXPECT_TRUE(rows(KeyBound{Value(int64_t{8}), true}, std::nullopt).empty());
}

}  // namespace
}  // namespace temporadb
