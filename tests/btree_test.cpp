#include "index/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/random.h"

namespace temporadb {
namespace {

TEST(BTree, EmptyLookup) {
  BTreeIndex index;
  EXPECT_TRUE(index.Lookup(Value(int64_t{1})).empty());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.CheckInvariants().ok());
}

TEST(BTree, InsertAndLookup) {
  BTreeIndex index;
  index.Insert(Value("merrie"), 1);
  index.Insert(Value("tom"), 2);
  EXPECT_EQ(index.Lookup(Value("merrie")), std::vector<uint64_t>{1});
  EXPECT_EQ(index.Lookup(Value("tom")), std::vector<uint64_t>{2});
  EXPECT_TRUE(index.Lookup(Value("mike")).empty());
  EXPECT_EQ(index.size(), 2u);
}

TEST(BTree, DuplicateKeysAccumulate) {
  BTreeIndex index;
  for (uint64_t row = 0; row < 10; ++row) {
    index.Insert(Value(int64_t{7}), row);
  }
  EXPECT_EQ(index.Lookup(Value(int64_t{7})).size(), 10u);
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
    ASSERT_EQ(index.Lookup(Value(i)).size(), 1u) << i;
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
      EXPECT_EQ(index.Lookup(Value(k)), std::vector<uint64_t>{
                                            static_cast<uint64_t>(k)});
    }
  }
}

TEST(BTree, RemovePostings) {
  BTreeIndex index;
  index.Insert(Value("k"), 1);
  index.Insert(Value("k"), 2);
  ASSERT_TRUE(index.Remove(Value("k"), 1).ok());
  EXPECT_EQ(index.Lookup(Value("k")), std::vector<uint64_t>{2});
  ASSERT_TRUE(index.Remove(Value("k"), 2).ok());
  EXPECT_TRUE(index.Lookup(Value("k")).empty());
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
    std::vector<uint64_t> got = index.Lookup(Value(key));
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
    std::vector<uint64_t> got = index.Lookup(Value(key));
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

}  // namespace
}  // namespace temporadb
