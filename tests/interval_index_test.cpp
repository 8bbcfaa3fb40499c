#include "index/interval_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"

namespace temporadb {
namespace {

using Entry = IntervalIndex::Entry;

Period P(int64_t a, int64_t b) { return Period(Chronon(a), Chronon(b)); }

// The ids `index` reports for `q`, in the order it reports them.
std::vector<uint64_t> Hits(const IntervalIndex& index, Period q) {
  std::vector<uint64_t> ids;
  index.Overlapping(q, [&](Period, uint64_t id) { ids.push_back(id); });
  return ids;
}

std::vector<uint64_t> HitsAt(const IntervalIndex& index, int64_t t) {
  return Hits(index, Period::At(Chronon(t)));
}

TEST(IntervalIndex, EmptyIndex) {
  IntervalIndex index;
  EXPECT_TRUE(HitsAt(index, 5).empty());
  EXPECT_TRUE(Hits(index, Period::All()).empty());
  EXPECT_EQ(index.size(), 0u);
}

TEST(IntervalIndex, EmptyPeriodsAreNeverReported) {
  const IntervalIndex index({{P(5, 5), 1}, {P(6, 5), 2}, {P(0, 10), 3}});
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(Hits(index, Period::All()), std::vector<uint64_t>{3});
  EXPECT_EQ(HitsAt(index, 5), std::vector<uint64_t>{3});
  // An empty query overlaps nothing, not even a period around it.
  EXPECT_TRUE(Hits(index, P(5, 5)).empty());
  EXPECT_TRUE(Hits(index, P(7, 3)).empty());
}

TEST(IntervalIndex, StabBasics) {
  const IntervalIndex index({{P(0, 10), 1}, {P(5, 15), 2}, {P(20, 30), 3}});
  EXPECT_EQ(HitsAt(index, 7), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(HitsAt(index, 0), (std::vector<uint64_t>{1}));
  EXPECT_TRUE(HitsAt(index, 15).empty());  // Half-open ends.
  EXPECT_EQ(HitsAt(index, 29), (std::vector<uint64_t>{3}));
  EXPECT_TRUE(HitsAt(index, 30).empty());
  EXPECT_TRUE(HitsAt(index, -1).empty());
}

TEST(IntervalIndex, OpenEndedPeriods) {
  const IntervalIndex index({{Period::From(Chronon(100)), 7},
                             {Period::All(), 8},
                             {P(0, 50), 9}});
  EXPECT_EQ(HitsAt(index, 1000000), (std::vector<uint64_t>{8, 7}));
  EXPECT_EQ(HitsAt(index, 99), (std::vector<uint64_t>{8}));
  EXPECT_EQ(Hits(index, Period::From(Chronon(40))),
            (std::vector<uint64_t>{8, 9, 7}));
  EXPECT_EQ(Hits(index, Period::All()), (std::vector<uint64_t>{8, 9, 7}));
}

TEST(IntervalIndex, OverlappingQuery) {
  const IntervalIndex index({{P(0, 10), 1}, {P(8, 12), 2}, {P(12, 20), 3}});
  EXPECT_EQ(Hits(index, P(9, 12)), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(Hits(index, P(10, 13)), (std::vector<uint64_t>{2, 3}));
  EXPECT_TRUE(Hits(index, P(20, 25)).empty());
}

// Hits come in (begin, id) order, whatever order the entries were given in;
// equal begins are ordered by id, and one id may carry several periods.
TEST(IntervalIndex, EqualBeginsReportInIdOrder) {
  const IntervalIndex index({{P(5, 9), 4},
                             {P(5, 6), 2},
                             {P(5, 20), 3},
                             {P(0, 30), 9},
                             {P(10, 15), 1},
                             {P(5, 7), 1}});
  EXPECT_EQ(Hits(index, P(5, 6)), (std::vector<uint64_t>{9, 1, 2, 3, 4}));
  EXPECT_EQ(HitsAt(index, 8), (std::vector<uint64_t>{9, 3, 4}));
  EXPECT_EQ(HitsAt(index, 12), (std::vector<uint64_t>{9, 3, 1}));
}

// Randomized comparison against a brute-force filter.
class IntervalIndexFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(IntervalIndexFuzzTest, MatchesBruteForce) {
  const int n = GetParam();
  std::vector<Entry> model;
  Random rng(static_cast<uint64_t>(n) * 1299709 + 31);
  for (int i = 0; i < n; ++i) {
    int64_t begin = static_cast<int64_t>(rng.Uniform(200));
    int64_t len = static_cast<int64_t>(rng.Uniform(40));  // 0: empty.
    Period p = rng.OneIn(10) ? Period::From(Chronon(begin))
                             : P(begin, begin + len);
    model.push_back({p, static_cast<uint64_t>(i)});
  }
  const IntervalIndex index(model);
  // The brute force's hits for `q`, in (begin, id) order.
  const auto want = [&](Period q) {
    std::vector<Entry> hits;
    for (const Entry& e : model) {
      if (e.period.Overlaps(q)) hits.push_back(e);
    }
    std::sort(hits.begin(), hits.end(), [](const Entry& a, const Entry& b) {
      return a.period.begin() != b.period.begin()
                 ? a.period.begin() < b.period.begin()
                 : a.id < b.id;
    });
    std::vector<uint64_t> ids;
    for (const Entry& e : hits) ids.push_back(e.id);
    return ids;
  };
  // Stab at every third chronon in range.
  for (int64_t t = -5; t <= 250; t += 3) {
    const Period q = Period::At(Chronon(t));
    EXPECT_EQ(Hits(index, q), want(q)) << "t=" << t;
  }
  // Overlap queries of varying width, and open-ended ones.
  for (int64_t b = 0; b < 200; b += 17) {
    for (const Period q : {P(b, b + 25), P(b, b + 1 + b / 4),
                           Period::From(Chronon(b))}) {
      EXPECT_EQ(Hits(index, q), want(q)) << "q=" << q.ToString();
    }
  }
  EXPECT_EQ(Hits(index, Period::All()), want(Period::All()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, IntervalIndexFuzzTest,
                         ::testing::Values(1, 10, 100, 500, 2000));

}  // namespace
}  // namespace temporadb
