#include "index/snapshot_index.h"

#include <gtest/gtest.h>

namespace temporadb {
namespace {

TEST(SnapshotIndex, CurrentSetLifecycle) {
  SnapshotIndex index;
  ASSERT_TRUE(index.AddCurrent(1, Chronon(10)).ok());
  ASSERT_TRUE(index.AddCurrent(2, Chronon(20)).ok());
  EXPECT_TRUE(index.IsCurrent(1));
  EXPECT_EQ(index.current_count(), 2u);
  EXPECT_EQ(*index.CurrentStart(1), Chronon(10));
  EXPECT_TRUE(index.CurrentStart(99).status().IsNotFound());
  EXPECT_TRUE(index.AddCurrent(1, Chronon(30)).code() ==
              StatusCode::kAlreadyExists);
}

TEST(SnapshotIndex, CloseLeavesCurrentSet) {
  SnapshotIndex index;
  ASSERT_TRUE(index.AddCurrent(1, Chronon(10)).ok());
  ASSERT_TRUE(index.CloseCurrent(1, Chronon(50)).ok());
  EXPECT_FALSE(index.IsCurrent(1));
  EXPECT_EQ(index.current_count(), 0u);
  // An abort-time undo puts the row back.
  ASSERT_TRUE(index.AddCurrent(1, Chronon(10)).ok());
  EXPECT_TRUE(index.IsCurrent(1));
}

TEST(SnapshotIndex, CloseErrors) {
  SnapshotIndex index;
  EXPECT_EQ(index.CloseCurrent(1, Chronon(5)).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(index.AddCurrent(1, Chronon(10)).ok());
  EXPECT_TRUE(index.CloseCurrent(1, Chronon(5)).IsInvalidArgument());
}

TEST(SnapshotIndex, ZeroLengthCloseIsLegal) {
  // A version created and superseded in the same chronon.
  SnapshotIndex index;
  ASSERT_TRUE(index.AddCurrent(1, Chronon(10)).ok());
  ASSERT_TRUE(index.CloseCurrent(1, Chronon(10)).ok());
  EXPECT_FALSE(index.IsCurrent(1));
}

TEST(SnapshotIndex, CurrentIteration) {
  SnapshotIndex index;
  ASSERT_TRUE(index.AddCurrent(5, Chronon(1)).ok());
  ASSERT_TRUE(index.AddCurrent(6, Chronon(2)).ok());
  ASSERT_TRUE(index.CloseCurrent(5, Chronon(3)).ok());
  std::vector<uint64_t> rows;
  index.Current([&](uint64_t row) { rows.push_back(row); });
  EXPECT_EQ(rows, std::vector<uint64_t>{6});
}

}  // namespace
}  // namespace temporadb
