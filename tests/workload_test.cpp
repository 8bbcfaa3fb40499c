// The workload suite's CI tier: the seeded HR/payroll generator must be
// byte-deterministic, and the mixed-phase driver — serialized writer +
// concurrent snapshot readers — must answer what the reference model
// (workload/reference.h) answers on the writer path and on the snapshot
// path, across partition sizes, with the ScanStats accounting identity
// holding at every sync point.  `TDB_WORKLOAD_SMALL` shrinks the run for
// the sanitizer jobs; the full-size version of this harness is
// bench/bench_workload.cpp.

#include <gtest/gtest.h>

#include <cstdlib>

#include "workload/driver.h"
#include "workload/generator.h"

namespace temporadb {
namespace workload {
namespace {

bool SmallTier() { return std::getenv("TDB_WORKLOAD_SMALL") != nullptr; }

WorkloadOptions TestGen() {
  WorkloadOptions g;
  g.seed = 20260809;
  g.employees = SmallTier() ? 96 : 160;
  g.departments = 8;
  g.ops = SmallTier() ? 700 : 1500;
  return g;
}

DriverOptions TestDriver(uint32_t partition_rows) {
  DriverOptions d;
  d.gen = TestGen();
  d.store.partition_rows = partition_rows;
  d.sync_every = SmallTier() ? 250 : 400;
  d.reader_threads = 2;
  d.queries_per_class = 3;
  d.deep_check_every = 2;
  return d;
}

TEST(WorkloadGeneratorTest, SameSeedSameStream) {
  const WorkloadOptions g = TestGen();
  const std::vector<WorkloadOp> ddl_a = WorkloadDdl(g);
  const std::vector<WorkloadOp> ddl_b = WorkloadDdl(g);
  ASSERT_EQ(ddl_a.size(), ddl_b.size());
  WorkloadGenerator a(g);
  WorkloadGenerator b(g);
  const std::vector<WorkloadOp> seed_a = a.SeedOps();
  const std::vector<WorkloadOp> seed_b = b.SeedOps();
  ASSERT_EQ(seed_a.size(), seed_b.size());
  uint64_t ha = kDigestSeed;
  uint64_t hb = kDigestSeed;
  for (size_t i = 0; i < seed_a.size(); ++i) {
    EXPECT_EQ(seed_a[i].day, seed_b[i].day);
    ASSERT_EQ(seed_a[i].stmt, seed_b[i].stmt) << "seed op " << i;
    ha = DigestOp(ha, seed_a[i]);
    hb = DigestOp(hb, seed_b[i]);
  }
  WorkloadOp oa;
  WorkloadOp ob;
  size_t n = 0;
  while (a.Next(&oa)) {
    ASSERT_TRUE(b.Next(&ob));
    EXPECT_EQ(oa.day, ob.day);
    ASSERT_EQ(oa.stmt, ob.stmt) << "op " << n;
    ha = DigestOp(ha, oa);
    hb = DigestOp(hb, ob);
    ++n;
  }
  EXPECT_FALSE(b.Next(&ob));
  EXPECT_EQ(n, g.ops);
  EXPECT_EQ(ha, hb);
}

TEST(WorkloadGeneratorTest, QueriesDeterministicPerClass) {
  const WorkloadOptions g = TestGen();
  for (QueryClass cls : kQueryClasses) {
    Random r1(7);
    Random r2(7);
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(MakeQuery(cls, &r1, g, 4200), MakeQuery(cls, &r2, g, 4200));
    }
  }
}

TEST(WorkloadGeneratorTest, ZipfSkewsTowardsRankZero) {
  Random rng(11);
  const Zipf zipf(1000, 0.99);
  size_t top = 0;
  const size_t draws = 20000;
  for (size_t i = 0; i < draws; ++i) {
    if (zipf.Sample(&rng) < 10) ++top;
  }
  // Under uniform, ranks 0..9 would take ~1% of the draws; under
  // Zipf(0.99) they take the majority.
  EXPECT_GT(top, draws / 3);
  const Zipf uniform(1000, 0.0);
  size_t utop = 0;
  for (size_t i = 0; i < draws; ++i) {
    if (uniform.Sample(&rng) < 10) ++utop;
  }
  EXPECT_LT(utop, draws / 10);
}

// Satellite: the committed operation stream (and so its digest) is a pure
// function of the seed — the reader thread count must not bleed into it.
TEST(WorkloadDriverTest, DigestInvariantAcrossReaderThreadCounts) {
  uint64_t digest = 0;
  bool first = true;
  for (const size_t readers : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("readers=" + std::to_string(readers));
    DriverOptions d = TestDriver(1024);
    d.gen.ops = SmallTier() ? 250 : 500;
    d.sync_every = SmallTier() ? 125 : 250;
    d.reader_threads = readers;
    WorkloadDriver driver(d);
    const Status st = driver.Run();
    ASSERT_TRUE(st.ok()) << st.ToString();
    const WorkloadReport& r = driver.report();
    EXPECT_EQ(r.mismatches, 0u)
        << (r.mismatch_samples.empty() ? "" : r.mismatch_samples[0]);
    if (first) {
      digest = r.ops_digest;
      first = false;
    } else {
      EXPECT_EQ(digest, r.ops_digest);
    }
  }
}

// The tentpole: a mixed-phase run with >= 2 concurrent snapshot readers
// during sustained writes, checked against the reference model at
// every sync point across execution paths, at two partition sizes.  The
// stream digest must be partition-invariant, the ScanStats identity must
// hold, and with small partitions the synopses must actually prune.
TEST(WorkloadDriverTest, DifferentialAcrossPartitionSizes) {
  uint64_t digest = 0;
  bool first = true;
  for (const uint32_t partition_rows : {127u, 4096u}) {
    SCOPED_TRACE("partition_rows=" + std::to_string(partition_rows));
    WorkloadDriver driver(TestDriver(partition_rows));
    const Status st = driver.Run();
    ASSERT_TRUE(st.ok()) << st.ToString();
    const WorkloadReport& r = driver.report();
    EXPECT_EQ(r.mismatches, 0u)
        << (r.mismatch_samples.empty() ? "" : r.mismatch_samples[0]);
    EXPECT_TRUE(r.stats_identity_ok);
    EXPECT_EQ(r.parts_considered, r.parts_pruned_tt + r.parts_pruned_vt +
                                      r.parts_pruned_snapshot +
                                      r.parts_scanned);
    EXPECT_GE(r.sync_points, 2u);
    EXPECT_GT(r.oracle_queries, 0u);
    EXPECT_GT(r.oracle_paths_checked, r.oracle_queries);
    EXPECT_GT(r.deep_checks, 0u);
    EXPECT_GT(r.reader_pins, 0u);
    EXPECT_GT(r.reader_queries, 0u);
    for (QueryClass cls : kQueryClasses) {
      const auto it = r.latency.find(QueryClassName(cls));
      ASSERT_NE(it, r.latency.end()) << QueryClassName(cls);
      EXPECT_GT(it->second.count, 0u) << QueryClassName(cls);
    }
    if (partition_rows == 127) {
      EXPECT_GT(r.parts_considered, 0u);
      EXPECT_GT(
          r.parts_pruned_tt + r.parts_pruned_vt + r.parts_pruned_snapshot, 0u);
    }
    if (first) {
      digest = r.ops_digest;
      first = false;
    } else {
      EXPECT_EQ(digest, r.ops_digest);
    }
  }
}

}  // namespace
}  // namespace workload
}  // namespace temporadb
