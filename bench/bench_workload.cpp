// Full-size bitemporal workload suite with differential oracle checking.
//
// Runs the seeded HR/payroll mixed-phase driver (serialized writer +
// concurrent MVCC snapshot readers issuing `as of` audit sweeps,
// valid-timeslice stabs, and when-joins) at production scale, checks every
// statement and every sync point against the reference model
// (workload/reference.h), and emits BENCH_workload.json: write throughput,
// per-class read latency percentiles and QPS, and partition-prune ratios.
//
//   ./bench_workload                      # full size
//   ./bench_workload --small              # CI tier (also: TDB_WORKLOAD_SMALL)
//   ./bench_workload --ops=50000 --employees=10000 --readers=4 --seed=42
//
// Exits non-zero if any oracle mismatch or a broken ScanStats identity is
// observed: the bench doubles as an end-to-end correctness gate.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workload/driver.h"

namespace {

uint64_t FlagU64(int argc, char** argv, const char* name, uint64_t dflt) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtoull(argv[i] + prefix.size(), nullptr, 10);
    }
  }
  return dflt;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using temporadb::workload::DriverOptions;
  using temporadb::workload::LatencySummary;
  using temporadb::workload::WorkloadDriver;
  using temporadb::workload::WorkloadReport;

  const bool small = HasFlag(argc, argv, "--small") ||
                     std::getenv("TDB_WORKLOAD_SMALL") != nullptr;

  DriverOptions d;
  d.gen.seed = FlagU64(argc, argv, "--seed", 42);
  // Full-size defaults are bounded by the reference model, which checks
  // every statement by brute force (each DML scans its relation; each
  // oracle when-join enumerates the s × a product): ~2000 employees /
  // ~12000 ops keeps the run in seconds while still spanning dozens of
  // sealed partitions.  Scale up with --employees/--ops offline.
  d.gen.employees =
      FlagU64(argc, argv, "--employees", small ? 256 : 2000);
  d.gen.departments = FlagU64(argc, argv, "--departments", small ? 8 : 24);
  d.gen.ops = FlagU64(argc, argv, "--ops", small ? 2000 : 12000);
  d.sync_every = FlagU64(argc, argv, "--sync-every", small ? 500 : 3000);
  d.reader_threads = FlagU64(argc, argv, "--readers", 4);
  d.queries_per_class = FlagU64(argc, argv, "--oracle-queries", 4);
  d.deep_check_every = FlagU64(argc, argv, "--deep-every", 4);
  // The small tier's 2,000 ops would never fill a 4096-row partition, so
  // it seals at 256 rows to check the reference against pruned scans too.
  d.store.partition_rows = static_cast<size_t>(
      FlagU64(argc, argv, "--partition-rows", small ? 256 : 4096));

  std::printf("bench_workload: HR/payroll bitemporal workload suite\n");
  std::printf(
      "  seed=%llu employees=%zu departments=%zu ops=%zu sync_every=%zu\n"
      "  readers=%zu partition_rows=%zu%s\n\n",
      (unsigned long long)d.gen.seed, d.gen.employees, d.gen.departments,
      d.gen.ops, d.sync_every, d.reader_threads, d.store.partition_rows,
      small ? " [small tier]" : "");

  WorkloadDriver driver(d);
  const temporadb::Status st = driver.Run();
  if (!st.ok()) {
    std::fprintf(stderr, "workload run failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const WorkloadReport& r = driver.report();

  std::printf("writes : %llu ops acked, %.0f ops/sec (primary engine)\n",
              (unsigned long long)r.ops_applied, r.write_ops_per_sec);
  std::printf("reads  : %llu pins, %llu snapshot queries\n",
              (unsigned long long)r.reader_pins,
              (unsigned long long)r.reader_queries);
  for (const auto& [cls, lat] : r.latency) {
    std::printf(
        "  %-10s count=%-7llu qps=%-8.1f p50=%.0fus p95=%.0fus p99=%.0fus\n",
        cls.c_str(), (unsigned long long)lat.count, lat.qps, lat.p50_us,
        lat.p95_us, lat.p99_us);
  }
  const uint64_t pruned =
      r.parts_pruned_tt + r.parts_pruned_vt + r.parts_pruned_snapshot;
  const double prune_ratio =
      r.parts_considered > 0
          ? static_cast<double>(pruned) / static_cast<double>(r.parts_considered)
          : 0.0;
  std::printf(
      "prune  : %llu considered, %llu pruned (tt=%llu vt=%llu snap=%llu), "
      "%llu scanned, ratio=%.3f\n",
      (unsigned long long)r.parts_considered, (unsigned long long)pruned,
      (unsigned long long)r.parts_pruned_tt,
      (unsigned long long)r.parts_pruned_vt,
      (unsigned long long)r.parts_pruned_snapshot,
      (unsigned long long)r.parts_scanned, prune_ratio);
  std::printf(
      "oracle : %llu sync points, %llu queries, %llu path compares, "
      "%llu deep checks, %llu mismatches, identity %s\n",
      (unsigned long long)r.sync_points, (unsigned long long)r.oracle_queries,
      (unsigned long long)r.oracle_paths_checked,
      (unsigned long long)r.deep_checks, (unsigned long long)r.mismatches,
      r.stats_identity_ok ? "ok" : "BROKEN");
  std::printf("total  : %.1f ms, stream digest %016llx\n", r.elapsed_ms,
              (unsigned long long)r.ops_digest);
  for (const std::string& sample : r.mismatch_samples) {
    std::fprintf(stderr, "MISMATCH: %s\n", sample.c_str());
  }

  std::FILE* f = std::fopen("BENCH_workload.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"workload\",\n  \"kind\": \"workload\",\n");
    std::fprintf(f,
                 "  \"seed\": %llu,\n  \"employees\": %zu,\n"
                 "  \"ops\": %llu,\n  \"readers\": %zu,\n"
                 "  \"partition_rows\": %zu,\n",
                 (unsigned long long)d.gen.seed, d.gen.employees,
                 (unsigned long long)r.ops_applied, d.reader_threads,
                 d.store.partition_rows);
    std::fprintf(f, "  \"write_ops_per_sec\": %.1f,\n", r.write_ops_per_sec);
    std::fprintf(f, "  \"classes\": {\n");
    size_t i = 0;
    for (const auto& [cls, lat] : r.latency) {
      std::fprintf(f,
                   "    \"%s\": {\"count\": %llu, \"qps\": %.1f, "
                   "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f}%s\n",
                   cls.c_str(), (unsigned long long)lat.count, lat.qps,
                   lat.p50_us, lat.p95_us, lat.p99_us,
                   ++i < r.latency.size() ? "," : "");
    }
    std::fprintf(f, "  },\n");
    std::fprintf(f,
                 "  \"scan_stats\": {\"considered\": %llu, "
                 "\"pruned_tt\": %llu, \"pruned_vt\": %llu, "
                 "\"pruned_snapshot\": %llu, \"scanned\": %llu, "
                 "\"rows_scanned\": %llu, \"prune_ratio\": %.4f},\n",
                 (unsigned long long)r.parts_considered,
                 (unsigned long long)r.parts_pruned_tt,
                 (unsigned long long)r.parts_pruned_vt,
                 (unsigned long long)r.parts_pruned_snapshot,
                 (unsigned long long)r.parts_scanned,
                 (unsigned long long)r.rows_scanned, prune_ratio);
    std::fprintf(f,
                 "  \"sync_points\": %llu,\n  \"oracle_queries\": %llu,\n"
                 "  \"oracle_paths_checked\": %llu,\n  \"deep_checks\": %llu,\n"
                 "  \"mismatches\": %llu,\n  \"stats_identity_ok\": %s,\n"
                 "  \"ops_digest\": \"%016llx\",\n  \"elapsed_ms\": %.3f\n",
                 (unsigned long long)r.sync_points,
                 (unsigned long long)r.oracle_queries,
                 (unsigned long long)r.oracle_paths_checked,
                 (unsigned long long)r.deep_checks,
                 (unsigned long long)r.mismatches,
                 r.stats_identity_ok ? "true" : "false",
                 (unsigned long long)r.ops_digest, r.elapsed_ms);
    std::fprintf(f, "}\n");
    std::fclose(f);
  }

  return (r.mismatches > 0 || !r.stats_identity_ok) ? 1 : 0;
}
