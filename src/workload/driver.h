#ifndef TEMPORADB_WORKLOAD_DRIVER_H_
#define TEMPORADB_WORKLOAD_DRIVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "temporal/partition.h"
#include "workload/generator.h"
#include "workload/reference.h"

namespace temporadb {
namespace workload {

/// Shape of a mixed-phase differential run.
struct DriverOptions {
  WorkloadOptions gen;

  /// Store shape of the engine under test: partition size, batch size,
  /// time indexes.  The reference model has no store to shape.
  VersionStoreOptions store;

  /// DML ops between oracle sync points.
  size_t sync_every = 600;

  /// Concurrent snapshot readers during each write segment (0 disables the
  /// mixed phase; the oracle still runs).
  size_t reader_threads = 2;

  /// The writer does not tear a segment down until every reader completed
  /// at least this many pins against it — guarantees genuinely concurrent
  /// reads during sustained writes, without sleeps.
  size_t reader_min_pins = 2;

  /// Oracle queries per query class per sync point.
  size_t queries_per_class = 4;

  /// Full stored-content equivalence against the reference every k-th sync
  /// point (and always once at the end).
  size_t deep_check_every = 2;
};

struct LatencySummary {
  uint64_t count = 0;
  double qps = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
};

struct WorkloadReport {
  // Write side.
  uint64_t ops_applied = 0;         ///< DDL + seed + DML, all acked.
  double write_ops_per_sec = 0;     ///< Primary-engine statement throughput.
  uint64_t ops_digest = kDigestSeed;  ///< FNV-1a over the committed stream.

  // Read side (concurrent snapshot readers, per query class).
  uint64_t reader_pins = 0;
  uint64_t reader_queries = 0;
  std::map<std::string, LatencySummary> latency;

  // Oracle.
  uint64_t sync_points = 0;
  uint64_t oracle_queries = 0;        ///< Distinct (query, sync) pairs.
  uint64_t oracle_paths_checked = 0;  ///< Query × execution-path compares.
  uint64_t deep_checks = 0;
  bool stats_identity_ok = true;
  uint64_t mismatches = 0;
  std::vector<std::string> mismatch_samples;  ///< First few, for diagnosis.

  // ScanStats totals over the whole run (reader + verification scans).
  uint64_t parts_considered = 0;
  uint64_t parts_pruned_tt = 0;
  uint64_t parts_pruned_vt = 0;
  uint64_t parts_pruned_snapshot = 0;
  uint64_t parts_scanned = 0;
  uint64_t rows_scanned = 0;

  double elapsed_ms = 0;
};

/// The mixed-phase workload driver: one serialized writer applying the
/// generator's stream to the engine *and* to the reference model
/// (workload/reference.h), while `reader_threads` concurrent snapshot
/// readers issue audit sweeps, timeslice stabs, and when-joins through the
/// MVCC pin path.  Every statement must succeed on both sides and select
/// as many facts.  At every sync point the readers are quiesced and each
/// query class is answered by the reference, demanding the same rows from
/// the engine on the writer path and on the snapshot path; periodically the
/// entire stored bitemporal content is compared fact for fact.
/// Single-use: one `Run()` per driver.
class WorkloadDriver {
 public:
  explicit WorkloadDriver(const DriverOptions& options);
  ~WorkloadDriver();

  WorkloadDriver(const WorkloadDriver&) = delete;
  WorkloadDriver& operator=(const WorkloadDriver&) = delete;

  /// Runs the whole workload.  Returns the first hard failure (a statement
  /// the engine rejected); result divergences are *not* hard failures —
  /// they are counted in `report().mismatches` with samples.
  Status Run();

  const WorkloadReport& report() const { return report_; }

 private:
  struct ReaderStats;

  Status Setup();
  Status ApplyBoth(const WorkloadOp& op);
  Status FlushFenced();
  Status RunSegment(size_t n_ops, size_t segment);
  void ReaderLoop(size_t id, size_t segment, int64_t horizon,
                  const std::atomic<bool>* stop, std::atomic<uint64_t>* pins,
                  ReaderStats* out);
  void VerifySync(size_t sync_idx);
  void DeepCheck(const std::string& where);
  void CheckStatsIdentity(const std::string& where);
  void ComparePath(const std::string& query,
                   const Result<reference::Answer>& want,
                   const Result<Rowset>& got, const std::string& path);
  void Mismatch(const std::string& what);
  void FinalizeReport(double elapsed_ms, double reader_seconds);

  DriverOptions options_;
  WorkloadGenerator gen_;
  std::unique_ptr<ManualClock> clock_;
  std::unique_ptr<Database> db_;
  reference::ReferenceModel reference_;
  ScanStats stats_;
  /// Fenced ops (in-place corrections on the relations without transaction
  /// time) buffered during the concurrent phase, applied — to engine and
  /// reference alike — in the quiesced maintenance window before each sync
  /// verification.  See WorkloadOp::fenced.
  std::vector<WorkloadOp> pending_fenced_;
  WorkloadReport report_;
  double primary_write_seconds_ = 0;
  double reader_seconds_ = 0;
  std::map<std::string, std::vector<double>> class_latency_us_;
};

}  // namespace workload
}  // namespace temporadb

#endif  // TEMPORADB_WORKLOAD_DRIVER_H_
