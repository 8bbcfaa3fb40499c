#ifndef TEMPORADB_WORKLOAD_GENERATOR_H_
#define TEMPORADB_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace temporadb {
namespace workload {

/// Shape of the HR/payroll corpus: a seeded, deterministic bitemporal
/// update stream over a schema spanning all four relation kinds of the
/// taxonomy —
///
///   departments (static)      dept, head        — plain updates
///   headcount   (rollback)    dept, n           — updates + `as of` audits
///   assignments (historical)  emp, dept         — valid-time rewrites
///   salaries    (temporal)    emp, amount       — the full bitemporal mix
///
/// Employee keys are Zipf-skewed (a hot minority takes most raises), a
/// configurable share of writes are *retroactive* valid-time corrections
/// (the payroll office re-states a window months in the past), and a share
/// are logical deletions.  The stream — DDL, seed corpus, and DML — is a
/// pure function of this struct; two generators with equal options emit
/// byte-identical statements.
struct WorkloadOptions {
  uint64_t seed = 42;
  size_t employees = 240;
  size_t departments = 12;
  size_t ops = 2400;           ///< DML ops generated after the seed corpus.
  double zipf_theta = 0.99;    ///< Employee-key skew (0 = uniform; < 1).
  uint32_t retro_percent = 18; ///< Retroactive valid-time corrections.
  uint32_t delete_percent = 8; ///< Logical deletions.
  int64_t start_day = 3650;    ///< First transaction day (~1980).
};

/// One generated operation: the transaction day it commits on and the
/// TQuel statement text.
///
/// `fenced` marks writes to the relations *without* transaction time
/// (assignments, departments): their replaces/deletes are in-place history
/// corrections, which the MVCC contract excludes while read snapshots are
/// pinned (mvcc.h).  The driver defers fenced ops to the quiesced sync
/// points — the maintenance window a production deployment would use —
/// keeping the concurrent phase to the append-only bitemporal mix.
struct WorkloadOp {
  int64_t day = 0;
  std::string stmt;
  bool fenced = false;
};

/// The three read-query classes the mixed-phase driver issues: `as of`
/// audit sweeps, valid-timeslice stabs, and salary×assignment when-joins.
enum class QueryClass { kAudit, kStab, kWhenJoin };

inline constexpr QueryClass kQueryClasses[] = {
    QueryClass::kAudit, QueryClass::kStab, QueryClass::kWhenJoin};

const char* QueryClassName(QueryClass cls);

/// Schema DDL: the four relations, their attribute indexes (the DML
/// stream's where clauses pin the indexed key, so victim selection probes
/// the index instead of walking the relation), and the range declarations.
/// All stamped with `opts.start_day`.
std::vector<WorkloadOp> WorkloadDdl(const WorkloadOptions& opts);

/// Chained FNV-1a fold of one op (day bytes, then statement bytes).  The
/// determinism tests and the driver's report both fold the committed
/// stream through this; seed the chain with `kDigestSeed`.
inline constexpr uint64_t kDigestSeed = 1469598103934665603ULL;
uint64_t DigestOp(uint64_t h, const WorkloadOp& op);

/// Builds one read query of the given class, with temporal anchors drawn
/// uniformly from [opts.start_day, max_day].  Deterministic in `rng`;
/// thread-safe given a per-thread generator.
std::string MakeQuery(QueryClass cls, Random* rng, const WorkloadOptions& opts,
                      int64_t max_day);

/// Streaming generator: call `SeedOps()` once (after applying
/// `WorkloadDdl`), then drain `Next()` for the mixed DML stream.
class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(const WorkloadOptions& opts);

  /// The initial corpus: every department, its headcount row, and one
  /// open-ended salary + assignment per employee.
  std::vector<WorkloadOp> SeedOps();

  /// Produces the next DML op; false once `options().ops` were emitted.
  bool Next(WorkloadOp* op);

  /// The current transaction day — an upper bound for query anchors over
  /// the history generated so far.
  int64_t day() const { return day_; }
  const WorkloadOptions& options() const { return opts_; }

 private:
  WorkloadOp SalariesOp();
  WorkloadOp AssignmentsOp();
  WorkloadOp HeadcountOp();
  WorkloadOp DepartmentsOp();

  WorkloadOptions opts_;
  Random rng_;
  Zipf emp_zipf_;
  int64_t day_;
  size_t emitted_ = 0;
};

}  // namespace workload
}  // namespace temporadb

#endif  // TEMPORADB_WORKLOAD_GENERATOR_H_
