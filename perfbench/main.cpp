// End-to-end benchmark of temporadb: one client thread issues TQuel
// statements in a closed loop (each statement starts after the previous one
// returned) against a persistent database, on three workloads built from
// the seeded HR/payroll generator in src/workload:
//
//   ingest     the generator's DML stream, one auto-commit statement at a
//              time, with a checkpoint every kCheckpointEvery statements
//   read_mix   nine `as of` audit / `when ... overlap` stab reads per DML
//              statement; reads alternate between the writer path
//              (Database::Query) and a freshly pinned snapshot
//              (BeginReadSnapshot + QueryAtSnapshot)
//   when_join  salary x assignment when-joins through Database::Query
//
// Usage:
//   tdb_perfbench --workload <ingest|read_mix|when_join> --seed <n>
//                 --seconds <s> --trace <0|1> --dir <scratch dir>
//                 [--trace-out <file>]
//
// The timed phase replays a fixed list of statements (a pass) for
// --seconds, restoring the set-up state before every pass that follows one
// that wrote.  The last line of stdout is one JSON object with the keys
// `correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
// metrics are the end-to-end ones, measured untraced.  With --trace 1 the
// benchmark splits every statement into the engine's public layer calls,
// records a span around each, and reports per-layer figures instead.
// perfbench/README.md defines every metric.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "storage/fs.h"
#include "temporal/partition.h"
#include "tquel/analyzer.h"
#include "tquel/evaluator.h"
#include "tquel/parser.h"
#include "txn/clock.h"
#include "workload/generator.h"

namespace temporadb {
namespace perfbench {
namespace {

using workload::QueryClass;
using workload::WorkloadGenerator;
using workload::WorkloadOp;
using workload::WorkloadOptions;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct HostProbe {
  double spin_ms = 0.0;   // Dependent multiply chain: CPU time taken away.
  double chase_ms = 0.0;  // Pointer chase beyond a core's L2: contention
                          // for the shared cache and memory.
};

// Fixed-work probes, run before and after every run so that a slow run can
// be attributed to the host.  Never used to scale a metric.  Each figure
// is the fastest of three rounds, because the first round after an idle
// spell runs slow while the core wakes up.
HostProbe ProbeHost() {
  constexpr uint32_t kRing = 1u << 20;  // 4 MiB of uint32_t.
  static const std::vector<uint32_t> ring = [] {
    std::vector<uint32_t> order(kRing);
    for (uint32_t i = 0; i < kRing; ++i) order[i] = i;
    Random rng(7);
    for (uint32_t i = kRing - 1; i > 0; --i) {
      std::swap(order[i], order[rng.Uniform(i + 1)]);
    }
    std::vector<uint32_t> next(kRing);
    for (uint32_t i = 0; i < kRing; ++i) {
      next[order[i]] = order[(i + 1) % kRing];
    }
    return next;
  }();
  HostProbe best;
  for (int round = 0; round < 3; ++round) {
    const int64_t t0 = NowNs();
    uint64_t x = 1;
    for (int i = 0; i < 20'000'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      asm volatile("" : "+r"(x));
    }
    const int64_t t1 = NowNs();
    uint32_t at = 0;
    for (int i = 0; i < 500'000; ++i) {
      at = ring[at];
      asm volatile("" : "+r"(at));
    }
    const int64_t t2 = NowNs();
    const double spin = static_cast<double>(t1 - t0) / 1e6;
    const double chase = static_cast<double>(t2 - t1) / 1e6;
    if (round == 0 || spin < best.spin_ms) best.spin_ms = spin;
    if (round == 0 || chase < best.chase_ms) best.chase_ms = chase;
  }
  return best;
}

// The host runs each virtual CPU at its own, changing speed, and which one
// the scheduler gives a run is a lottery: one ingest run measured a p50 of
// 145 to 230 µs depending on the CPU it was pinned to.  So every set-up and
// every pass moves to the next allowed CPU in turn, and set-ups and passes
// come in whole rotations, so each run samples every CPU equally often.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
    if (cpus_.empty()) cpus_.push_back(-1);  // Unknown: never move.
  }

  size_t size() const { return cpus_.size(); }

  // Returns the index of the CPU moved to, in [0, size()).
  size_t MoveToNext() {
    const size_t slot = next_++ % cpus_.size();
    if (cpus_.size() < 2 || cpus_[slot] < 0) return slot;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[slot], &set);
    (void)sched_setaffinity(0, sizeof(set), &set);  // Best effort.
    return slot;
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// VmHWM of this process image.  (getrusage's ru_maxrss would also count
// the parent's resident set at fork, which exec inherits.)
double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Flush policy.  Every workload writes the WAL on each commit and never
// fsyncs it (`sync_commits = false`).  Checkpoint and directory syncs are
// skipped too, so no flush ever reaches the device: the database directory
// behaves as it would on tmpfs, while staying inside the build directory.

class NoSyncFile : public File {
 public:
  explicit NoSyncFile(std::unique_ptr<File> base) : base_(std::move(base)) {}
  Result<size_t> ReadAt(uint64_t offset, char* buf, size_t n) override {
    return base_->ReadAt(offset, buf, n);
  }
  Status WriteAt(uint64_t offset, const char* data, size_t n) override {
    return base_->WriteAt(offset, data, n);
  }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Sync() override { return Status::OK(); }
  Result<uint64_t> Size() override { return base_->Size(); }

 private:
  std::unique_ptr<File> base_;
};

class NoSyncFileSystem : public FileSystem {
 public:
  Result<std::unique_ptr<File>> OpenFile(const std::string& path,
                                         bool create) override {
    TDB_ASSIGN_OR_RETURN(std::unique_ptr<File> f,
                         base_->OpenFile(path, create));
    return std::unique_ptr<File>(std::make_unique<NoSyncFile>(std::move(f)));
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status MakeDir(const std::string& path) override {
    return base_->MakeDir(path);
  }
  Status RemoveDir(const std::string& path) override {
    return base_->RemoveDir(path);
  }
  Status SyncDir(const std::string&) override { return Status::OK(); }
  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    return base_->ListDir(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  bool DirExists(const std::string& path) override {
    return base_->DirExists(path);
  }

 private:
  FileSystem* base_ = FileSystem::Default();
};

// ---------------------------------------------------------------------------
// Tracing: spans around the benchmark's calls into each layer, kept in
// memory and written out when the run ends.  A span's layer is its name up
// to the first '.'.

enum class Phase : uint8_t { kSetup, kTimed, kGate };

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kSetup:
      return "setup";
    case Phase::kTimed:
      return "timed";
    case Phase::kGate:
      return "gate";
  }
  return "?";
}

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // Index into the span list; -1 for a request's root.
  uint32_t request;
  Phase phase;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 18);
  }

  bool enabled() const { return enabled_; }
  Phase phase() const { return phase_; }
  void set_phase(Phase p) { phase_ = p; }
  void NewRequest() { ++request_; }

  int32_t Open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowNs(), 0, current_, request_, phase_});
    current_ = static_cast<int32_t>(spans_.size() - 1);
    return current_;
  }

  void Close(int32_t id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    current_ = spans_[static_cast<size_t>(id)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // One JSON object per line: name, phase, request, parent, start, end (ns).
  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"phase\":\"%s\","
                   "\"request\":%u,\"parent\":%d,\"start_ns\":%lld,"
                   "\"end_ns\":%lld}\n",
                   i, s.name, PhaseName(s.phase), s.request, s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  Phase phase_ = Phase::kSetup;
  uint32_t request_ = 0;
  int32_t current_ = -1;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Open(name)) {}
  ~SpanScope() { tracer_->Close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// ---------------------------------------------------------------------------
// Workloads.

enum class Kind { kIngest, kReadMix, kWhenJoin };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  size_t employees;
  size_t departments;
  size_t history_ops;      // DML applied during set-up, after the seed corpus.
  double tail_percentile;  // Fixed per workload; see BENCHMARK.json.
  size_t pass_statements;  // Statements replayed by every timed pass.
  size_t min_passes_per_cpu;  // Enough samples for the tail percentile.
  size_t setup_rotations;  // setup_s is the median over this many set-ups
                           // per CPU.
};

// ingest checkpoints after every this many statements of a pass.  The pass
// length is not a multiple of it, so a WAL tail is left for the recovery
// gate to replay.
constexpr size_t kCheckpointEvery = 1000;
constexpr size_t kGateSamples = 8;

const WorkloadSpec kWorkloads[] = {
    {"ingest", Kind::kIngest, 2000, 24, 0, 99.0, 4500, 1, 2},
    {"read_mix", Kind::kReadMix, 2000, 24, 12000, 99.0, 1000, 1, 1},
    {"when_join", Kind::kWhenJoin, 256, 8, 2000, 85.0, 12, 6, 2},
};

// The corpus and the DML stream come from this fixed seed; --seed drives
// every query.  The corpus and the writes decide what a statement costs (a
// when-join walks the whole salaries x assignments product; a DML
// statement walks every current row, which retroactive corrections
// fragment), so varying them with --seed would make runs disagree by
// content rather than by speed.
constexpr uint64_t kCorpusSeed = 42;

WorkloadOptions GeneratorOptions(const WorkloadSpec& spec) {
  WorkloadOptions o;
  o.seed = kCorpusSeed;
  o.employees = spec.employees;
  o.departments = spec.departments;
  o.ops = spec.history_ops + 10'000'000;  // The timed stream never ends.
  return o;
}

// Exact counts over the first pass of the timed phase.  One client and no
// timers inside the engine: the same seed yields the same counts on every
// run.
struct Counts {
  uint64_t partitions_considered = 0;
  uint64_t partitions_pruned = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_out = 0;  // Rows returned by reads plus rows changed by DML.
  uint64_t wal_bytes = 0;
  uint64_t statements = 0;
};

struct Session {
  const WorkloadSpec* spec = nullptr;
  WorkloadOptions opts;
  std::string dir;
  ManualClock clock;
  NoSyncFileSystem fs;
  std::unique_ptr<WorkloadGenerator> gen;
  std::unique_ptr<Database> db;
  ScanStats stats;
  bool install_stats = false;
  uint64_t setup_digest = workload::kDigestSeed;  // Every set-up statement.
  uint64_t wal_bytes = 0;  // Accumulated in traced runs only.
  uint64_t rows_out = 0;
};

Result<std::unique_ptr<Database>> OpenDatabase(Session* s) {
  DatabaseOptions o;
  o.path = s->dir;
  o.clock = &s->clock;
  o.sync_commits = false;
  o.fs = &s->fs;
  return Database::Open(o);
}

bool IsSessionDdl(const WorkloadOp& op) {
  return op.stmt.rfind("create index", 0) == 0 ||
         op.stmt.rfind("range of", 0) == 0;
}

// Indexes and range variables are session state: a restarted application
// declares them again after every open.
Status RestoreSession(Session* s) {
  for (const WorkloadOp& op : workload::WorkloadDdl(s->opts)) {
    if (!IsSessionDdl(op)) continue;
    s->clock.SetTime(Chronon(op.day));
    TDB_RETURN_IF_ERROR(s->db->Execute(op.stmt).status());
  }
  if (s->install_stats) {
    for (const RelationInfo& info : s->db->ListRelations()) {
      TDB_ASSIGN_OR_RETURN(StoredRelation * rel,
                           s->db->GetRelation(info.name));
      rel->store()->set_scan_stats(&s->stats);
    }
  }
  return Status::OK();
}

Status Reopen(Session* s, Tracer* tr) {
  s->db.reset();
  {
    SpanScope span(tr, "storage.reopen");
    TDB_ASSIGN_OR_RETURN(s->db, OpenDatabase(s));
  }
  return RestoreSession(s);
}

// Applies one generated DML statement.  Untraced it is one auto-commit
// `Execute`; traced, the same transaction is split into its layer calls.
Status ApplyOp(Session* s, Tracer* tr, const WorkloadOp& op) {
  s->clock.SetTime(Chronon(op.day));
  if (!tr->enabled()) {
    TDB_ASSIGN_OR_RETURN(tquel::ExecResult r, s->db->Execute(op.stmt));
    s->rows_out += r.count;
    return Status::OK();
  }
  const uint64_t wal_before = s->db->WalBytes();
  {
    SpanScope span(tr, "tquel.parse");
    TDB_RETURN_IF_ERROR(tquel::ParseOne(op.stmt).status());
  }
  TDB_ASSIGN_OR_RETURN(Transaction * txn, s->db->Begin());
  std::optional<Result<tquel::ExecResult>> r;
  {
    SpanScope span(tr, "core.dml");
    r.emplace(s->db->Execute(op.stmt));
  }
  if (!r->ok()) {
    (void)s->db->Abort(txn);  // The statement's own error is what counts.
    return r->status();
  }
  s->rows_out += (*r)->count;
  {
    SpanScope span(tr, "storage.commit");
    TDB_RETURN_IF_ERROR(s->db->Commit(txn));
  }
  s->wal_bytes += s->db->WalBytes() - wal_before;
  return Status::OK();
}

Status Checkpoint(Session* s, Tracer* tr) {
  SpanScope span(tr, "storage.checkpoint");
  return s->db->Checkpoint();
}

std::string BaseDir(const Session* s) { return s->dir + ".base"; }

// Opens a fresh database, loads the corpus through TQuel, checkpoints,
// closes and reopens it.  Returns the elapsed seconds.
Result<double> Setup(Session* s, Tracer* tr) {
  s->db.reset();
  std::error_code ec;
  std::filesystem::remove_all(s->dir, ec);
  const int64_t t0 = NowNs();
  s->setup_digest = workload::kDigestSeed;
  s->gen = std::make_unique<WorkloadGenerator>(s->opts);
  TDB_ASSIGN_OR_RETURN(s->db, OpenDatabase(s));
  for (const WorkloadOp& op : workload::WorkloadDdl(s->opts)) {
    s->clock.SetTime(Chronon(op.day));
    s->setup_digest = workload::DigestOp(s->setup_digest, op);
    TDB_RETURN_IF_ERROR(s->db->Execute(op.stmt).status());
  }
  const auto apply = [s, tr](const WorkloadOp& op) {
    s->setup_digest = workload::DigestOp(s->setup_digest, op);
    tr->NewRequest();
    return ApplyOp(s, tr, op);
  };
  for (const WorkloadOp& op : s->gen->SeedOps()) {
    TDB_RETURN_IF_ERROR(apply(op));
  }
  WorkloadOp op;
  for (size_t i = 0; i < s->spec->history_ops && s->gen->Next(&op); ++i) {
    TDB_RETURN_IF_ERROR(apply(op));
  }
  tr->NewRequest();
  TDB_RETURN_IF_ERROR(Checkpoint(s, tr));
  s->db.reset();
  // The pristine copy that every later pass restores is bookkeeping of the
  // benchmark, not part of the measured set-up.
  const int64_t copy_start = NowNs();
  std::filesystem::remove_all(BaseDir(s), ec);
  std::filesystem::copy(s->dir, BaseDir(s),
                        std::filesystem::copy_options::recursive, ec);
  if (ec) return Status::IOError("copy " + s->dir + ": " + ec.message());
  const int64_t copy_ns = NowNs() - copy_start;
  tr->NewRequest();
  TDB_RETURN_IF_ERROR(Reopen(s, tr));
  return static_cast<double>(NowNs() - t0 - copy_ns) / 1e9;
}

// Returns the database to the state set-up left: its checkpoint, reopened.
Status Restore(Session* s, Tracer* tr) {
  s->db.reset();
  std::error_code ec;
  std::filesystem::remove_all(s->dir, ec);
  std::filesystem::copy(BaseDir(s), s->dir,
                        std::filesystem::copy_options::recursive, ec);
  if (ec) return Status::IOError("restore " + s->dir + ": " + ec.message());
  return Reopen(s, tr);
}

// ---------------------------------------------------------------------------
// Reads.

// Drains the scans the evaluator opens for each participant over the
// query's pushed-down as-of and static valid windows, timed apart from the
// evaluator (whose own scans are not visible from outside the engine).
// The scan-stats sink is detached meanwhile so the exact counts see only
// the statement's own work.
Status ScanProbe(Tracer* tr, const tquel::BoundRetrieve& bound,
                 const ReadSnapshot* snap) {
  std::optional<Period> asof;
  if (bound.asof_at != nullptr) {
    TDB_ASSIGN_OR_RETURN(Period at, bound.asof_at->Eval({}));
    asof = Period::At(at.begin());
    if (bound.asof_through != nullptr) {
      TDB_ASSIGN_OR_RETURN(Period through, bound.asof_through->Eval({}));
      asof = Period(at.begin(), through.begin().Next());
    }
  }
  SpanScope span(tr, "temporal.scan");
  for (size_t i = 0; i < bound.participants.size(); ++i) {
    StoredRelation* rel = bound.participants[i].relation;
    ScanSpec spec;
    spec.asof = asof;
    if (snap != nullptr) spec.snapshot = snap->PinFor(rel->store());
    if (bound.when != nullptr && SupportsValidTime(rel->temporal_class())) {
      spec.valid_during = bound.when->PushdownWindow(i, {}, 0);
    }
    ScanStats* sink = rel->store()->options().scan_stats;
    rel->store()->set_scan_stats(nullptr);
    VersionBatchScan scan = rel->BatchScan(spec);
    VersionBatch batch;
    while (scan.Next(&batch)) {
    }
    rel->store()->set_scan_stats(sink);
  }
  return Status::OK();
}

// Parse, analyze and evaluate one retrieve as separate layer calls: the
// same work `Database::Query` (writer path, `snap` null) or
// `QueryAtSnapshot` does in one call.
Result<Rowset> TracedRetrieve(Tracer* tr, const std::string& query,
                              const tquel::AnalyzerContext& actx,
                              const tquel::EvalContext& ectx,
                              std::optional<tquel::BoundRetrieve>* bound) {
  std::optional<Result<tquel::Statement>> stmt;
  {
    SpanScope span(tr, "tquel.parse");
    stmt.emplace(tquel::ParseOne(query));
  }
  if (!stmt->ok()) return stmt->status();
  const auto* retrieve = std::get_if<tquel::RetrieveStmt>(&**stmt);
  if (retrieve == nullptr) {
    return Status::InvalidArgument("not a retrieve: " + query);
  }
  {
    SpanScope span(tr, "tquel.analyze");
    Result<tquel::BoundRetrieve> b = tquel::AnalyzeRetrieve(*retrieve, actx);
    if (!b.ok()) return b.status();
    bound->emplace(std::move(*b));
  }
  SpanScope span(tr, "tquel.eval");
  return tquel::EvaluateRetrieve(**bound, ectx);
}

Result<Rowset> WriterRead(Session* s, Tracer* tr, const std::string& query) {
  if (!tr->enabled()) return s->db->Query(query);
  Database* db = s->db.get();
  auto get_relation = [db](std::string_view name) {
    return db->GetRelation(name);
  };
  tquel::AnalyzerContext actx;
  actx.get_relation = get_relation;
  actx.ranges = &db->ranges();
  tquel::EvalContext ectx;
  ectx.get_relation = get_relation;
  ectx.ranges = &db->ranges();
  ectx.txn_manager = db->txn_manager();
  std::optional<tquel::BoundRetrieve> bound;
  std::optional<Result<Rowset>> rows;
  {
    SpanScope span(tr, "core.writer_read");
    rows.emplace(TracedRetrieve(tr, query, actx, ectx, &bound));
  }
  if (rows->ok()) TDB_RETURN_IF_ERROR(ScanProbe(tr, *bound, nullptr));
  return std::move(*rows);
}

Result<Rowset> PinnedRead(Session* s, Tracer* tr, const std::string& query) {
  if (!tr->enabled()) {
    TDB_ASSIGN_OR_RETURN(ReadSnapshot snap, s->db->BeginReadSnapshot());
    return s->db->QueryAtSnapshot(snap, query);
  }
  std::optional<Result<ReadSnapshot>> snap;
  std::optional<tquel::BoundRetrieve> bound;
  std::optional<Result<Rowset>> rows;
  std::map<std::string, std::string> ranges;
  {
    SpanScope span(tr, "core.snapshot_read");
    {
      SpanScope pin(tr, "temporal.pin");
      snap.emplace(s->db->BeginReadSnapshot());
    }
    if (!snap->ok()) return snap->status();
    const ReadSnapshot* pinned = &**snap;
    ranges = pinned->ranges();
    auto get_relation =
        [pinned](std::string_view name) -> Result<StoredRelation*> {
      const StoredRelation* rel = pinned->relation(name);
      if (rel == nullptr) {
        return Status::NotFound("no such relation: " + std::string(name));
      }
      // Read only through snapshot-mode scans, as in QueryAtSnapshot.
      return const_cast<StoredRelation*>(rel);
    };
    tquel::AnalyzerContext actx;
    actx.get_relation = get_relation;
    actx.ranges = &ranges;
    tquel::EvalContext ectx;
    ectx.get_relation = get_relation;
    ectx.snapshot = pinned;
    rows.emplace(TracedRetrieve(tr, query, actx, ectx, &bound));
  }
  if (rows->ok()) TDB_RETURN_IF_ERROR(ScanProbe(tr, *bound, &**snap));
  return std::move(*rows);
}

std::vector<std::string> Canonical(const Rowset& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows.rows()) out.push_back(r.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

// Canonical digest of every relation's versions: values, valid period and
// transaction period of each, order-independent.
uint64_t DatabaseDigest(Database* db) {
  uint64_t h = workload::kDigestSeed;
  std::vector<RelationInfo> infos = db->ListRelations();
  std::sort(infos.begin(), infos.end(),
            [](const RelationInfo& a, const RelationInfo& b) {
              return a.name < b.name;
            });
  for (const RelationInfo& info : infos) {
    Result<StoredRelation*> rel = db->GetRelation(info.name);
    if (!rel.ok()) return 0;
    std::vector<std::string> versions;
    (*rel)->store()->ForEach([&](RowId, const BitemporalTuple& t) {
      versions.push_back(t.ToString());
    });
    std::sort(versions.begin(), versions.end());
    h = workload::DigestOp(h, WorkloadOp{0, info.name});
    for (const std::string& v : versions) {
      h = workload::DigestOp(h, WorkloadOp{0, v});
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// One run.

struct RunResult {
  // Every timed statement's latency and every pass's statements/s, by the
  // CPU the pass ran on.
  std::vector<std::vector<double>> latency_us;
  std::vector<std::vector<double>> pass_rates;
  size_t passes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  Counts counts;                   // Over the first pass.
  // Peak resident memory at the end of the first pass: every later pass
  // repeats its work, and only this benchmark's own sample buffers would
  // keep growing, by an amount that depends on the host's speed.
  double peak_rss_mb = 0.0;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

// One statement of a pass: a generated DML op, or a read query.
struct Statement {
  bool dml = false;
  WorkloadOp op;
  std::string query;
  bool pinned = false;  // Read through a fresh snapshot pin.
};

// The timed phase replays one fixed, seed-determined list of statements
// (a pass) as often as the time allows.  A pass that writes starts from
// the state set-up left, so every pass does identical work: the ingest
// stream would otherwise slow down as retroactive corrections fragment
// the current rows every DML statement walks, and a faster build would be
// measured on a larger database than a slower one.
class Runner {
 public:
  Runner(Session* s, CpuRotation* cpus, uint64_t seed)
      : s_(s),
        cpus_(cpus),
        rng_(seed ^ 0x9E3779B97F4A7C15ULL),
        day_(s->gen->day()) {
    const WorkloadSpec& spec = *s_->spec;
    WorkloadGenerator* dml = s_->gen.get();  // Continues past the history.
    for (size_t i = 0; i < spec.pass_statements; ++i) {
      Statement st;
      switch (spec.kind) {
        case Kind::kIngest:
          st.dml = true;
          break;
        case Kind::kReadMix:
          st.dml = i % 10 == 9;
          st.pinned = (i - i / 10) % 2 == 1;
          if (!st.dml) st.query = NextRead();
          break;
        case Kind::kWhenJoin:
          st.query = workload::MakeQuery(QueryClass::kWhenJoin, &rng_,
                                         s_->opts, day_);
          break;
      }
      if (st.dml) {
        if (!dml->Next(&st.op)) break;
        day_ = dml->day();
      }
      pass_digest_ = workload::DigestOp(
          pass_digest_, st.dml ? st.op : WorkloadOp{0, st.query});
      pass_.push_back(std::move(st));
    }
  }

  // Digest of the pass's statements: equal digests mean equal input.
  uint64_t pass_digest() const { return pass_digest_; }
  uint64_t disk_bytes() const { return disk_bytes_; }

  // Runs whole passes until `seconds` have elapsed, every CPU ran at least
  // `min_per_cpu` and all ran the same number.  The pass under way
  // when time runs out is finished, so every pass measures the same
  // statements.
  void TimedPhase(Tracer* tr, double seconds, size_t min_per_cpu,
                  RunResult* out) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    const size_t min_passes = min_per_cpu * cpus_->size();
    out->latency_us.resize(cpus_->size());
    out->pass_rates.resize(cpus_->size());
    for (size_t pass = 0; pass < min_passes || NowNs() < deadline ||
                          pass % cpus_->size() != 0;
         ++pass) {
      const size_t cpu = cpus_->MoveToNext();
      if (dirty_) {
        // Restores are bookkeeping between passes, not timed statements.
        const Phase phase = tr->phase();
        tr->set_phase(Phase::kSetup);
        tr->NewRequest();
        const Status st = Restore(s_, tr);
        tr->set_phase(phase);
        if (!st.ok()) {
          out->Fail("restore: " + st.ToString());
          return;
        }
        dirty_ = false;
      }
      const Counts start = Snapshot();
      const int64_t pass_start = NowNs();
      for (size_t i = 0; i < pass_.size(); ++i) {
        tr->NewRequest();
        const int64_t t0 = NowNs();
        const Status st = Execute(tr, i);
        out->latency_us[cpu].push_back(static_cast<double>(NowNs() - t0) /
                                       1e3);
        ++out->attempted;
        if (!st.ok()) out->Fail(st.ToString());
      }
      out->pass_rates[cpu].push_back(
          static_cast<double>(pass_.size()) * 1e9 /
          static_cast<double>(NowNs() - pass_start));
      if (++out->passes == 1) {
        out->counts = Delta(start, Snapshot());
        out->counts.statements = pass_.size();
        out->peak_rss_mb = PeakRssMb();
      }
    }
  }

  void Gate(Tracer* tr, RunResult* out) {
    switch (s_->spec->kind) {
      case Kind::kIngest:
        return IngestGate(tr, out);
      case Kind::kReadMix:
        return ReadMixGate(tr, out);
      case Kind::kWhenJoin:
        return WhenJoinGate(tr, out);
    }
  }

 private:
  Counts Snapshot() const {
    Counts c;
    c.partitions_considered = s_->stats.considered();
    c.partitions_pruned = s_->stats.pruned_tt() + s_->stats.pruned_vt() +
                          s_->stats.pruned_snapshot();
    c.rows_scanned = s_->stats.rows_scanned.load(std::memory_order_relaxed);
    c.rows_out = s_->rows_out;
    c.wal_bytes = s_->wal_bytes;
    return c;
  }

  static Counts Delta(const Counts& a, const Counts& b) {
    Counts d;
    d.partitions_considered = b.partitions_considered - a.partitions_considered;
    d.partitions_pruned = b.partitions_pruned - a.partitions_pruned;
    d.rows_scanned = b.rows_scanned - a.rows_scanned;
    d.rows_out = b.rows_out - a.rows_out;
    d.wal_bytes = b.wal_bytes - a.wal_bytes;
    return d;
  }

  std::string NextRead() {
    const QueryClass cls =
        rng_.Uniform(2) == 0 ? QueryClass::kAudit : QueryClass::kStab;
    return workload::MakeQuery(cls, &rng_, s_->opts, day_);
  }

  Status Read(Tracer* tr, const std::string& query, bool pinned) {
    Result<Rowset> rows = pinned ? PinnedRead(s_, tr, query)
                                 : WriterRead(s_, tr, query);
    if (!rows.ok()) return rows.status();
    s_->rows_out += rows->size();
    return Status::OK();
  }

  Status Execute(Tracer* tr, size_t i) {
    const Statement& st = pass_[i];
    if (!st.dml) return Read(tr, st.query, st.pinned);
    dirty_ = true;
    TDB_RETURN_IF_ERROR(ApplyOp(s_, tr, st.op));
    if (s_->spec->kind == Kind::kIngest && (i + 1) % kCheckpointEvery == 0) {
      // An application-driven checkpoint, charged to the statement that
      // triggers it.  The directory size after a pass's last one (the same
      // in every pass) is ingest's disk_mb.
      TDB_RETURN_IF_ERROR(Checkpoint(s_, tr));
      disk_bytes_ = DirBytes(s_->dir);
    }
    return Status::OK();
  }

  void Check(RunResult* out, bool ok, const std::string& what) {
    ++out->attempted;
    if (!ok) out->Fail("gate: " + what);
  }

  // Recovery: close without a final checkpoint, so reopening replays the
  // WAL tail written since the pass's last checkpoint; every version and a
  // sample of audit/stab reads must survive.
  void IngestGate(Tracer* tr, RunResult* out) {
    std::vector<std::string> queries;
    std::vector<std::vector<std::string>> before;
    for (size_t k = 0; k < kGateSamples; ++k) {
      queries.push_back(NextRead());
      tr->NewRequest();
      Result<Rowset> rows = WriterRead(s_, tr, queries.back());
      before.push_back(rows.ok() ? Canonical(*rows)
                                 : std::vector<std::string>{"error"});
    }
    const uint64_t digest = DatabaseDigest(s_->db.get());
    tr->NewRequest();
    const Status reopened = Reopen(s_, tr);
    Check(out, reopened.ok(), "reopen: " + reopened.ToString());
    if (!reopened.ok()) return;
    Check(out, DatabaseDigest(s_->db.get()) == digest,
          "version digest differs after WAL replay");
    for (size_t k = 0; k < queries.size(); ++k) {
      for (bool pinned : {false, true}) {
        tr->NewRequest();
        Result<Rowset> rows = pinned ? PinnedRead(s_, tr, queries[k])
                                     : WriterRead(s_, tr, queries[k]);
        Check(out, rows.ok() && Canonical(*rows) == before[k],
              "read differs after recovery: " + queries[k]);
      }
    }
  }

  // Seeded sample of the pass's reads: the writer path (indexes) and the
  // pinned path (pruned sweeps) must agree.
  std::vector<std::string> SampleQueries() {
    std::vector<std::string> out;
    for (const Statement& st : pass_) {
      if (!st.dml && rng_.Uniform(pass_.size()) < 2 * kGateSamples) {
        out.push_back(st.query);
      }
      if (out.size() == kGateSamples) break;
    }
    return out;
  }

  void ReadMixGate(Tracer* tr, RunResult* out) {
    for (const std::string& query : SampleQueries()) {
      tr->NewRequest();
      Result<Rowset> w = WriterRead(s_, tr, query);
      tr->NewRequest();
      Result<Rowset> p = PinnedRead(s_, tr, query);
      Check(out, w.ok() && p.ok() && Canonical(*w) == Canonical(*p),
            "writer and pinned reads differ: " + query);
    }
  }

  // Sampled joins must equal an overlap join the benchmark computes itself
  // from two single-relation retrieves, without the evaluator's join.
  void WhenJoinGate(Tracer* tr, RunResult* out) {
    for (const std::string& query : SampleQueries()) {
      unsigned long long lo = 0, hi = 0;
      const char* band = std::strstr(query.c_str(), "s.emp >= ");
      if (band == nullptr ||
          std::sscanf(band, "s.emp >= %llu and s.emp < %llu", &lo, &hi) != 2) {
        Check(out, false, "unrecognized join shape: " + query);
        continue;
      }
      const auto band_of = [&](const char* var) {
        const std::string v = std::string(var) + ".emp";
        return " where " + v + " >= " + std::to_string(lo) + " and " + v +
               " < " + std::to_string(hi);
      };
      tr->NewRequest();
      Result<Rowset> joined = WriterRead(s_, tr, query);
      tr->NewRequest();
      Result<Rowset> sal =
          PinnedRead(s_, tr, "retrieve (s.emp, s.amount)" + band_of("s"));
      tr->NewRequest();
      Result<Rowset> asg =
          PinnedRead(s_, tr, "retrieve (a.emp, a.dept)" + band_of("a"));
      if (!joined.ok() || !sal.ok() || !asg.ok()) {
        Check(out, false, "join gate query failed: " + query);
        continue;
      }
      Rowset expected;
      for (const Row& x : sal->rows()) {
        for (const Row& y : asg->rows()) {
          if (x.values[0] != y.values[0]) continue;
          const Period v = x.valid->Intersect(*y.valid);
          if (v.IsEmpty()) continue;
          Row row;
          row.values = {x.values[0], x.values[1], y.values[1]};
          row.valid = v;
          expected.rows().push_back(std::move(row));
        }
      }
      Check(out, Canonical(*joined) == Canonical(expected),
            "join differs from brute force: " + query);
    }
  }

  Session* s_;
  CpuRotation* cpus_;
  Random rng_;
  int64_t day_;  // Latest transaction day of the statements so far.
  std::vector<Statement> pass_;
  uint64_t pass_digest_ = workload::kDigestSeed;
  bool dirty_ = false;
  uint64_t disk_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i > 0 ? ", " : "", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}

// The median over CPUs of each CPU's `p`th percentile.  Pooled, the samples
// form one cluster per CPU: a pooled median can fall in the gap between two
// clusters, where it jumps from run to run (when_join, whose statements all
// cost about the same), and a pooled tail follows whichever CPU is slowest.
double AcrossCpus(const std::vector<std::vector<double>>& by_cpu, double p) {
  std::vector<double> per_cpu;
  for (const std::vector<double>& v : by_cpu) {
    if (!v.empty()) per_cpu.push_back(Percentile(v, p));
  }
  return Median(std::move(per_cpu));
}

// The mean of the middle half of all passes' rates.  A slow spell of the
// host that spoils under a quarter of the passes does not move it, and
// unlike a median it does not jump when the passes split into a fast and a
// slow cluster (the host switches a CPU between them within seconds).
double InterquartileMean(const std::vector<std::vector<double>>& by_cpu) {
  std::vector<double> all;
  for (const std::vector<double>& v : by_cpu) {
    all.insert(all.end(), v.begin(), v.end());
  }
  if (all.empty()) return 0.0;
  std::sort(all.begin(), all.end());
  const size_t lo = all.size() / 4;
  const size_t hi = all.size() - all.size() / 4;
  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) sum += all[i];
  return sum / static_cast<double>(hi - lo);
}

// Per-layer figures from the spans: p50 of each named call over the timed
// phase, or over set-up and the correctness gate when the timed phase
// never makes that call (e.g. pins on ingest, commits on when_join).
double SpanP50(const Tracer& tr, const char* name) {
  std::vector<double> timed, other;
  for (const Span& s : tr.spans()) {
    if (std::strcmp(s.name, name) != 0) continue;
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    (s.phase == Phase::kTimed ? timed : other).push_back(us);
  }
  return Median(timed.empty() ? other : timed);
}

// Self time (span duration minus its children's) of each layer, in µs
// per request that enters the layer.  Like SpanP50, it uses the timed
// phase, or set-up and the gate for a layer the timed phase never enters.
std::map<std::string, double> SelfUsPerRequest(const Tracer& tr) {
  const std::vector<Span>& spans = tr.spans();
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].end_ns - spans[i].start_ns;
    if (spans[i].parent >= 0) {
      self[static_cast<size_t>(spans[i].parent)] -=
          spans[i].end_ns - spans[i].start_ns;
    }
  }
  struct Sum {
    int64_t ns = 0;
    std::set<uint32_t> requests;
  };
  // [layer][timed?]
  std::map<std::string, Sum[2]> sums;
  for (const char* layer : {"core", "tquel", "temporal", "storage"}) {
    (void)sums[layer];
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    Sum& sum = sums[name.substr(0, name.find('.'))]
                   [spans[i].phase == Phase::kTimed ? 1 : 0];
    sum.ns += self[i];
    sum.requests.insert(spans[i].request);
  }
  std::map<std::string, double> out;
  for (const auto& [layer, by_phase] : sums) {
    const Sum& sum = by_phase[1].requests.empty() ? by_phase[0] : by_phase[1];
    out[layer] = sum.requests.empty()
                     ? 0.0
                     : static_cast<double>(sum.ns) / 1e3 /
                           static_cast<double>(sum.requests.size());
  }
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      have_seed = *end == '\0';
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, &end);
      have_seconds = *end == '\0' && a->seconds > 0;
    } else if (key == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
      have_trace = a->trace || std::strcmp(v, "0") == 0;
    } else if (key == "--dir") {
      a->dir = v;
    } else if (key == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return have_seed && have_seconds && have_trace && !a->dir.empty() &&
         !a->workload.empty();
}

int Run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const HostProbe probe_before = ProbeHost();

  Tracer tracer(args.trace);
  Session s;
  s.spec = spec;
  s.opts = GeneratorOptions(*spec);
  s.dir = args.dir;
  s.install_stats = args.trace;

  std::vector<double> setup_s;
  CpuRotation cpus;
  const size_t repeats = args.trace ? 1 : spec->setup_rotations * cpus.size();
  for (size_t r = 0; r < repeats; ++r) {
    cpus.MoveToNext();
    Result<double> t = Setup(&s, &tracer);
    if (!t.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", t.status().ToString().c_str());
      PrintResult(false, 1, 1, {});
      return 1;
    }
    setup_s.push_back(*t);
  }
  const uint64_t setup_digest = s.setup_digest;
  const uint64_t setup_disk_bytes = DirBytes(s.dir);

  Runner runner(&s, &cpus, args.seed);
  RunResult result;
  tracer.set_phase(Phase::kTimed);
  // A traced run splits its time: half traced, then half untraced on the
  // same statements, so the tracing overhead is measured within one run.
  // It reports no tail, so one pass per CPU is enough.
  if (args.trace) {
    runner.TimedPhase(&tracer, args.seconds / 2, 1, &result);
  } else {
    runner.TimedPhase(&tracer, args.seconds, spec->min_passes_per_cpu,
                      &result);
  }
  RunResult untraced;
  Tracer off(false);
  if (args.trace) {
    runner.TimedPhase(&off, args.seconds / 2, 1, &untraced);
    result.attempted += untraced.attempted;
    result.failed += untraced.failed;
    result.errors.insert(result.errors.end(), untraced.errors.begin(),
                         untraced.errors.end());
  }
  tracer.set_phase(Phase::kGate);
  runner.Gate(&tracer, &result);
  const HostProbe probe_after = ProbeHost();

  const uint64_t disk_bytes =
      spec->kind == Kind::kIngest ? runner.disk_bytes() : setup_disk_bytes;
  const double ops_per_s = InterquartileMean(result.pass_rates);
  size_t samples = 0;
  size_t fewest_on_a_cpu = SIZE_MAX;
  for (const std::vector<double>& on_cpu : result.latency_us) {
    samples += on_cpu.size();
    fewest_on_a_cpu = std::min(fewest_on_a_cpu, on_cpu.size());
  }
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "error: %s\n", e.c_str());
  }
  std::fprintf(stderr, "setup (s):");
  for (double t : setup_s) std::fprintf(stderr, " %.4f", t);
  std::fprintf(stderr, "\n");
  for (size_t cpu = 0; cpu < result.pass_rates.size(); ++cpu) {
    std::fprintf(stderr, "pass rates on CPU #%zu (statements/s):", cpu);
    for (double r : result.pass_rates[cpu]) std::fprintf(stderr, " %.1f", r);
    std::fprintf(stderr, "\n");
  }
  const Counts& c = result.counts;
  std::printf(
      "workload=%s seed=%llu passes=%zu samples=%zu cpus=%zu "
      "fewest_samples_on_a_cpu=%zu tail=p%g "
      "setup_digest=%016llx pass_digest=%016llx host_spin_ms=%.2f/%.2f "
      "host_chase_ms=%.2f/%.2f\n",
      spec->name, static_cast<unsigned long long>(args.seed),
      result.passes, samples, result.latency_us.size(), fewest_on_a_cpu,
      spec->tail_percentile, static_cast<unsigned long long>(setup_digest),
      static_cast<unsigned long long>(runner.pass_digest()),
      probe_before.spin_ms, probe_after.spin_ms, probe_before.chase_ms,
      probe_after.chase_ms);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"ops_per_s", ops_per_s, "1/s"},
        {"p50_us", AcrossCpus(result.latency_us, 50.0), "us"},
        {"tail_us", AcrossCpus(result.latency_us, spec->tail_percentile), "us"},
        {"peak_rss_mb", result.peak_rss_mb, "MB"},
        {"disk_mb", static_cast<double>(disk_bytes) / (1024.0 * 1024.0), "MB"},
    };
  } else {
    std::printf(
        "counts: statements=%llu partitions_considered=%llu "
        "partitions_pruned=%llu rows_scanned=%llu rows_out=%llu "
        "wal_bytes=%llu disk_bytes=%llu\n",
        static_cast<unsigned long long>(c.statements),
        static_cast<unsigned long long>(c.partitions_considered),
        static_cast<unsigned long long>(c.partitions_pruned),
        static_cast<unsigned long long>(c.rows_scanned),
        static_cast<unsigned long long>(c.rows_out),
        static_cast<unsigned long long>(c.wal_bytes),
        static_cast<unsigned long long>(disk_bytes));
    const auto ratio = [](uint64_t num, uint64_t den) {
      return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                     : 0.0;
    };
    const double untraced_ops = InterquartileMean(untraced.pass_rates);
    metrics = {
        {"tquel.parse_us", SpanP50(tracer, "tquel.parse"), "us"},
        {"tquel.analyze_us", SpanP50(tracer, "tquel.analyze"), "us"},
        {"tquel.eval_us", SpanP50(tracer, "tquel.eval"), "us"},
        {"temporal.scan_us", SpanP50(tracer, "temporal.scan"), "us"},
        {"temporal.pin_us", SpanP50(tracer, "temporal.pin"), "us"},
        {"core.writer_read_us", SpanP50(tracer, "core.writer_read"), "us"},
        {"core.snapshot_read_us", SpanP50(tracer, "core.snapshot_read"), "us"},
        {"core.dml_us", SpanP50(tracer, "core.dml"), "us"},
        {"storage.commit_us", SpanP50(tracer, "storage.commit"), "us"},
        {"storage.wal_bytes_per_op", ratio(c.wal_bytes, c.statements), "B/op"},
        {"storage.checkpoint_ms", SpanP50(tracer, "storage.checkpoint") / 1e3,
         "ms"},
        {"storage.reopen_ms", SpanP50(tracer, "storage.reopen") / 1e3, "ms"},
        {"temporal.partitions_pruned_frac",
         ratio(c.partitions_pruned, c.partitions_considered), "ratio"},
        {"temporal.rows_scanned_per_row", ratio(c.rows_scanned, c.rows_out),
         "ratio"},
        {"host.probe_ms", std::max(probe_before.spin_ms, probe_after.spin_ms),
         "ms"},
        {"host.chase_ms",
         std::max(probe_before.chase_ms, probe_after.chase_ms), "ms"},
        {"trace.ops_per_s", ops_per_s, "1/s"},
        {"trace.overhead_frac",
         untraced_ops > 0 ? 1.0 - ops_per_s / untraced_ops : 0.0, "ratio"},
    };
    for (const auto& [layer, us] : SelfUsPerRequest(tracer)) {
      metrics.push_back({layer + ".self_us", us, "us"});
    }
    if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
      std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
    }
  }
  s.db.reset();
  const bool correct = result.failed == 0;
  PrintResult(correct, result.attempted, result.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace temporadb

int main(int argc, char** argv) {
  temporadb::perfbench::Args args;
  if (!temporadb::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <ingest|read_mix|when_join> --seed <n> "
                 "--seconds <s> --trace <0|1> --dir <path> "
                 "[--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  return temporadb::perfbench::Run(args);
}
