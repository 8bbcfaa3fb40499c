#include "workload/driver.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace temporadb {
namespace workload {
namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1) +
                                   0.5);
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

// A rowset as reference facts: periods the rowset lacks are `Period::All()`.
std::vector<reference::Fact> ToFacts(const Rowset& rows) {
  std::vector<reference::Fact> out;
  for (const Row& r : rows.rows()) {
    out.push_back(reference::Fact{r.values, r.valid.value_or(Period::All()),
                                  r.txn.value_or(Period::All())});
  }
  return out;
}

}  // namespace

/// Per-reader-thread scratch: owned exclusively by its thread until join,
/// merged by the writer afterwards.  Pins are the one cross-thread signal
/// (the writer spin-waits on them), so they live in a separate atomic.
struct WorkloadDriver::ReaderStats {
  std::map<std::string, std::vector<double>> latency_us;
  uint64_t queries = 0;
  std::vector<std::string> errors;
};

WorkloadDriver::WorkloadDriver(const DriverOptions& options)
    : options_(options), gen_(options.gen) {}

WorkloadDriver::~WorkloadDriver() = default;

Status WorkloadDriver::Setup() {
  clock_ = std::make_unique<ManualClock>();

  DatabaseOptions primary;
  primary.clock = clock_.get();
  primary.store_options = options_.store;
  Result<std::unique_ptr<Database>> db = Database::Open(primary);
  if (!db.ok()) return db.status();
  db_ = std::move(*db);

  for (const WorkloadOp& op : WorkloadDdl(options_.gen)) {
    TDB_RETURN_IF_ERROR(ApplyBoth(op));
  }
  for (const WorkloadOp& op : gen_.SeedOps()) {
    TDB_RETURN_IF_ERROR(ApplyBoth(op));
  }
  // Install the stats sink after DDL, before any reader exists (the sink
  // pointer is a store option: writer-side, quiesced writes only).
  for (const RelationInfo& info : db_->ListRelations()) {
    Result<StoredRelation*> rel = db_->GetRelation(info.name);
    if (rel.ok()) (*rel)->store()->set_scan_stats(&stats_);
  }
  return Status::OK();
}

Status WorkloadDriver::ApplyBoth(const WorkloadOp& op) {
  clock_->SetTime(Chronon(op.day));
  const SteadyClock::time_point t0 = SteadyClock::now();
  Result<tquel::ExecResult> r = db_->Execute(op.stmt);
  primary_write_seconds_ += SecondsSince(t0);
  if (!r.ok()) {
    return Status::Internal("primary rejected [" + op.stmt +
                            "]: " + r.status().ToString());
  }
  Result<reference::Answer> want =
      reference_.Execute(op.stmt, Chronon(op.day));
  if (!want.ok()) {
    return Status::Internal("reference rejected [" + op.stmt +
                            "]: " + want.status().ToString());
  }
  if (r->kind == tquel::ExecResult::Kind::kCount && r->count != want->count) {
    Mismatch("selection diverges [" + op.stmt + "]: reference " +
             std::to_string(want->count) + " vs engine " +
             std::to_string(r->count));
  }
  ++report_.ops_applied;
  report_.ops_digest = DigestOp(report_.ops_digest, op);
  return Status::OK();
}

Status WorkloadDriver::FlushFenced() {
  // Readers are joined and no verification pin exists yet: the correction
  // path is open.  Engine and reference apply the buffered ops in the same
  // order, so the differential — and the stream digest, a pure function of
  // (stream, sync_every) — are unaffected by the deferral.
  for (const WorkloadOp& op : pending_fenced_) {
    TDB_RETURN_IF_ERROR(ApplyBoth(op));
  }
  pending_fenced_.clear();
  return Status::OK();
}

void WorkloadDriver::ReaderLoop(size_t id, size_t segment, int64_t horizon,
                                const std::atomic<bool>* stop,
                                std::atomic<uint64_t>* pins,
                                ReaderStats* out) {
  // Per-reader deterministic query stream; the *interleaving* with the
  // writer is scheduling-dependent, the queries themselves are not.
  Random rng(options_.gen.seed ^
             (0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(id + 1)) ^
             (0xBF58476D1CE4E5B9ULL * static_cast<uint64_t>(segment + 1)));
  size_t cursor = id;
  while (!stop->load(std::memory_order_relaxed)) {
    Result<ReadSnapshot> snap = db_->BeginReadSnapshot();
    if (!snap.ok()) {
      out->errors.push_back("pin failed: " + snap.status().ToString());
      return;
    }
    pins->fetch_add(1, std::memory_order_relaxed);
    for (int q = 0; q < 3; ++q) {
      const QueryClass cls = kQueryClasses[cursor++ % 3];
      const std::string query = MakeQuery(cls, &rng, options_.gen, horizon);
      const SteadyClock::time_point t0 = SteadyClock::now();
      Result<Rowset> r = db_->QueryAtSnapshot(*snap, query);
      const double us = SecondsSince(t0) * 1e6;
      if (!r.ok()) {
        out->errors.push_back("reader query failed [" + query +
                              "]: " + r.status().ToString());
        continue;
      }
      out->latency_us[QueryClassName(cls)].push_back(us);
      ++out->queries;
      if (q == 0) {
        // Pin stability: the same pin must answer identically while the
        // writer keeps committing underneath it.
        Result<Rowset> again = db_->QueryAtSnapshot(*snap, query);
        if (!again.ok() || !Rowset::SameContent(*r, *again)) {
          out->errors.push_back("pin instability [" + query + "]");
        }
      }
      if (stop->load(std::memory_order_relaxed)) break;
    }
  }
}

Status WorkloadDriver::RunSegment(size_t n_ops, size_t segment) {
  const size_t nr = options_.reader_threads;
  std::atomic<bool> stop{false};
  std::vector<ReaderStats> stats(nr);
  std::unique_ptr<std::atomic<uint64_t>[]> pins;
  std::vector<std::thread> readers;
  readers.reserve(nr);
  // Anchor reader queries inside the history that already exists — their
  // results vary with the snapshot they pin, but never probe past data the
  // segment has not yet committed on entry.
  const int64_t horizon = gen_.day();
  const SteadyClock::time_point seg_t0 = SteadyClock::now();
  if (nr > 0) {
    pins.reset(new std::atomic<uint64_t>[nr]);
    // Relaxed: initialization before the spawn below; thread creation
    // publishes it to the readers.
    for (size_t i = 0; i < nr; ++i) {
      pins[i].store(0, std::memory_order_relaxed);
    }
    for (size_t i = 0; i < nr; ++i) {
      readers.emplace_back([this, i, segment, horizon, &stop, &pins,
                            &stats] {
        ReaderLoop(i, segment, horizon, &stop, &pins[i], &stats[i]);
      });
    }
  }

  Status st = Status::OK();
  size_t applied = 0;
  WorkloadOp op;
  while (applied < n_ops && gen_.Next(&op)) {
    if (op.fenced) {
      // In-place corrections are excluded while snapshots are pinned
      // (MvccState::BeginCorrection fails fast): defer to the quiesced
      // maintenance window at the next sync point.
      pending_fenced_.push_back(op);
    } else {
      st = ApplyBoth(op);
      if (!st.ok()) break;
    }
    ++applied;
  }
  if (st.ok()) {
    // Sustained-writes guarantee: every reader saw the segment through at
    // least `reader_min_pins` distinct pins before teardown.
    for (size_t i = 0; i < nr; ++i) {
      while (pins[i].load(std::memory_order_relaxed) <
             options_.reader_min_pins) {
        std::this_thread::yield();
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  reader_seconds_ += SecondsSince(seg_t0);

  for (size_t i = 0; i < nr; ++i) {
    report_.reader_pins += pins[i].load(std::memory_order_relaxed);
    report_.reader_queries += stats[i].queries;
    for (auto& [cls, lat] : stats[i].latency_us) {
      std::vector<double>& sink = class_latency_us_[cls];
      sink.insert(sink.end(), lat.begin(), lat.end());
    }
    for (const std::string& err : stats[i].errors) Mismatch(err);
  }
  return st;
}

void WorkloadDriver::ComparePath(const std::string& query,
                                 const Result<reference::Answer>& want,
                                 const Result<Rowset>& got,
                                 const std::string& path) {
  ++report_.oracle_paths_checked;
  if (want.ok() != got.ok()) {
    Mismatch("status diverges on " + path + " [" + query + "]: reference " +
             (want.ok() ? "ok" : want.status().ToString()) + " vs engine " +
             (got.ok() ? "ok" : got.status().ToString()));
    return;
  }
  if (!want.ok()) return;
  std::vector<std::string> names;
  for (const Attribute& a : got->schema().attributes()) names.push_back(a.name);
  if (names != want->names || got->temporal_class() != want->result_class ||
      !reference::SameFacts(ToFacts(*got), want->rows)) {
    Mismatch("content diverges on " + path + " [" + query + "]: reference " +
             std::to_string(want->rows.size()) + " rows vs engine " +
             std::to_string(got->size()));
  }
}

void WorkloadDriver::Mismatch(const std::string& what) {
  ++report_.mismatches;
  if (report_.mismatch_samples.size() < 8) {
    report_.mismatch_samples.push_back(what);
  }
}

void WorkloadDriver::CheckStatsIdentity(const std::string& where) {
  const uint64_t considered = stats_.considered();
  const uint64_t pruned =
      stats_.pruned_tt() + stats_.pruned_vt() + stats_.pruned_snapshot();
  const uint64_t scanned = stats_.scanned();
  if (considered != pruned + scanned) {
    report_.stats_identity_ok = false;
    Mismatch("ScanStats identity broken at " + where + ": considered " +
             std::to_string(considered) + " != pruned " +
             std::to_string(pruned) + " + scanned " + std::to_string(scanned));
  }
}

void WorkloadDriver::DeepCheck(const std::string& where) {
  ++report_.deep_checks;
  const auto& relations = reference_.relations();
  if (db_->ListRelations().size() != relations.size()) {
    Mismatch("relation count diverges at " + where);
  }
  for (const auto& [name, want] : relations) {
    Result<StoredRelation*> rel = db_->GetRelation(name);
    std::vector<reference::Fact> got;
    if (rel.ok()) {
      (*rel)->store()->ForEach([&](RowId, const BitemporalTuple& t) {
        got.push_back(reference::Fact{t.values, t.valid, t.txn});
      });
    }
    if (!rel.ok() || !reference::SameFacts(std::move(got), want.facts)) {
      Mismatch("stored facts of " + name + " diverge at " + where);
    }
  }
}

void WorkloadDriver::VerifySync(size_t sync_idx) {
  ++report_.sync_points;
  // The accounting identity must hold at *every* sync point, over
  // everything scanned so far (reader snapshot sweeps included).
  CheckStatsIdentity("sync " + std::to_string(sync_idx));

  Random rng(options_.gen.seed * 0x2545F4914F6CDD1DULL +
             static_cast<uint64_t>(sync_idx));
  const int64_t horizon = gen_.day();
  for (QueryClass cls : kQueryClasses) {
    for (size_t k = 0; k < options_.queries_per_class; ++k) {
      const std::string query = MakeQuery(cls, &rng, options_.gen, horizon);
      ++report_.oracle_queries;
      const Result<reference::Answer> want =
          reference_.Execute(query, Chronon(horizon));
      ComparePath(query, want, db_->Query(query), "writer");
      // Snapshot path: a fresh pin over the quiesced writer must equal the
      // reference too.
      Result<ReadSnapshot> snap = db_->BeginReadSnapshot();
      if (!snap.ok()) {
        Mismatch("sync pin failed: " + snap.status().ToString());
      } else {
        ComparePath(query, want, db_->QueryAtSnapshot(*snap, query),
                    "snapshot");
      }
    }
  }
  if (options_.deep_check_every > 0 &&
      sync_idx % options_.deep_check_every == 0) {
    DeepCheck("sync " + std::to_string(sync_idx));
  }
}

void WorkloadDriver::FinalizeReport(double elapsed_ms, double reader_seconds) {
  report_.elapsed_ms = elapsed_ms;
  report_.write_ops_per_sec =
      primary_write_seconds_ > 0
          ? static_cast<double>(report_.ops_applied) / primary_write_seconds_
          : 0;
  for (auto& [cls, lat] : class_latency_us_) {
    std::sort(lat.begin(), lat.end());
    LatencySummary s;
    s.count = lat.size();
    s.qps = reader_seconds > 0
                ? static_cast<double>(lat.size()) / reader_seconds
                : 0;
    s.p50_us = Percentile(lat, 0.50);
    s.p95_us = Percentile(lat, 0.95);
    s.p99_us = Percentile(lat, 0.99);
    report_.latency[cls] = s;
  }
  report_.parts_considered = stats_.considered();
  report_.parts_pruned_tt = stats_.pruned_tt();
  report_.parts_pruned_vt = stats_.pruned_vt();
  report_.parts_pruned_snapshot = stats_.pruned_snapshot();
  report_.parts_scanned = stats_.scanned();
  report_.rows_scanned = stats_.rows();
}

Status WorkloadDriver::Run() {
  const SteadyClock::time_point t0 = SteadyClock::now();
  TDB_RETURN_IF_ERROR(Setup());
  size_t remaining = options_.gen.ops;
  size_t sync_idx = 0;
  const size_t sync_every = options_.sync_every > 0 ? options_.sync_every : 1;
  while (remaining > 0) {
    const size_t n = remaining < sync_every ? remaining : sync_every;
    TDB_RETURN_IF_ERROR(RunSegment(n, sync_idx));
    TDB_RETURN_IF_ERROR(FlushFenced());
    remaining -= n;
    ++sync_idx;
    VerifySync(sync_idx);
  }
  TDB_RETURN_IF_ERROR(FlushFenced());
  DeepCheck("final");
  CheckStatsIdentity("final");
  FinalizeReport(SecondsSince(t0) * 1e3, reader_seconds_);
  return Status::OK();
}

}  // namespace workload
}  // namespace temporadb
