#include "bench/bench_common.h"

#include <cstdio>

#include "common/strings.h"

namespace temporadb {
namespace bench {

ScenarioDb OpenScenarioDb(VersionStoreOptions store_options) {
  ScenarioDb out;
  out.clock = std::make_unique<ManualClock>();
  DatabaseOptions options;
  options.clock = out.clock.get();
  options.store_options = store_options;
  Result<std::unique_ptr<Database>> db = Database::Open(options);
  if (!db.ok()) {
    std::fprintf(stderr, "failed to open database: %s\n",
                 db.status().ToString().c_str());
    std::abort();
  }
  out.db = std::move(*db);
  return out;
}

FigureRun::FigureRun(std::string id)
    : id_(std::move(id)), start_(std::chrono::steady_clock::now()) {}

FigureRun::~FigureRun() {
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_)
          .count();
  const std::string path = "BENCH_" + id_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;  // Read-only working directory: skip the file.
  std::fprintf(f,
               "{\n  \"bench\": \"%s\",\n  \"kind\": \"figure\",\n"
               "  \"elapsed_ms\": %.3f\n}\n",
               id_.c_str(), elapsed_ms);
  std::fclose(f);
}

void PrintFigureHeader(const std::string& id, const std::string& title,
                       const std::string& note) {
  std::printf("=====================================================\n");
  std::printf("%s : %s\n", id.c_str(), title.c_str());
  std::printf("Snodgrass & Ahn, \"A Taxonomy of Time in Databases\", "
              "SIGMOD 1985\n");
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("=====================================================\n\n");
}

Result<size_t> UpdateByName(StoredRelation* rel, Transaction* txn,
                            const std::string& name,
                            const std::optional<std::string>& rank,
                            std::optional<Period> valid) {
  TDB_ASSIGN_OR_RETURN(std::optional<Period> window,
                       rel->DmlWindow(txn, valid));
  std::vector<RowId> victims;
  std::vector<std::vector<Value>> values;
  const VersionBatch candidates = rel->DmlCandidates(window, std::nullopt);
  for (size_t i = 0; i < candidates.size(); ++i) {
    const std::vector<Value>& old = candidates.values(i);
    if (old[0].AsString() != name) continue;
    victims.push_back(candidates.rows[i]);
    if (rank.has_value()) values.push_back({old[0], Value(*rank)});
  }
  TDB_RETURN_IF_ERROR(
      rank.has_value()
          ? rel->Replace(txn, victims, std::move(values), window)
          : rel->Delete(txn, victims, window));
  return victims.size();
}

StoredRelation* PopulateStream(Database* db, ManualClock* clock,
                               const std::string& relation, TemporalClass cls,
                               size_t n_entities, size_t churn, uint64_t seed,
                               bool bounded_valid) {
  Schema schema = *Schema::Make({Attribute{"name", Type::String()},
                                 Attribute{"rank", Type::String()}});
  Result<RelationInfo> info = db->CreateRelation(relation, schema, cls);
  if (!info.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 info.status().ToString().c_str());
    std::abort();
  }
  Result<StoredRelation*> rel = db->GetRelation(relation);
  Random rng(seed);
  const bool has_valid = SupportsValidTime(cls);
  const char* ranks[] = {"assistant", "associate", "full", "emeritus"};
  int64_t day = 3650;  // ~1980.
  for (size_t op = 0; op < churn; ++op) {
    day += 1 + static_cast<int64_t>(rng.Uniform(3));
    clock->SetTime(Chronon(day));
    std::string name = "e" + std::to_string(rng.Uniform(n_entities));
    std::string rank = ranks[rng.Uniform(4)];
    std::optional<Period> valid;
    if (has_valid) {
      int64_t from = day - 30 + static_cast<int64_t>(rng.Uniform(60));
      valid = (!bounded_valid && rng.OneIn(2))
                  ? Period::From(Chronon(from))
                  : Period(Chronon(from),
                           Chronon(from + 1 +
                                   static_cast<int64_t>(rng.Uniform(90))));
    }
    Status s = db->WithTransaction([&](Transaction* txn) -> Status {
      uint64_t pick = rng.Uniform(10);
      if (pick < 5) {
        return (*rel)->Append(txn, {Value(name), Value(rank)}, valid);
      }
      return UpdateByName(*rel, txn, name,
                          pick < 8 ? std::optional<std::string>(rank)
                                   : std::nullopt,
                          valid)
          .status();
    });
    if (!s.ok()) {
      std::fprintf(stderr, "stream op failed: %s\n", s.ToString().c_str());
      std::abort();
    }
  }
  return *rel;
}

int64_t PopulateLargeHistory(VersionStore* store, TxnManager* manager,
                             ManualClock* clock,
                             const LargeHistoryOptions& opts) {
  Random rng(opts.seed);
  const size_t entities = opts.entities > 0 ? opts.entities : 1;
  const size_t hot = entities / 8 > 0 ? entities / 8 : 1;
  // With the default theta = 0 the sampler is never consulted and the RNG
  // draw sequence below stays byte-identical to the legacy generator.
  const Zipf zipf(entities, opts.zipf_theta);
  const char* ranks[] = {"assistant", "associate", "full", "emeritus"};
  // Last still-current row per entity; kNone before the first insert.
  constexpr RowId kNone = static_cast<RowId>(-1);
  std::vector<RowId> current(entities, kNone);
  int64_t day = opts.start_day;
  auto run = [&](const std::function<Status(Transaction*)>& body) {
    clock->SetTime(Chronon(day));
    Result<Transaction*> txn = manager->Begin();
    Status s = txn.ok() ? body(*txn) : txn.status();
    if (s.ok()) s = manager->Commit(*txn);
    if (!s.ok()) {
      std::fprintf(stderr, "large-history op failed: %s\n",
                   s.ToString().c_str());
      std::abort();
    }
  };
  for (size_t v = 0; v < opts.versions; ++v) {
    day += static_cast<int64_t>(rng.Uniform(2));  // 0..1: dense timeline.
    // Skew: legacy hot-eighth 80/20 split, or a Zipf draw when requested.
    const size_t entity =
        opts.zipf_theta > 0.0
            ? static_cast<size_t>(zipf.Sample(&rng))
            : (rng.Uniform(10) < 8 ? rng.Uniform(hot)
                                   : hot + rng.Uniform(entities - hot));
    // Valid period: near the transaction day, except for the retroactive
    // correction trickle, which re-states a fact years back.
    int64_t from = opts.retro_one_in != 0 && rng.Uniform(opts.retro_one_in) == 0
                       ? day - 365 - static_cast<int64_t>(rng.Uniform(3 * 365))
                       : day - static_cast<int64_t>(rng.Uniform(30));
    Period valid =
        opts.open_one_in != 0 && rng.Uniform(opts.open_one_in) == 0
            ? Period::From(Chronon(from))
            : Period(Chronon(from),
                     Chronon(from + 1 + static_cast<int64_t>(rng.Uniform(120))));
    BitemporalTuple t;
    t.values = {Value(static_cast<int64_t>(entity)), Value(ranks[rng.Uniform(4)])};
    t.valid = valid;
    t.txn = Period::From(Chronon(day));
    run([&](Transaction* txn) -> Status {
      if (current[entity] != kNone) {
        TDB_RETURN_IF_ERROR(store->CloseTxn(txn, current[entity], Chronon(day)));
      }
      Result<RowId> row = store->Append(txn, std::move(t));
      if (!row.ok()) return row.status();
      current[entity] = *row;
      return Status::OK();
    });
  }
  return day;
}

}  // namespace bench
}  // namespace temporadb
