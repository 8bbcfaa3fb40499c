// tdb-analyze-fixture: treat-as=src/temporal/version_store.cpp rules=scan-prune
// Seeded violations: a scan entry point that never consults the partition
// synopses, and one that forms chunk geometry before pruning.
#include "fixture_support.h"

namespace temporadb {

struct RowRange {
  size_t begin = 0;
  size_t end = 0;
};

void RangeChunks(const RowRange* ranges, size_t n);

class VersionStore;

class VersionScan {
 public:
  VersionScan();
  explicit VersionScan(const VersionStore* store);

 private:
  const VersionStore* store_ = nullptr;
};

class VersionStore {
 public:
  void PruneRanges(RowRange* ranges, size_t n) const;
  VersionScan ScanAll() const;
  VersionScan ScanRaw() const;
  VersionScan BatchScanEager() const;
};

VersionScan::VersionScan() {}

VersionScan::VersionScan(const VersionStore* store) : store_(store) {
  RowRange r;
  store->PruneRanges(&r, 1);
}

VersionScan VersionStore::ScanAll() const { return VersionScan(this); }

VersionScan VersionStore::ScanRaw() const {  // EXPECT(scan-prune): never reaches PruneRanges
  RowRange r;
  RangeChunks(&r, 1);
  return VersionScan();
}

VersionScan VersionStore::BatchScanEager() const {  // EXPECT(scan-prune): RangeChunks
  RowRange r;
  RangeChunks(&r, 1);
  PruneRanges(&r, 1);
  return VersionScan();
}

}  // namespace temporadb
