// tdb-analyze-fixture: treat-as=src/temporal/version_store.cpp rules=scan-prune
// Clean control: every entry point reaches PruneRanges — directly, through
// the scan constructor, or through a helper — and geometry forms only
// after pruning.
#include "fixture_support.h"

namespace temporadb {

struct RowRange {
  size_t begin = 0;
  size_t end = 0;
};

struct SnapshotPin {
  uint64_t seq = 0;
  uint64_t rows = 0;
};

void RangeChunks(const RowRange* ranges, size_t n);

class VersionStore;

class VersionScan {
 public:
  explicit VersionScan(const VersionStore* store);

 private:
  const VersionStore* store_ = nullptr;
};

class VersionStore {
 public:
  void PruneRanges(RowRange* ranges, size_t n) const;
  VersionScan ScanAll() const;
  VersionScan ScanSnapshot(SnapshotPin pin) const;
  VersionScan BatchScanAll() const;
};

VersionScan::VersionScan(const VersionStore* store) : store_(store) {
  RowRange r;
  store->PruneRanges(&r, 1);
}

VersionScan VersionStore::ScanAll() const { return VersionScan(this); }

VersionScan VersionStore::ScanSnapshot(SnapshotPin pin) const {
  (void)pin;
  return VersionScan(this);
}

VersionScan VersionStore::BatchScanAll() const {
  RowRange r;
  PruneRanges(&r, 1);
  RangeChunks(&r, 1);
  return VersionScan(this);
}

}  // namespace temporadb
