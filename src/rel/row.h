#ifndef TEMPORADB_REL_ROW_H_
#define TEMPORADB_REL_ROW_H_

#include <optional>
#include <string>
#include <vector>

#include "common/period.h"
#include "common/value.h"

namespace temporadb {

/// A row of a derived (query-result) relation.
///
/// The optional periods mirror the taxonomy: a row of a static result has
/// neither; historical results carry `valid`; rollback/temporal machinery
/// carries `txn`.  Which ones are populated is dictated by the rowset's
/// temporal class, and the operators preserve that discipline.
struct Row {
  std::vector<Value> values;
  std::optional<Period> valid;
  std::optional<Period> txn;

  friend bool operator==(const Row& a, const Row& b) {
    return a.values == b.values && a.valid == b.valid && a.txn == b.txn;
  }

  /// Ordering for sort/distinct: values, then the valid period, then the
  /// transaction period (an absent period first; a present one by (begin,
  /// end)).
  friend bool operator<(const Row& a, const Row& b);

  std::string ToString() const;
};

}  // namespace temporadb

#endif  // TEMPORADB_REL_ROW_H_
