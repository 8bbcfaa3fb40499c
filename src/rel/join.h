#ifndef TEMPORADB_REL_JOIN_H_
#define TEMPORADB_REL_JOIN_H_

#include <vector>

#include "rel/expression.h"
#include "rel/relation.h"

namespace temporadb {

/// Join operators.  Like `CrossProduct`, joins intersect the operands'
/// temporal periods: a joined row exists only where both inputs coexist in
/// each maintained time dimension — the snapshot-reducible semantics of a
/// join applied state-by-state.

/// Nested-loop join with an arbitrary predicate over the concatenated row.
Result<Rowset> NestedLoopJoin(const Rowset& a, const Rowset& b,
                              const Expr& pred);

/// Hash equi-join on `a.keys_a[i] == b.keys_b[i]`.  Like `CrossProduct`,
/// rejects operand classes without a meet with InvalidArgument.
Result<Rowset> HashEquiJoin(const Rowset& a, const Rowset& b,
                            const std::vector<size_t>& keys_a,
                            const std::vector<size_t>& keys_b);

}  // namespace temporadb

#endif  // TEMPORADB_REL_JOIN_H_
