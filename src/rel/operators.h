#ifndef TEMPORADB_REL_OPERATORS_H_
#define TEMPORADB_REL_OPERATORS_H_

#include <optional>
#include <vector>

#include "rel/expression.h"
#include "rel/relation.h"

namespace temporadb {

/// Classic relational operators over materialized rowsets.  Each returns a
/// new rowset; temporal columns ride along untouched (selection and
/// projection are snapshot-reducible — applying them per state is the same
/// as applying them to the stamped representation).  Each is a plain loop
/// over its inputs' rows.

/// Rows for which `pred` evaluates to true.
Result<Rowset> Select(const Rowset& input, const Expr& pred);

/// One output column per expression in `exprs`, named by `names`.  The
/// output's temporal class matches the input's (temporal columns carried
/// through per row).
Result<Rowset> Project(const Rowset& input,
                       const std::vector<ExprPtr>& exprs,
                       const std::vector<std::string>& names);

/// Convenience projection onto existing attributes by index.
Result<Rowset> ProjectColumns(const Rowset& input,
                              const std::vector<size_t>& indexes);

/// Set union; schemas and temporal classes must agree.  Bag semantics
/// (use Distinct to dedupe).
Result<Rowset> Union(const Rowset& a, const Rowset& b);

/// Rows of `a` not present in `b` (set difference, comparing full rows
/// including temporal columns).
Result<Rowset> Difference(const Rowset& a, const Rowset& b);

/// Duplicate elimination (full-row equality).
Rowset Distinct(const Rowset& input);

/// Sorts by the given column indexes ascending (temporal columns break
/// ties deterministically).
Result<Rowset> SortBy(const Rowset& input, const std::vector<size_t>& keys);

/// Cartesian product.  The result's temporal class is the *meet* of the
/// inputs' classes; the combined row's periods are the intersections of the
/// operands' periods (a pair exists exactly when both facts coexist).
/// Pairs with an empty intersection in any maintained dimension are
/// dropped.  Operand classes without a meet (rollback x historical, which
/// share no time dimension) are rejected with InvalidArgument rather than
/// silently discarding both dimensions.
Result<Rowset> CrossProduct(const Rowset& a, const Rowset& b);

/// The temporal class of a product of rowsets of classes `a` and `b`: their
/// meet, or InvalidArgument (naming the operation `op`) when they have none.
Result<TemporalClass> ProductClass(TemporalClass a, TemporalClass b,
                                   const char* op);

/// Row `a` followed by row `b` in product class `cls`: values concatenated,
/// each period `cls` maintains intersected.  Nullopt when an intersection
/// is empty (the two facts never coexist).
std::optional<Row> PairRows(const Row& a, const Row& b, TemporalClass cls);

}  // namespace temporadb

#endif  // TEMPORADB_REL_OPERATORS_H_
