#ifndef TEMPORADB_TEMPORAL_KERNELS_H_
#define TEMPORADB_TEMPORAL_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace temporadb {
namespace kernels {

/// Branch-free selection kernels over contiguous chronon columns.
///
/// These are the innermost loops of the version store's batch scans
/// (`VersionBatchScan`): a temporal predicate evaluated over a batch-sized
/// chunk of stored versions is one pass over `int64_t` columns,
/// appending surviving row indexes to a *selection vector* instead of
/// branching per row.  Every kernel follows the same convention:
///
///  - inputs are raw pointers into contiguous chronon columns
///    (`valid_from`/`valid_to` or `tt_start`/`tt_end`, one `int64_t` per
///    row, sentinels included — `Chronon::kForeverRep` is just a large
///    value, so ∞ needs no special casing);
///  - `*_out` receives the indexes of the rows that pass, in ascending
///    order; the caller provides capacity for `n` entries;
///  - the return value is the number of survivors;
///  - `Refine` variants read candidate indexes from a previous selection
///    vector instead of the dense range `[0, n)`, so predicates compose
///    without materializing intermediate batches.
///
/// The loops are written as `sel_out[count] = i; count += keep;` with
/// `keep` computed from integer comparisons — no data-dependent branch, so
/// the selectivity of the predicate cannot stall the pipeline and the
/// compiler is free to unroll/vectorize.  This file must stay free of
/// dynamic dispatch and boxed values (tools/tdb_lint.py enforces it): the
/// whole point is that a temporal predicate over a batch touches nothing
/// but these flat arrays.
///
/// Semantics mirror `Period` exactly (half-open `[begin, end)`):
///  - overlap:  `begin < q_end && q_begin < end && begin < end` (the row's
///    period must itself be non-empty; callers guarantee the query window
///    is non-empty, matching `Period::Overlaps`);
///  - contains: `begin <= t && t < end` (`Period::Contains(Chronon)`);
///  - current:  `end == kForeverRep` (`BitemporalTuple::IsCurrentState`).

/// Rows whose period `[begin[i], end[i])` overlaps `[q_begin, q_end)`.
/// The query window must be non-empty.
size_t SelectOverlaps(const int64_t* begin, const int64_t* end, size_t n,
                      int64_t q_begin, int64_t q_end, uint32_t* sel_out);

/// Refine: same predicate over the `n_in` candidates in `sel_in`.
size_t SelectOverlapsRefine(const int64_t* begin, const int64_t* end,
                            const uint32_t* sel_in, size_t n_in,
                            int64_t q_begin, int64_t q_end,
                            uint32_t* sel_out);

/// Refine: rows among `sel_in` whose period contains the instant `t`
/// (`begin <= t < end`).
size_t SelectContainsRefine(const int64_t* begin, const int64_t* end,
                            const uint32_t* sel_in, size_t n_in, int64_t t,
                            uint32_t* sel_out);

/// Refine: rows among `sel_in` whose period end equals `key` — with
/// `key == Chronon::kForeverRep`, the current-state test.
size_t SelectEndEqualsRefine(const int64_t* end, const uint32_t* sel_in,
                             size_t n_in, int64_t key, uint32_t* sel_out);

/// Rows whose `live[i]` byte is nonzero (tombstone mask of a version-store
/// morsel).  The dense seed of a kernel chain over stored versions.
size_t SelectLive(const uint8_t* live, size_t n, uint32_t* sel_out);

}  // namespace kernels
}  // namespace temporadb

#endif  // TEMPORADB_TEMPORAL_KERNELS_H_
