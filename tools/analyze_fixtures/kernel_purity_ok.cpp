// tdb-analyze-fixture: treat-as=src/temporal/kernels.h rules=kernel-purity
// Clean control: a branch-free selection kernel in the real repo idiom —
// raw int64 chronon columns in, uint32 selection vector out, no heap, no
// exceptions, no dispatch.
#include "fixture_support.h"

namespace temporadb {
namespace kernels {

size_t SelectOverlaps(const int64_t* begin, const int64_t* end, size_t n,
                      int64_t q_begin, int64_t q_end, uint32_t* sel) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool hit = (begin[i] < q_end) & (q_begin < end[i]);
    sel[k] = static_cast<uint32_t>(i);
    k += static_cast<size_t>(hit);
  }
  return k;
}

}  // namespace kernels
}  // namespace temporadb
