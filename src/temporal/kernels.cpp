#include "temporal/kernels.h"

namespace temporadb {
namespace kernels {

// Every loop body computes `keep` as an integer 0/1 from comparisons and
// advances the output cursor by it — the store to `sel_out[count]` is
// unconditional, so there is no data-dependent branch for the predictor to
// miss.  Surviving order is ascending by construction.

size_t SelectOverlaps(const int64_t* begin, const int64_t* end, size_t n,
                      int64_t q_begin, int64_t q_end, uint32_t* sel_out) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const unsigned keep = static_cast<unsigned>(begin[i] < q_end) &
                          static_cast<unsigned>(q_begin < end[i]) &
                          static_cast<unsigned>(begin[i] < end[i]);
    sel_out[count] = static_cast<uint32_t>(i);
    count += keep;
  }
  return count;
}

size_t SelectOverlapsRefine(const int64_t* begin, const int64_t* end,
                            const uint32_t* sel_in, size_t n_in,
                            int64_t q_begin, int64_t q_end,
                            uint32_t* sel_out) {
  size_t count = 0;
  for (size_t k = 0; k < n_in; ++k) {
    const uint32_t i = sel_in[k];
    const unsigned keep = static_cast<unsigned>(begin[i] < q_end) &
                          static_cast<unsigned>(q_begin < end[i]) &
                          static_cast<unsigned>(begin[i] < end[i]);
    sel_out[count] = i;
    count += keep;
  }
  return count;
}

size_t SelectContainsRefine(const int64_t* begin, const int64_t* end,
                            const uint32_t* sel_in, size_t n_in, int64_t t,
                            uint32_t* sel_out) {
  size_t count = 0;
  for (size_t k = 0; k < n_in; ++k) {
    const uint32_t i = sel_in[k];
    const unsigned keep = static_cast<unsigned>(begin[i] <= t) &
                          static_cast<unsigned>(t < end[i]);
    sel_out[count] = i;
    count += keep;
  }
  return count;
}

size_t SelectEndEqualsRefine(const int64_t* end, const uint32_t* sel_in,
                             size_t n_in, int64_t key, uint32_t* sel_out) {
  size_t count = 0;
  for (size_t k = 0; k < n_in; ++k) {
    const uint32_t i = sel_in[k];
    sel_out[count] = i;
    count += static_cast<unsigned>(end[i] == key);
  }
  return count;
}

size_t SelectLive(const uint8_t* live, size_t n, uint32_t* sel_out) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    sel_out[count] = static_cast<uint32_t>(i);
    count += static_cast<unsigned>(live[i] != 0);
  }
  return count;
}

}  // namespace kernels
}  // namespace temporadb
