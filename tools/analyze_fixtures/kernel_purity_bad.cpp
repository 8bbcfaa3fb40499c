// tdb-analyze-fixture: treat-as=src/temporal/kernels.h rules=kernel-purity
// Seeded violations: heap allocation, exception edges, virtual dispatch,
// and boxed temporal types inside the kernel layer.
#include "kernel_purity_types.h"

namespace temporadb {
namespace kernels {

size_t SelectBroken(const int64_t* begin, size_t n,
                    const Period& window,  // EXPECT(kernel-purity): boxed Period
                    const Comparator* cmp, uint32_t* sel) {
  (void)window;
  int64_t* scratch = new int64_t[n];  // EXPECT(kernel-purity): heap allocation (new)
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    if (cmp->LessThan(begin[i], 0)) {  // EXPECT(kernel-purity): virtual dispatch
      sel[k] = static_cast<uint32_t>(i);
      k = k + 1;
    }
  }
  if (n == 0) {
    throw 42;  // EXPECT(kernel-purity): throw
  }
  delete[] scratch;  // EXPECT(kernel-purity): delete
  return k;
}

}  // namespace kernels
}  // namespace temporadb
