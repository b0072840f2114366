#include "core/pair.h"
namespace xydiff {
void Pair::ForwardSweep() {
  MutexLock a(mu_a_);
  MutexLock b(mu_b_);
}
}  // namespace xydiff
