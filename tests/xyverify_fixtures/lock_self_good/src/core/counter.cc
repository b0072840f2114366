#include "core/counter.h"
namespace xydiff {
void Counter::Bump() {
  MutexLock lock(mu_);
  BumpLocked();
}
void Counter::BumpTwice() {
  MutexLock lock(mu_);
  BumpLocked();
  BumpLocked();
}
void Counter::BumpLocked() { ++value_; }
}  // namespace xydiff
