#ifndef XYDIFF_UTIL_PARALLEL_FOR_H_
#define XYDIFF_UTIL_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

namespace xydiff {

/// Fork-join loop for the warehouse's batch entry points: runs `body(i)`
/// exactly once for every i in [0, n) and returns when all have finished.
///
/// Workers claim indices from one atomic counter in increasing order, and
/// each index runs to completion on the worker that claimed it — batch
/// items share no state, so there is nothing to hand off or steal. At
/// most min(threads, n) workers run, and the calling thread is one of
/// them: threads <= 1 (or n <= 1) runs every index in order on the
/// caller and spawns nothing. If `body` throws, workers stop claiming
/// indices and the first exception is rethrown after all have joined.
void ParallelFor(int threads, size_t n,
                 const std::function<void(size_t)>& body);

/// Reasonable default width for CPU-bound batch work.
int DefaultThreadCount();

}  // namespace xydiff

#endif  // XYDIFF_UTIL_PARALLEL_FOR_H_
