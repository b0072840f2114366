#include "util/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "util/mutex.h"

namespace xydiff {

void ParallelFor(int threads, size_t n,
                 const std::function<void(size_t)>& body) {
  const size_t workers =
      std::min(n, static_cast<size_t>(std::max(1, threads)));
  std::atomic<size_t> next{0};
  Mutex error_mutex;
  std::exception_ptr error;
  const auto work = [&] {
    try {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        body(i);
      }
    } catch (...) {
      // Stop every worker from claiming more, and hand the first
      // exception to the caller once all have joined.
      next.store(n, std::memory_order_relaxed);
      MutexLock lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  {
    // jthread joins in its destructor, so every helper is joined before
    // the state it uses goes away, even if starting a later one throws.
    std::vector<std::jthread> helpers;
    for (size_t w = 1; w < workers; ++w) helpers.emplace_back(work);
    work();
  }
  if (error) std::rethrow_exception(error);
}

int DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(hw);
}

}  // namespace xydiff
