#ifndef XYDIFF_UTIL_RETRY_H_
#define XYDIFF_UTIL_RETRY_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "util/context.h"
#include "util/status.h"

namespace xydiff {

/// The one retry-with-backoff policy in the tree, with the two
/// properties a pipeline under deadline needs:
///  - deadline-aware: never sleeps past `Context::deadline()`, and stops
///    retrying (returning the context error) once the context is dead;
///  - jittered: backoff is "equal jitter" (half fixed, half drawn from a
///    deterministic splitmix64 stream keyed by `jitter_seed`), so
///    parallel store workers hitting the same transient fault do not
///    retry in lockstep. The seed is explicit — reproducibility is a
///    repo-wide invariant (xylint `nondet-seed`).
struct RetryPolicy {
  /// Additional attempts after the first (so max_retries == 3 means up
  /// to 4 calls of `op`).
  int max_retries = 3;
  /// Base backoff before jitter; doubles each attempt.
  int backoff_ms = 1;
  /// Upper clamp on any single sleep.
  int max_backoff_ms = 1000;
  /// Seed for the jitter stream. Same seed + same attempt => same
  /// delay, so tests and fuzz trials replay bit-exactly.
  uint64_t jitter_seed = 0;
};

/// Runs `op` up to `1 + policy.max_retries` times, retrying only
/// transient kIOError. Any other status returns immediately — retrying
/// cannot fix wrong bytes (kCorruption) or bad input (kParseError).
///
/// `context` may be null (no deadline, not cancellable). When it is
/// live, the sleep between attempts is capped at the time remaining,
/// and a dead context surfaces as kCancelled/kDeadlineExceeded instead
/// of another attempt. `retries` (optional) is incremented once per
/// re-attempt, matching the PipelineStats accounting.
Status RetryTransient(const RetryPolicy& policy, const Context* context,
                      const std::function<Status()>& op,
                      size_t* retries = nullptr);

/// Computes the jittered, clamped backoff for `attempt` (0-based)
/// without sleeping. Exposed for tests and for the overload bench's
/// deadline-accuracy model.
std::chrono::milliseconds RetryBackoff(const RetryPolicy& policy, int attempt);

/// The single sanctioned blocking sleep in the library (xylint
/// `naked-sleep` bans sleep_for/usleep everywhere else in src/ and
/// tools/). Centralizing it keeps every stall attributable: pipeline
/// tail-polls, retry backoff, and fault-injected latency all funnel
/// through here.
void SleepFor(std::chrono::microseconds duration);

}  // namespace xydiff

#endif  // XYDIFF_UTIL_RETRY_H_
