// Unit tests for the deadline/cancellation Context (util/context.h) and
// the unified retry policy (util/retry.h). The contract under test:
// Check() reports kCancelled over kDeadlineExceeded, DeadlineChecker
// only touches the clock every stride-th call, RetryBackoff grows
// exponentially with bounded equal jitter, and RetryTransient retries
// only transient I/O errors, deadline-aware.

#include <atomic>
#include <chrono>

#include "gtest/gtest.h"
#include "util/context.h"
#include "util/retry.h"
#include "util/status.h"

namespace xydiff {
namespace {

using std::chrono::milliseconds;

TEST(ContextTest, DefaultContextIsLive) {
  Context ctx;
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.cancelled());
  EXPECT_FALSE(ctx.expired());
  EXPECT_FALSE(ctx.remaining().has_value());
  EXPECT_TRUE(ctx.Check().ok());
}

TEST(ContextTest, ExpiredDeadlineReportsDeadlineExceeded) {
  const Context ctx = Context::WithTimeout(milliseconds(0));
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_TRUE(ctx.expired());
  const Status status = ctx.Check();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(IsContextError(status.code()));
}

TEST(ContextTest, FutureDeadlineIsLiveAndRemainingIsPositive) {
  const Context ctx = Context::WithTimeout(milliseconds(60000));
  EXPECT_TRUE(ctx.Check().ok());
  ASSERT_TRUE(ctx.remaining().has_value());
  EXPECT_GT(ctx.remaining()->count(), 0);
}

TEST(ContextTest, CancellationSourcePropagatesToEveryDerivedContext) {
  CancellationSource source;
  const Context a = source.MakeContext();
  const Context b = source.MakeContext();
  EXPECT_TRUE(a.Check().ok());
  source.Cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  EXPECT_EQ(a.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(b.Check().code(), StatusCode::kCancelled);
}

TEST(ContextTest, CancelledWinsOverExpiredDeadline) {
  CancellationSource source;
  const Context ctx =
      source.Attach(Context::WithTimeout(milliseconds(0)));
  source.Cancel();
  // Both conditions hold; the cancellation is the caller's explicit
  // request and must be the one reported.
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
}

TEST(ContextTest, AttachKeepsTheBaseDeadline) {
  CancellationSource source;
  const Context ctx =
      source.Attach(Context::WithTimeout(milliseconds(60000)));
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_TRUE(ctx.Check().ok());
  source.Cancel();
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
}

TEST(ContextTest, RemainingClampsToZeroAfterExpiry) {
  const Context ctx = Context::WithTimeout(milliseconds(0));
  ASSERT_TRUE(ctx.remaining().has_value());
  EXPECT_EQ(ctx.remaining()->count(), 0);
}

TEST(DeadlineCheckerTest, NullContextAlwaysPasses) {
  DeadlineChecker checker(nullptr);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(checker.Check().ok());
  }
  EXPECT_TRUE(checker.CheckNow().ok());
}

TEST(DeadlineCheckerTest, StridedCheckEventuallySeesTheDeadline) {
  const Context ctx = Context::WithTimeout(milliseconds(0));
  DeadlineChecker checker(&ctx, /*stride=*/8);
  // Within one full stride the amortized check must have fired.
  Status last = Status::OK();
  for (int i = 0; i < 8 && last.ok(); ++i) {
    last = checker.Check();
  }
  EXPECT_EQ(last.code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineCheckerTest, CheckNowIsUnconditional) {
  const Context ctx = Context::WithTimeout(milliseconds(0));
  DeadlineChecker checker(&ctx, /*stride=*/1000000);
  EXPECT_EQ(checker.CheckNow().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineCheckerTest, CancellationIsSeenImmediatelyNotAmortized) {
  CancellationSource source;
  const Context ctx = source.MakeContext();
  DeadlineChecker checker(&ctx, /*stride=*/1000000);
  EXPECT_TRUE(checker.Check().ok());
  source.Cancel();
  // The cancel flag is a plain atomic load — cheap enough to test on
  // every call regardless of stride.
  EXPECT_EQ(checker.Check().code(), StatusCode::kCancelled);
}

TEST(RetryBackoffTest, GrowsExponentiallyAndStaysBounded) {
  RetryPolicy policy;
  policy.backoff_ms = 2;
  policy.max_backoff_ms = 50;
  policy.jitter_seed = 7;
  for (int attempt = 0; attempt < 12; ++attempt) {
    const milliseconds delay = RetryBackoff(policy, attempt);
    EXPECT_GE(delay.count(), 0);
    EXPECT_LE(delay.count(), policy.max_backoff_ms);
  }
}

TEST(RetryBackoffTest, JitterIsDeterministicPerSeedAndAttempt) {
  RetryPolicy policy;
  policy.backoff_ms = 4;
  policy.jitter_seed = 42;
  for (int attempt = 0; attempt < 6; ++attempt) {
    EXPECT_EQ(RetryBackoff(policy, attempt).count(),
              RetryBackoff(policy, attempt).count())
        << "attempt " << attempt;
  }
}

TEST(RetryBackoffTest, EqualJitterKeepsAtLeastHalfTheDelay) {
  RetryPolicy policy;
  policy.backoff_ms = 8;
  policy.max_backoff_ms = 1000;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    policy.jitter_seed = seed;
    const milliseconds delay = RetryBackoff(policy, /*attempt=*/2);
    // Full backoff for attempt 2 is 8 << 2 = 32 ms; equal jitter keeps
    // the fixed half and draws the rest.
    EXPECT_GE(delay.count(), 16);
    EXPECT_LE(delay.count(), 32);
  }
}

TEST(RetryTransientTest, SucceedsWithoutRetriesOnFirstOk) {
  RetryPolicy policy;
  size_t retries = 0;
  int calls = 0;
  const Status status = RetryTransient(
      policy, nullptr, [&] { ++calls; return Status::OK(); }, &retries);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries, 0u);
}

TEST(RetryTransientTest, RetriesTransientIOErrorUntilSuccess) {
  RetryPolicy policy;
  policy.backoff_ms = 0;  // No real sleeping in unit tests.
  size_t retries = 0;
  int calls = 0;
  const Status status = RetryTransient(
      policy, nullptr,
      [&] {
        ++calls;
        return calls < 3 ? Status::IOError("transient") : Status::OK();
      },
      &retries);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
}

TEST(RetryTransientTest, DoesNotRetryNonTransientErrors) {
  RetryPolicy policy;
  policy.backoff_ms = 0;
  int calls = 0;
  const Status status = RetryTransient(
      policy, nullptr, [&] { ++calls; return Status::Corruption("fatal"); },
      nullptr);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(calls, 1);
}

TEST(RetryTransientTest, GivesUpAfterMaxRetries) {
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.backoff_ms = 0;
  size_t retries = 0;
  int calls = 0;
  const Status status = RetryTransient(
      policy, nullptr, [&] { ++calls; return Status::IOError("still down"); },
      &retries);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(calls, 3);  // Initial attempt + 2 retries.
  EXPECT_EQ(retries, 2u);
}

TEST(RetryTransientTest, DeadContextSurfacesContextErrorInsteadOfRetrying) {
  RetryPolicy policy;
  policy.max_retries = 10;
  policy.backoff_ms = 0;
  const Context expired = Context::WithTimeout(milliseconds(0));
  int calls = 0;
  const Status status = RetryTransient(
      policy, &expired, [&] { ++calls; return Status::IOError("transient"); },
      nullptr);
  // The op runs once; the retry loop then notices the dead context and
  // reports it rather than burning the remaining attempts.
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(calls, 1);
}

TEST(RetryTransientTest, CancellationStopsTheRetryLoop) {
  RetryPolicy policy;
  policy.max_retries = 10;
  policy.backoff_ms = 0;
  CancellationSource source;
  const Context ctx = source.MakeContext();
  int calls = 0;
  const Status status = RetryTransient(
      policy, &ctx,
      [&] {
        ++calls;
        source.Cancel();  // The op's own side channel pulls the plug.
        return Status::IOError("transient");
      },
      nullptr);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(calls, 1);
}

TEST(StatusTest, NewOverloadCodesHaveNamesAndFactories) {
  EXPECT_EQ(Status::DeadlineExceeded("d").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Cancelled("c").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::ResourceExhausted("r").code(),
            StatusCode::kResourceExhausted);
  EXPECT_NE(Status::DeadlineExceeded("d").ToString().find("DeadlineExceeded"),
            std::string::npos);
  EXPECT_FALSE(IsContextError(StatusCode::kResourceExhausted));
}

}  // namespace
}  // namespace xydiff
