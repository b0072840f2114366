// Unit tests for ParallelFor, the fork-join loop under the warehouse's
// batch entry points. Its contract: every index in [0, n) runs exactly
// once and all have finished when the call returns; one thread runs the
// indices in order on the calling thread; no more workers run than there
// are items; an exception from the body reaches the caller after every
// worker has joined. Also the PipelineStats report the warehouse fills.

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/parallel_for.h"
#include "version/warehouse.h"

namespace xydiff {
namespace {

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  constexpr size_t kItems = 1000;
  std::vector<std::atomic<int>> ran(kItems);
  ParallelFor(4, kItems, [&ran](size_t i) {
    ran[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, OneThreadRunsInIndexOrderOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  bool all_on_caller = true;
  ParallelFor(1, 100, [&](size_t i) {
    order.push_back(i);
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
  });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_TRUE(all_on_caller);
}

TEST(ParallelForTest, EmptyRangeRunsNothing) {
  int calls = 0;
  ParallelFor(8, 0, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

// A non-positive width is one worker — the caller — not zero workers.
TEST(ParallelForTest, NonPositiveThreadsRunOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  for (int threads : {0, -3}) {
    std::vector<size_t> order;
    bool all_on_caller = true;
    ParallelFor(threads, 5, [&](size_t i) {
      order.push_back(i);
      all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
    });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}))
        << "threads=" << threads;
    EXPECT_TRUE(all_on_caller) << "threads=" << threads;
  }
}

TEST(ParallelForTest, NoMoreWorkersThanItems) {
  constexpr size_t kItems = 3;
  std::mutex ids_mutex;
  std::set<std::thread::id> ids;
  std::atomic<size_t> ran{0};
  ParallelFor(16, kItems, [&](size_t) {
    {
      std::lock_guard<std::mutex> lock(ids_mutex);
      ids.insert(std::this_thread::get_id());
    }
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), kItems);
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), kItems);
}

// An exception thrown by the body reaches the caller after every worker
// has joined (an unjoined std::thread would terminate the program).
TEST(ParallelForTest, BodyExceptionReachesTheCaller) {
  for (int threads : {1, 4}) {
    std::atomic<size_t> ran{0};
    EXPECT_THROW(ParallelFor(threads, 100,
                             [&ran](size_t i) {
                               ran.fetch_add(1, std::memory_order_relaxed);
                               if (i == 5) throw std::runtime_error("slot 5");
                             }),
                 std::runtime_error)
        << "threads=" << threads;
    EXPECT_GE(ran.load(), 6u) << "threads=" << threads;
  }
}

TEST(ParallelForTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(DefaultThreadCount(), 1);
}

TEST(PipelineStatsTest, ToStringListsEveryStage) {
  PipelineStats stats;
  stats.stages.push_back({"parse", 100, 2, 0, 7, 0.25});
  stats.stages.push_back({"diff", 98, 0, 5, 3, 0.0});
  stats.peak_in_flight = 12;
  stats.degraded_slots = 4;
  stats.wall_seconds = 1.5;
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("parse"), std::string::npos);
  EXPECT_NE(text.find("diff"), std::string::npos);
  EXPECT_NE(text.find("100"), std::string::npos);
  EXPECT_NE(text.find("retries"), std::string::npos);
  EXPECT_NE(text.find("degraded slots 4"), std::string::npos);
}

}  // namespace
}  // namespace xydiff
