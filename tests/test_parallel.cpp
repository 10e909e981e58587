// Tests for common/parallel.hpp.
#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/error.hpp"

namespace qtda {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolRunBatch, VisitsEveryIndexOnceWithBarrier) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(64);
  pool.run_batch(64, [&](std::size_t i) { ++visits[i]; });
  // run_batch blocks until every task finished, so the counts are
  // final here without wait_idle().
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolRunBatch, EmptyBatchIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.run_batch(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolRunBatch, PropagatesTheFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run_batch(16,
                     [](std::size_t i) {
                       if (i % 3 == 0) throw Error("batch task failed");
                     }),
      Error);
  pool.wait_idle();  // the pool must stay usable after the failure
  std::atomic<int> counter{0};
  pool.run_batch(8, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPoolRunBatch, NestedCallDegradesToSerialInsteadOfDeadlocking) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] {
    // From inside a pool worker the barrier would wait on tasks only other
    // (possibly blocked) workers can run; it must run serially instead.
    pool.run_batch(32, [&](std::size_t) { ++counter; });
  });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  const std::size_t n = 100000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(0, n, [&](std::size_t i) { ++visits[i]; },
               /*min_parallel_size=*/1);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SmallRangeRunsSerially) {
  std::vector<int> order;
  parallel_for(0, 10, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
               /*min_parallel_size=*/1024);
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // serial fallback preserves order
}

TEST(ParallelForChunked, CoversRangeWithoutOverlap) {
  const std::size_t n = 12345;
  std::vector<std::atomic<int>> visits(n);
  parallel_for_chunked(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) ++visits[i];
      },
      1);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(
          0, 100000,
          [](std::size_t i) {
            if (i == 54321) throw Error("boom");
          },
          1),
      Error);
}

TEST(ParallelReduceOrdered, MatchesSerialAndIsReproducible) {
  const std::size_t n = 50000;
  double serial = 0.0;
  for (std::size_t i = 0; i < n; ++i) serial += static_cast<double>(i) * 0.5;
  double first = 0.0, second = 0.0;
  const auto body = [](std::size_t i, double& acc) {
    acc += static_cast<double>(i) * 0.5;
  };
  const auto merge = [](double& total, double part) { total += part; };
  parallel_reduce_ordered(0, n, first, 0.0, body, merge, 1);
  parallel_reduce_ordered(0, n, second, 0.0, body, merge, 1);
  EXPECT_DOUBLE_EQ(first, second);  // fixed split + ordered merge
  EXPECT_NEAR(first, serial, 1e-6 * serial);
}

TEST(ParallelReduceSum, MatchesSerialSum) {
  const std::size_t n = 50000;
  const double parallel_total = parallel_reduce_sum(
      0, n, [](std::size_t i) { return static_cast<double>(i); }, 1);
  const double expected = static_cast<double>(n) * (n - 1) / 2.0;
  EXPECT_DOUBLE_EQ(parallel_total, expected);
}

TEST(ParallelReduceSum, EmptyRangeIsZero) {
  EXPECT_DOUBLE_EQ(
      parallel_reduce_sum(3, 3, [](std::size_t) { return 1.0; }), 0.0);
}

TEST(HardwareConcurrency, AtLeastOne) {
  EXPECT_GE(hardware_concurrency(), 1u);
}

}  // namespace
}  // namespace qtda
