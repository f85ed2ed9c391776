#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/harness/error.hpp"
#include "util/parallel.hpp"

namespace locpriv::util {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 1000;
  std::vector<int> hits(kCount, 0);
  // Force the threaded path even on single-core machines.
  parallel_for(kCount, [&](std::size_t i) { ++hits[i]; }, /*max_threads=*/4);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelFor, ResultsMatchSequential) {
  constexpr std::size_t kCount = 512;
  std::vector<double> parallel_out(kCount);
  std::vector<double> sequential_out(kCount);
  const auto work = [](std::size_t i) {
    double x = static_cast<double>(i) + 1.0;
    for (int iter = 0; iter < 50; ++iter) x = x * 1.0001 + 0.5;
    return x;
  };
  parallel_for(kCount, [&](std::size_t i) { parallel_out[i] = work(i); }, 8);
  for (std::size_t i = 0; i < kCount; ++i) sequential_out[i] = work(i);
  EXPECT_EQ(parallel_out, sequential_out);  // Bit-identical.
}

TEST(ParallelFor, ZeroAndSmallCounts) {
  std::atomic<int> calls{0};
  parallel_for(0, [&](std::size_t) { ++calls; }, 4);
  EXPECT_EQ(calls.load(), 0);
  parallel_for(2, [&](std::size_t) { ++calls; }, 4);  // Two workers, one index each.
  EXPECT_EQ(calls.load(), 2);
}

TEST(ParallelFor, PropagatesFirstException) {
  std::atomic<int> completed{0};
  try {
    parallel_for(
        100,
        [&](std::size_t i) {
          if (i == 42) throw std::runtime_error("boom at 42");
          completed.fetch_add(1, std::memory_order_relaxed);
        },
        4);
    FAIL() << "expected exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "boom at 42");
  }
  // Other indices still ran (workers are joined before rethrow).
  EXPECT_GE(completed.load(), 50);
}

TEST(ParallelFor, CollectsAllConcurrentExceptionsAndRethrowsLowestIndex) {
  // Indices 3, 19, 35 and 51 throw. Index 0 is slow, so the worker that
  // takes it (usually the first one) fails last and at the highest index,
  // after the others failed at 3, 19 and 35. Every worker must be joined
  // and fail once (a failed worker takes no further index), and the
  // rethrown error must be the lowest index's on every run, whichever
  // worker raised it.
  constexpr std::size_t kCount = 64;
  for (int run = 0; run < 20; ++run) {
    std::atomic<int> throws{0};
    try {
      parallel_for(
          kCount,
          [&](std::size_t i) {
            if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
            if (i % 16 != 3) return;
            throws.fetch_add(1, std::memory_order_relaxed);
            throw std::runtime_error("boom at " + std::to_string(i));
          },
          4);
      FAIL() << "expected exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "boom at 3") << "run " << run;
    }
    EXPECT_EQ(throws.load(), 4) << "run " << run;  // One per worker; all joined.
  }
}

TEST(ParallelFor, MaxThreadsOneIsPlainLoop) {
  std::vector<std::size_t> order;
  parallel_for(10, [&](std::size_t i) { order.push_back(i); }, 1);
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // Strictly in order with one thread.
}

TEST(ParallelFor, MoreThreadsThanWork) {
  std::vector<int> hits(5, 0);
  parallel_for(5, [&](std::size_t i) { ++hits[i]; }, 64);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

// ---- the work cursor ---------------------------------------------------
// Indices come from a shared cursor, not fixed chunks: these cases pin that
// every index runs once under contention and that one failure does not
// strand the indices queued behind it.

TEST(ParallelForDynamic, EveryIndexRunsExactlyOnce) {
  constexpr std::size_t kCount = 257;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForDynamic, ExceptionPropagatesButOtherWorkersKeepDraining) {
  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<int>> hits(kCount);
  try {
    parallel_for(
        kCount,
        [&](std::size_t i) {
          if (i == 9) throw Error(ErrorCode::kDeadline, "index 9 expired");
          hits[i].fetch_add(1);
        },
        4);
    FAIL() << "the body's exception should have propagated";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kDeadline);
    EXPECT_NE(std::string(error.what()).find("index 9"), std::string::npos);
  }
  // One failed index does not strand the queue: every other index ran.
  for (std::size_t i = 0; i < kCount; ++i) {
    if (i != 9) {
      EXPECT_EQ(hits[i].load(), 1) << i;
    }
  }
}

}  // namespace
}  // namespace locpriv::util
