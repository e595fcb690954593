//===----------------------------------------------------------------------===//
// ThreadPool unit tests: exact index coverage at every thread count,
// serial and nested fallback, exception propagation, and reconfiguration
// (see support/ThreadPool.h for the contract these pin down).
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Env.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

using namespace ace;

namespace {

/// Every test leaves the process-wide pool back at the ACE_THREADS
/// default so the remaining suites see the configuration they started
/// under.
class ThreadPoolTest : public ::testing::Test {
protected:
  void TearDown() override { ThreadPool::instance().setNumThreads(0); }
};

TEST_F(ThreadPoolTest, ReconfigurationRoundTrip) {
  ThreadPool &Pool = ThreadPool::instance();
  Pool.setNumThreads(5);
  EXPECT_EQ(Pool.numThreads(), 5u);
  Pool.setNumThreads(1);
  EXPECT_EQ(Pool.numThreads(), 1u);
  // 0 re-reads the environment default.
  Pool.setNumThreads(0);
  EXPECT_EQ(Pool.numThreads(), env::threadCount());
}

/// parallelFor must call Fn(I) exactly once per index, whatever the
/// thread count - including the serial pool and single-index ranges.
TEST_F(ThreadPoolTest, ExactCoverageAtEveryThreadCount) {
  for (size_t Threads : {1u, 2u, 4u, 8u}) {
    ThreadPool::instance().setNumThreads(Threads);
    for (size_t Len : {0u, 1u, 2u, 7u, 64u, 1000u}) {
      std::vector<std::atomic<int>> Hits(Len);
      parallelFor(0, Len, [&](size_t I) { Hits[I].fetch_add(1); });
      for (size_t I = 0; I < Len; ++I)
        EXPECT_EQ(Hits[I].load(), 1)
            << "index " << I << " at " << Threads << " threads";
    }
    // Non-zero Begin: the range, not just the length, is honored.
    std::vector<std::atomic<int>> Hits(10);
    parallelFor(3, 10, [&](size_t I) { Hits[I].fetch_add(1); });
    for (size_t I = 0; I < 10; ++I)
      EXPECT_EQ(Hits[I].load(), I >= 3 ? 1 : 0);
  }
}

/// Nested parallelFor serializes instead of deadlocking - including the
/// regression case of SEVERAL nested calls from one task body (a nested
/// call must restore, not clear, the in-task flag on exit).
TEST_F(ThreadPoolTest, NestedCallsSerialize) {
  ThreadPool::instance().setNumThreads(4);
  std::atomic<long> Sum{0};
  for (int Round = 0; Round < 50; ++Round) {
    parallelFor(0, 8, [&](size_t) {
      EXPECT_TRUE(ThreadPool::inWorker());
      parallelFor(0, 4, [&](size_t J) { Sum.fetch_add(long(J)); });
      // Second nested call in the same task: must still run inline.
      parallelFor(0, 4, [&](size_t J) { Sum.fetch_add(long(J)); });
    });
  }
  EXPECT_FALSE(ThreadPool::inWorker());
  EXPECT_EQ(Sum.load(), 50L * 8 * 2 * (0 + 1 + 2 + 3));
}

TEST_F(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives) {
  for (size_t Threads : {1u, 4u}) {
    ThreadPool::instance().setNumThreads(Threads);
    EXPECT_THROW(parallelFor(0, 100,
                             [&](size_t I) {
                               if (I == 37)
                                 throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    // The pool is fully usable after a throwing region.
    std::atomic<int> Count{0};
    parallelFor(0, 100, [&](size_t) { Count.fetch_add(1); });
    EXPECT_EQ(Count.load(), 100);
  }
}

TEST_F(ThreadPoolTest, DeterministicResultAcrossThreadCounts) {
  // The determinism contract, in miniature: disjoint per-index writes
  // produce the same bytes at every thread count.
  std::vector<uint64_t> Reference;
  for (size_t Threads : {1u, 2u, 8u}) {
    ThreadPool::instance().setNumThreads(Threads);
    std::vector<uint64_t> Out(4096);
    parallelFor(0, Out.size(), [&](size_t I) {
      uint64_t X = I * 2654435761u;
      for (int R = 0; R < 8; ++R)
        X = X * 6364136223846793005ULL + 1442695040888963407ULL;
      Out[I] = X;
    });
    if (Reference.empty())
      Reference = Out;
    else
      EXPECT_EQ(Out, Reference) << Threads << " threads";
  }
}

/// Reconfiguring the pool from inside one of its own tasks would have it
/// join itself; the guard must reject that with Status(InvalidArgument),
/// leave the configuration unchanged, and keep the pool usable - at the
/// forked AND the serial/inline execution paths.
TEST_F(ThreadPoolTest, SetNumThreadsFromInsideTaskIsRejected) {
  for (size_t Threads : {1u, 4u}) {
    ThreadPool::instance().setNumThreads(Threads);
    std::atomic<int> Rejections{0};
    parallelFor(0, 8, [&](size_t) {
      Status S = ThreadPool::instance().setNumThreads(2);
      if (!S.ok() && S.code() == ErrorCode::InvalidArgument)
        Rejections.fetch_add(1);
    });
    EXPECT_EQ(Rejections.load(), 8) << Threads << " threads";
    EXPECT_EQ(ThreadPool::instance().numThreads(), Threads);
    // The pool survives the rejected call.
    std::atomic<int> Count{0};
    parallelFor(0, 100, [&](size_t) { Count.fetch_add(1); });
    EXPECT_EQ(Count.load(), 100);
  }
  // From a quiescent point reconfiguration still succeeds.
  EXPECT_TRUE(ThreadPool::instance().setNumThreads(2).ok());
  EXPECT_EQ(ThreadPool::instance().numThreads(), 2u);
}

TEST_F(ThreadPoolTest, ForkedRegionsCountInTelemetry) {
  telemetry::Telemetry &Tel = telemetry::Telemetry::instance();
  Tel.clear();
  Tel.setEnabled(true);
  ThreadPool::instance().setNumThreads(4);
  uint64_t Before =
      Tel.counters().get(telemetry::Counter::ParallelFor);
  parallelFor(0, 64, [](size_t) {});
  parallelFor(0, 64, [](size_t) {});
  uint64_t After = Tel.counters().get(telemetry::Counter::ParallelFor);
  EXPECT_EQ(After - Before, 2u);
  // Serial pools never fork, so nothing is counted.
  ThreadPool::instance().setNumThreads(1);
  parallelFor(0, 64, [](size_t) {});
  EXPECT_EQ(Tel.counters().get(telemetry::Counter::ParallelFor), After);
  Tel.setEnabled(false);
  Tel.clear();
}

} // namespace
