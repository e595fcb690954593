//===----------------------------------------------------------------------===//
// Limb pool tests: free-list recycling semantics, bypass mode, provenance
// across mode flips, trim accounting against the resource governor, lent
// blocks, and the LimbStorage value semantics RnsPoly relies on.
//===----------------------------------------------------------------------===//

#include "support/LimbPool.h"
#include "support/ResourceGovernor.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

using namespace ace;

namespace {

/// Restores process-global pool state around each test: the enabled
/// flag, parked blocks (trimmed away), and the counters.
struct LimbPoolTest : ::testing::Test {
  LimbPoolTest() : SavedEnabled(LimbPool::instance().enabled()) {
    LimbPool::instance().setEnabled(true);
    LimbPool::instance().trim();
    LimbPool::instance().resetCounters();
  }
  ~LimbPoolTest() override {
    LimbPool::instance().trim();
    LimbPool::instance().setEnabled(SavedEnabled);
    LimbPool::instance().resetCounters();
  }
  bool SavedEnabled;
};

TEST_F(LimbPoolTest, ReleaseThenAcquireHitsTheFreeList) {
  LimbPool &Pool = LimbPool::instance();
  bool FromPool = false;
  uint64_t *A = Pool.acquire(256, FromPool);
  ASSERT_NE(A, nullptr);
  EXPECT_TRUE(FromPool);
  EXPECT_EQ(Pool.stats().Misses, 1u);
  EXPECT_EQ(Pool.stats().InUseBytes, 256 * sizeof(uint64_t));

  Pool.release(A, 256, FromPool);
  EXPECT_EQ(Pool.stats().FreeBytes, 256 * sizeof(uint64_t));
  EXPECT_EQ(Pool.stats().InUseBytes, 0u);

  uint64_t *B = Pool.acquire(256, FromPool);
  EXPECT_EQ(B, A); // exact-size bin returns the parked block
  EXPECT_EQ(Pool.stats().Hits, 1u);
  EXPECT_EQ(Pool.stats().Misses, 1u);
  Pool.release(B, 256, FromPool);
}

TEST_F(LimbPoolTest, DifferentSizesUseDifferentBins) {
  LimbPool &Pool = LimbPool::instance();
  bool F1 = false, F2 = false;
  uint64_t *A = Pool.acquire(128, F1);
  Pool.release(A, 128, F1);
  // A parked 128-word block must not satisfy a 256-word acquire.
  uint64_t *B = Pool.acquire(256, F2);
  EXPECT_EQ(Pool.stats().Hits, 0u);
  EXPECT_EQ(Pool.stats().Misses, 2u);
  Pool.release(B, 256, F2);
}

TEST_F(LimbPoolTest, BypassModeCountsMissesButParksNothing) {
  LimbPool &Pool = LimbPool::instance();
  Pool.setEnabled(false);
  bool FromPool = true;
  uint64_t *A = Pool.acquire(64, FromPool);
  ASSERT_NE(A, nullptr);
  EXPECT_FALSE(FromPool); // heap provenance
  // Bypass still counts the heap allocation, so pool-on and pool-off
  // bench legs read the same counter.
  EXPECT_EQ(Pool.stats().Misses, 1u);
  Pool.release(A, 64, FromPool);
  EXPECT_EQ(Pool.stats().FreeBytes, 0u); // went back to the heap
}

TEST_F(LimbPoolTest, PeakInUseTracksTheHighWaterMarkUntilReset) {
  LimbPool &Pool = LimbPool::instance();
  const size_t Word = sizeof(uint64_t);
  bool FA = false, FB = false, FC = false;
  uint64_t *A = Pool.acquire(256, FA);
  uint64_t *B = Pool.acquire(128, FB);
  Pool.release(A, 256, FA);
  Pool.release(B, 128, FB);
  // Both blocks were in use at once; releasing them keeps the mark.
  EXPECT_EQ(Pool.stats().InUseBytes, 0u);
  EXPECT_EQ(Pool.stats().PeakInUseBytes, 384 * Word);

  // A reset restarts the mark from what is in use now.
  uint64_t *C = Pool.acquire(64, FC);
  Pool.resetCounters();
  EXPECT_EQ(Pool.stats().PeakInUseBytes, 64 * Word);
  uint64_t *D = Pool.acquire(256, FA); // a hit counts like a miss
  EXPECT_EQ(Pool.stats().Hits, 1u);
  EXPECT_EQ(Pool.stats().PeakInUseBytes, 320 * Word);
  Pool.release(D, 256, FA);
  Pool.release(C, 64, FC);
  EXPECT_EQ(Pool.stats().PeakInUseBytes, 320 * Word);
}

TEST_F(LimbPoolTest, ProvenanceSurvivesModeFlip) {
  LimbPool &Pool = LimbPool::instance();
  bool PooledProv = false, HeapProv = false;
  uint64_t *Pooled = Pool.acquire(32, PooledProv);
  Pool.setEnabled(false);
  uint64_t *Heap = Pool.acquire(32, HeapProv);
  EXPECT_TRUE(PooledProv);
  EXPECT_FALSE(HeapProv);

  // Release both with the pool disabled: the pooled block still returns
  // to its bin (its bytes stay charged), the heap block to the heap.
  Pool.release(Pooled, 32, PooledProv);
  Pool.release(Heap, 32, HeapProv);
  EXPECT_EQ(Pool.stats().FreeBytes, 32 * sizeof(uint64_t));
  EXPECT_EQ(Pool.stats().InUseBytes, 0u);
}

TEST_F(LimbPoolTest, TrimReleasesParkedBlocksAndGovernorCharge) {
  LimbPool &Pool = LimbPool::instance();
  ResourceGovernor &Gov = ResourceGovernor::instance();
  size_t ChargedBefore =
      Gov.stats().ChargedBytes[static_cast<size_t>(MemCategory::LimbPool)];
  bool FromPool = false;
  uint64_t *A = Pool.acquire(512, FromPool);
  size_t ChargedAfter =
      Gov.stats().ChargedBytes[static_cast<size_t>(MemCategory::LimbPool)];
  EXPECT_EQ(ChargedAfter - ChargedBefore, 512 * sizeof(uint64_t));

  Pool.release(A, 512, FromPool);
  size_t Freed = Pool.trim();
  EXPECT_EQ(Freed, 512 * sizeof(uint64_t));
  EXPECT_EQ(Pool.stats().FreeBytes, 0u);
  EXPECT_GE(Pool.stats().Trims, 1u);
  EXPECT_EQ(
      Gov.stats().ChargedBytes[static_cast<size_t>(MemCategory::LimbPool)],
      ChargedBefore);
}

/// A holder that charges a pooled block to its own category lends the
/// block's bytes out of limb_pool: pooledBytes() reports the block's bin
/// bytes (0 for an empty storage or a heap block), lend() moves them out
/// of the pool's charge and in-use gauge, and unlend() moves them back
/// before the release parks the block on its free list.
TEST_F(LimbPoolTest, LentBlocksLeaveTheLimbPoolCharge) {
  LimbPool &Pool = LimbPool::instance();
  ResourceGovernor &Gov = ResourceGovernor::instance();
  auto PoolCharge = [&Gov] {
    return Gov.stats().ChargedBytes[static_cast<size_t>(MemCategory::LimbPool)];
  };
  const size_t Bytes = 300 * sizeof(uint64_t);
  size_t Before = PoolCharge();
  {
    LimbStorage S;
    EXPECT_EQ(S.pooledBytes(), 0u);
    S.assignZero(300);
    S.shrinkTo(100); // the block is lent at its bin capacity
    EXPECT_EQ(S.pooledBytes(), Bytes);
    EXPECT_EQ(PoolCharge() - Before, Bytes);

    Pool.lend(S.pooledBytes());
    EXPECT_EQ(PoolCharge(), Before);
    EXPECT_EQ(Pool.stats().InUseBytes, 0u);

    Pool.unlend(S.pooledBytes());
    EXPECT_EQ(PoolCharge() - Before, Bytes);
    EXPECT_EQ(Pool.stats().InUseBytes, Bytes);
  }
  EXPECT_EQ(Pool.stats().InUseBytes, 0u);
  EXPECT_EQ(Pool.stats().FreeBytes, Bytes);
  Pool.trim();
  EXPECT_EQ(PoolCharge(), Before);

  // A heap block (bypass mode) is charged nowhere: nothing to lend.
  Pool.setEnabled(false);
  LimbStorage Heap;
  Heap.assignZero(300);
  EXPECT_EQ(Heap.pooledBytes(), 0u);
}

TEST_F(LimbPoolTest, LimbStorageValueSemantics) {
  LimbStorage S;
  S.assignZero(100);
  ASSERT_EQ(S.size(), 100u);
  for (size_t I = 0; I < 100; ++I)
    EXPECT_EQ(S.data()[I], 0u);
  for (size_t I = 0; I < 100; ++I)
    S.data()[I] = I;

  LimbStorage Copy(S);
  ASSERT_EQ(Copy.size(), 100u);
  EXPECT_NE(Copy.data(), S.data());
  EXPECT_EQ(0, std::memcmp(Copy.data(), S.data(), 100 * sizeof(uint64_t)));

  LimbStorage Moved(std::move(Copy));
  EXPECT_EQ(Copy.size(), 0u);
  EXPECT_EQ(Copy.data(), nullptr);
  ASSERT_EQ(Moved.size(), 100u);
  EXPECT_EQ(Moved.data()[42], 42u);

  Moved.shrinkTo(10);
  EXPECT_EQ(Moved.size(), 10u);
  EXPECT_EQ(Moved.data()[9], 9u); // shrink keeps the prefix

  // Re-zeroing within capacity reuses the block in place.
  const uint64_t *Block = Moved.data();
  Moved.assignZero(100);
  EXPECT_EQ(Moved.data(), Block);
  EXPECT_EQ(Moved.data()[42], 0u);

  LimbStorage Assigned;
  Assigned = S;
  EXPECT_EQ(0, std::memcmp(Assigned.data(), S.data(),
                           100 * sizeof(uint64_t)));
  Assigned = std::move(Moved);
  EXPECT_EQ(Assigned.size(), 100u);
  EXPECT_EQ(Moved.data(), nullptr);
}

TEST_F(LimbPoolTest, ConcurrentAcquireReleaseKeepsAccountingConsistent) {
  LimbPool &Pool = LimbPool::instance();
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&Pool, T] {
      size_t Words = 64 + 32 * static_cast<size_t>(T % 2);
      for (int I = 0; I < 200; ++I) {
        bool FromPool = false;
        uint64_t *P = Pool.acquire(Words, FromPool);
        P[0] = static_cast<uint64_t>(I);
        Pool.release(P, Words, FromPool);
      }
    });
  for (auto &T : Threads)
    T.join();
  LimbPoolStats S = Pool.stats();
  EXPECT_EQ(S.Hits + S.Misses, 800u);
  EXPECT_EQ(S.InUseBytes, 0u); // everything released
}

} // namespace
