//===----------------------------------------------------------------------===//
// Rotation-key cache tests: declare/generate-on-first-use semantics, LRU
// eviction, transparent regeneration, truncation widening,
// pinning via shared_ptr handles, adopted keys, concurrent lookups racing
// the reclaim pass, lookups from inside and outside pool tasks, and
// budget refusals propagating as clean ResourceExhausted through the
// checked evaluator tier.
//===----------------------------------------------------------------------===//

#include "fhe/Encryptor.h"
#include "fhe/Evaluator.h"
#include "support/FaultInjector.h"
#include "support/LimbPool.h"
#include "support/ResourceGovernor.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

using namespace ace;
using namespace ace::fhe;

namespace {

struct KeyCacheTest : ::testing::Test {
  KeyCacheTest() : SavedBudget(ResourceGovernor::instance().budgetBytes()) {
    CkksParams P;
    P.RingDegree = 1024;
    P.Slots = 64;
    P.LogScale = 45;
    P.LogFirstModulus = 55;
    P.NumRescaleModuli = 11;
    P.LogSpecialModulus = 60;
    P.Seed = 17;
    Ctx = std::make_unique<Context>(P);
    Enc = std::make_unique<Encoder>(*Ctx);
    Gen = std::make_unique<KeyGenerator>(*Ctx);
    Pub = Gen->makePublicKey();
    Cache = std::make_unique<RotationKeyCache>(*Ctx, *Gen);
    Eval = std::make_unique<Evaluator>(*Ctx, *Enc, Keys, *Cache);
    Encrypt = std::make_unique<Encryptor>(*Ctx, Pub);
    Decrypt = std::make_unique<Decryptor>(*Ctx, Gen->secretKey());
  }
  ~KeyCacheTest() override {
    FaultInjector::instance().reset();
    ResourceGovernor::instance().setBudgetBytes(SavedBudget);
    ResourceGovernor::instance().resetCounters();
  }

  std::vector<double> randomSlots(uint64_t Seed) {
    Rng R(Seed);
    std::vector<double> X(Ctx->slots());
    for (auto &V : X)
      V = R.uniformReal(-1, 1);
    return X;
  }

  size_t SavedBudget;
  std::unique_ptr<Context> Ctx;
  std::unique_ptr<Encoder> Enc;
  std::unique_ptr<KeyGenerator> Gen;
  PublicKey Pub;
  EvalKeys Keys;
  std::unique_ptr<RotationKeyCache> Cache;
  std::unique_ptr<Evaluator> Eval;
  std::unique_ptr<Encryptor> Encrypt;
  std::unique_ptr<Decryptor> Decrypt;
};

TEST_F(KeyCacheTest, GeneratesOnFirstUseThenHits) {
  uint64_t Galois = Cache->declareRotation(3);
  EXPECT_TRUE(Cache->declared(Galois));
  EXPECT_EQ(Cache->stats().ResidentCount, 0u); // declared, not built

  auto First = Cache->get(Galois);
  ASSERT_TRUE(First.ok()) << First.status().message();
  EXPECT_EQ(Cache->stats().Misses, 1u);
  EXPECT_EQ(Cache->stats().ResidentCount, 1u);
  EXPECT_GT(Cache->stats().ResidentBytes, 0u);

  auto Second = Cache->get(Galois);
  ASSERT_TRUE(Second.ok());
  EXPECT_EQ(Cache->stats().Hits, 1u);
  EXPECT_EQ(Cache->stats().Misses, 1u);
  EXPECT_EQ(First->get(), Second->get()); // same resident key
}

TEST_F(KeyCacheTest, UndeclaredGaloisIsKeyMissing) {
  auto Out = Cache->get(12345);
  ASSERT_FALSE(Out.ok());
  EXPECT_EQ(Out.status().code(), ErrorCode::KeyMissing);
}

TEST_F(KeyCacheTest, CachedRotationMatchesEagerKey) {
  // A key the generator makes up front, applied directly, against the
  // cache's on-demand key for the same step. The two draw different key
  // material, so compare decrypted values, not ciphertext bits.
  uint64_t G5 = galoisForRotation(Ctx->degree(), Ctx->slots(), 5);
  SwitchKey EagerKey = Gen->makeRotationKey(5);
  Cache->declareRotation(5);

  std::vector<double> X = randomSlots(3);
  Ciphertext Ct = Encrypt->encryptValues(*Enc, X, 3);
  auto Cached = Decrypt->decryptRealValues(*Enc, Eval->rotate(Ct, 5));
  auto Eager = Decrypt->decryptRealValues(
      *Enc, Eval->applyGalois(Ct, G5, EagerKey));
  for (size_t I = 0; I < X.size(); ++I) {
    EXPECT_NEAR(Cached[I], X[(I + 5) % Ctx->slots()], 1e-5);
    EXPECT_NEAR(Cached[I], Eager[I], 1e-5);
  }
}

TEST_F(KeyCacheTest, EvictionRegeneratesTransparently) {
  Cache->declareRotation(2);
  std::vector<double> X = randomSlots(7);
  Ciphertext Ct = Encrypt->encryptValues(*Enc, X, 3);
  auto Before = Decrypt->decryptRealValues(*Enc, Eval->rotate(Ct, 2));

  size_t Released = Cache->evictColdest(SIZE_MAX);
  EXPECT_GT(Released, 0u);
  EXPECT_EQ(Cache->stats().ResidentCount, 0u);
  EXPECT_EQ(Cache->stats().Evictions, 1u);

  // Regenerated key: fresh material, same rotation semantics.
  auto After = Decrypt->decryptRealValues(*Enc, Eval->rotate(Ct, 2));
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(After[I], Before[I], 1e-5);
  EXPECT_EQ(Cache->stats().Misses, 2u);
}

TEST_F(KeyCacheTest, EvictColdestDropsLeastRecentlyUsedFirst) {
  uint64_t G1 = Cache->declareRotation(1);
  uint64_t G2 = Cache->declareRotation(2);
  ASSERT_TRUE(Cache->get(G1).ok());
  size_t OneKeyBytes = Cache->stats().ResidentBytes;
  ASSERT_TRUE(Cache->get(G2).ok());
  // Using G1 again leaves G2 the least recently used key.
  ASSERT_TRUE(Cache->get(G1).ok());

  // A one-byte request releases exactly the coldest key.
  EXPECT_EQ(Cache->evictColdest(1), OneKeyBytes);
  EXPECT_EQ(Cache->stats().ResidentCount, 1u);
  EXPECT_EQ(Cache->stats().Evictions, 1u);
  // G1 is still resident; G2 is still declared and regenerates on demand.
  uint64_t Misses = Cache->stats().Misses;
  EXPECT_TRUE(Cache->get(G1).ok());
  EXPECT_EQ(Cache->stats().Misses, Misses);
  EXPECT_TRUE(Cache->declared(G2));
  EXPECT_TRUE(Cache->get(G2).ok());
  EXPECT_EQ(Cache->stats().Misses, Misses + 1);
}

TEST_F(KeyCacheTest, PinnedKeysAreNotEvicted) {
  uint64_t G = Cache->declareRotation(4);
  auto Pinned = Cache->get(G);
  ASSERT_TRUE(Pinned.ok());
  // The shared_ptr handle keeps the entry hot: eviction must skip it so
  // accounting stays honest while an op is mid-flight with the key.
  EXPECT_EQ(Cache->evictColdest(SIZE_MAX), 0u);
  EXPECT_EQ(Cache->stats().ResidentCount, 1u);

  *Pinned = nullptr; // drop the pin
  EXPECT_GT(Cache->evictColdest(SIZE_MAX), 0u);
  EXPECT_EQ(Cache->stats().ResidentCount, 0u);
}

TEST_F(KeyCacheTest, RedeclarationWidensTruncation) {
  uint64_t G = Cache->declareRotation(6, /*MaxNumQ=*/3);
  auto Narrow = Cache->get(G);
  ASSERT_TRUE(Narrow.ok());
  EXPECT_EQ((*Narrow)->numQ(), 3u);
  EXPECT_EQ((*Narrow)->Parts.size(), Ctx->keySwitch().digits(3));

  // Widening to the full chain drops the narrower cached key; the next
  // get() builds the wide one.
  Cache->declareRotation(6, /*MaxNumQ=*/0);
  auto Wide = Cache->get(G);
  ASSERT_TRUE(Wide.ok());
  EXPECT_EQ((*Wide)->numQ(), Ctx->chainLength());
  EXPECT_EQ((*Wide)->Parts.size(),
            Ctx->keySwitch().digits(Ctx->chainLength()));
}

TEST_F(KeyCacheTest, GaloisRedeclarationWidensAndNeverNarrows) {
  // Raw Galois declarations (bootstrap SubSum, conjugation) follow the
  // same widen-and-invalidate rule as rotations: a key cached at a
  // narrower truncation must not keep serving once a deeper use is
  // declared — the hot tier's depth assert is compiled out in release.
  uint64_t G = galoisForConjugation(Ctx->degree());
  Cache->declareGalois(G, /*MaxNumQ=*/3);
  auto Narrow = Cache->get(G);
  ASSERT_TRUE(Narrow.ok());
  EXPECT_EQ((*Narrow)->numQ(), 3u);
  EXPECT_EQ((*Narrow)->Parts.size(), Ctx->keySwitch().digits(3));
  *Narrow = nullptr; // unpin so the widening can drop it

  Cache->declareGalois(G, /*MaxNumQ=*/0);
  auto Wide = Cache->get(G);
  ASSERT_TRUE(Wide.ok());
  EXPECT_EQ((*Wide)->numQ(), Ctx->chainLength());
  *Wide = nullptr;

  // A later narrower declaration keeps the full-depth key resident.
  Cache->declareGalois(G, /*MaxNumQ=*/2);
  auto Kept = Cache->get(G);
  ASSERT_TRUE(Kept.ok());
  EXPECT_EQ((*Kept)->numQ(), Ctx->chainLength());
  EXPECT_EQ((*Kept)->Parts.size(),
            Ctx->keySwitch().digits(Ctx->chainLength()));
}

TEST_F(KeyCacheTest, BudgetRefusalIsResourceExhaustedNotACrash) {
  Cache->declareRotation(7);
  std::vector<double> X = randomSlots(11);
  Ciphertext Ct = Encrypt->encryptValues(*Enc, X, 3);

  // Force the admission refusal without a real tight budget. The
  // checked tier must surface it verbatim (not misclassify it as a
  // missing key) and leave no partial entry behind.
  FaultInjector::instance().arm(FaultKind::BudgetExceeded, /*Count=*/1);
  auto Refused = Eval->checkedRotate(Ct, 7);
  ASSERT_FALSE(Refused.ok());
  EXPECT_EQ(Refused.status().code(), ErrorCode::ResourceExhausted);
  EXPECT_EQ(Cache->stats().ResidentCount, 0u);

  // The fault fired once; the same op now succeeds end to end.
  auto Ok = Eval->checkedRotate(Ct, 7);
  ASSERT_TRUE(Ok.ok()) << Ok.status().message();
  auto Out = Decrypt->decryptRealValues(*Enc, *Ok);
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], X[(I + 7) % Ctx->slots()], 1e-5);
}

/// A reclaim pass makes the room it reports: the evicted key's blocks,
/// charged to eval_keys alone while resident, return to the limb pool's
/// free lists and the pass trims as many bytes from them, so an
/// admission that needs the cold key's bytes succeeds.
TEST_F(KeyCacheTest, GovernorReclaimFreesTheEvictedKey) {
  uint64_t G = Cache->declareRotation(5);
  ASSERT_TRUE(Cache->get(G).ok());
  size_t KeyBytes = Cache->stats().ResidentBytes;
  ASSERT_GT(KeyBytes, 0u);
  LimbPool::instance().trim();
  ResourceGovernor &Gov = ResourceGovernor::instance();
  size_t Total = Gov.stats().totalChargedBytes();
  Gov.setBudgetBytes(Total + KeyBytes / 2);
  Status S = Gov.admit(KeyBytes, "a second key");
  EXPECT_TRUE(S.ok()) << S.message();
  EXPECT_EQ(Cache->stats().ResidentCount, 0u);
  EXPECT_EQ(Gov.stats().totalChargedBytes(), Total - KeyBytes);
}

/// A resident key is charged once, to eval_keys: its pooled bytes are
/// out of the limb pool's in-use gauge and charge. Dropping it while
/// another handle still holds it moves them back under limb_pool at
/// once, and they leave the governor when the handle dies and the pool
/// trims its free lists.
TEST_F(KeyCacheTest, ResidentKeyIsChargedOnlyToEvalKeys) {
  LimbPool &Pool = LimbPool::instance();
  ResourceGovernor &Gov = ResourceGovernor::instance();
  uint64_t G = Cache->declareRotation(5);
  Pool.trim();
  size_t Total = Gov.stats().totalChargedBytes();
  size_t InUse = Pool.stats().InUseBytes;
  auto Got = Cache->get(G);
  ASSERT_TRUE(Got.ok()) << Got.status().message();
  std::shared_ptr<const SwitchKey> Held = Got.take();
  size_t KeyBytes = Cache->stats().ResidentBytes;
  ASSERT_GT(KeyBytes, 0u);
  Pool.trim();
  EXPECT_EQ(Pool.stats().InUseBytes, InUse);
  EXPECT_EQ(Gov.stats().totalChargedBytes(), Total + KeyBytes);

  EXPECT_EQ(Cache->releaseAll(), KeyBytes);
  EXPECT_EQ(Pool.stats().InUseBytes, InUse + Held->pooledBytes());
  EXPECT_EQ(Gov.stats().totalChargedBytes(), Total + Held->pooledBytes());
  Held.reset();
  Pool.trim();
  EXPECT_EQ(Pool.stats().InUseBytes, InUse);
  EXPECT_EQ(Gov.stats().totalChargedBytes(), Total);
}

TEST_F(KeyCacheTest, ReleaseAllKeepsDeclarations) {
  Cache->declareRotation(1);
  Cache->declareGalois(2 * Ctx->degree() - 1); // conjugation element
  uint64_t G1 = galoisForRotation(Ctx->degree(), Ctx->slots(), 1);
  ASSERT_TRUE(Cache->get(G1).ok());
  EXPECT_GT(Cache->releaseAll(), 0u);
  EXPECT_EQ(Cache->stats().ResidentBytes, 0u);
  EXPECT_EQ(Cache->stats().DeclaredCount, 2u);
  EXPECT_TRUE(Cache->get(G1).ok());
}

/// Keys adopted from a saved set may belong to another secret: neither
/// the reclaim pass, releaseAll nor a wider re-declaration may drop them,
/// because they cannot be regenerated.
TEST_F(KeyCacheTest, AdoptedKeysSurviveEvictionAndRedeclaration) {
  uint64_t G = galoisForRotation(Ctx->degree(), Ctx->slots(), 3);
  std::map<uint64_t, SwitchKey> Loaded;
  Loaded.emplace(G, Gen->makeRotationKey(3, /*MaxNumQ=*/4));
  size_t Bytes = Loaded.at(G).byteSize();
  Cache->declareRotation(9); // replaced by the adoption
  Cache->adoptKeys(std::move(Loaded));
  EXPECT_EQ(Cache->stats().DeclaredCount, 1u);
  EXPECT_EQ(Cache->stats().ResidentBytes, Bytes);

  EXPECT_EQ(Cache->evictColdest(SIZE_MAX), 0u);
  EXPECT_EQ(Cache->releaseAll(), 0u);
  Cache->declareRotation(3, /*MaxNumQ=*/0);
  auto Key = Cache->get(G);
  ASSERT_TRUE(Key.ok()) << Key.status().message();
  EXPECT_EQ((*Key)->numQ(), 4u);
  EXPECT_EQ(Cache->stats().Misses, 0u);
  EXPECT_EQ(Cache->stats().ResidentBytes, Bytes);
}

/// A pool task that misses a key takes the cache mutex under the pool's
/// run lock (its fork holds that lock); a miss outside any task takes the
/// cache mutex first. Key generation must therefore never fork under the
/// cache mutex, or the two orders invert - which ThreadSanitizer reports,
/// and which deadlocks when a service wave and a lazy-key miss overlap.
TEST_F(KeyCacheTest, MissesInsideAndOutsidePoolTasksNeverForkUnderTheLock) {
  using telemetry::Counter;
  using telemetry::Telemetry;
  ThreadPool::instance().setNumThreads(2);
  std::vector<uint64_t> Galois;
  for (int64_t Step = 1; Step <= 9; ++Step)
    Galois.push_back(Cache->declareRotation(Step));

  // Misses inside the chunks of a fork: the forking thread runs chunks
  // while it holds the run lock.
  std::atomic<size_t> Failures{0};
  ThreadPool::instance().parallelFor(0, 8, [&](size_t I) {
    if (!Cache->get(Galois[I]).ok())
      ++Failures;
  });
  EXPECT_EQ(Failures.load(), 0u);

  // A miss outside any task generates inline: no fork.
  Telemetry::instance().setEnabled(true);
  uint64_t Forks = Telemetry::instance().counterValue(Counter::ParallelFor);
  auto Key = Cache->get(Galois.back());
  uint64_t ForksAfter =
      Telemetry::instance().counterValue(Counter::ParallelFor);
  Telemetry::instance().setEnabled(false);
  ThreadPool::instance().setNumThreads(0);
  ASSERT_TRUE(Key.ok()) << Key.status().message();
  EXPECT_EQ(ForksAfter, Forks);
  EXPECT_EQ(Cache->stats().Misses, Galois.size());
}

/// Four threads look keys up while a fifth evicts everything it can in a
/// loop: a handle must never dangle or come back narrower than its
/// declaration, however the lookups and reclaim passes interleave.
TEST_F(KeyCacheTest, ConcurrentGetAndReclaim) {
  CkksParams P;
  P.RingDegree = 256;
  P.Slots = 64;
  P.LogScale = 45;
  P.LogFirstModulus = 55;
  P.NumRescaleModuli = 11;
  P.LogSpecialModulus = 60;
  P.Seed = 23;
  // A small ring keeps the regenerations the evictor forces cheap.
  Context Ctx256(P);
  KeyGenerator Gen256(Ctx256);
  RotationKeyCache Cache256(Ctx256, Gen256);
  const std::vector<std::pair<int64_t, size_t>> Declared = {
      {1, 3}, {2, 6}, {5, 0}, {7, 9}};
  std::vector<std::pair<uint64_t, size_t>> Levels;
  for (const auto &[Step, MaxNumQ] : Declared)
    Levels.emplace_back(Cache256.declareRotation(Step, MaxNumQ),
                        MaxNumQ ? MaxNumQ : Ctx256.chainLength());

  std::atomic<bool> Evicting{false}, Done{false};
  std::atomic<size_t> Failures{0};
  std::thread Evictor([&] {
    while (!Done.load()) {
      Cache256.evictColdest(SIZE_MAX);
      Evicting = true;
    }
  });
  std::vector<std::thread> Workers;
  for (int T = 0; T < 4; ++T)
    Workers.emplace_back([&, T] {
      while (!Evicting.load())
        std::this_thread::yield();
      std::vector<std::shared_ptr<const SwitchKey>> Held;
      for (int I = 0; I < 25; ++I)
        for (size_t K = 0; K < Levels.size(); ++K) {
          const auto &[Galois, NumQ] = Levels[(K + T) % Levels.size()];
          auto Key = Cache256.get(Galois);
          if (!Key.ok() || !(*Key)->covers(NumQ) ||
              (*Key)->numQ() != NumQ ||
              (*Key)->byteSize() != Ctx256.switchKeyBytes(NumQ)) {
            ++Failures;
            continue;
          }
          Held.push_back(Key.take());
          if (Held.size() > 2)
            Held.erase(Held.begin());
        }
      // Every handle still held reads as the key it was handed out as.
      for (const auto &Key : Held)
        if (Key->Parts.front().first.numQ() != Key->numQ())
          ++Failures;
    });
  for (auto &W : Workers)
    W.join();
  Done = true;
  Evictor.join();
  EXPECT_EQ(Failures.load(), 0u);
  RotationKeyCache::Stats S = Cache256.stats();
  EXPECT_EQ(S.DeclaredCount, Levels.size());
  EXPECT_EQ(S.Hits + S.Misses, 4u * 25u * Levels.size());
}

} // namespace
