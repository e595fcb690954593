//===----------------------------------------------------------------------===//
// Limb-pool differential tests: the pool is a pure storage recycler, so
// running the same op pipeline with the pool on and bypassed (the
// ACE_LIMB_POOL=off switch) must produce bit-identical ciphertexts — at
// one thread and with the hot loops parallelized.
//===----------------------------------------------------------------------===//

#include "fhe/Encryptor.h"
#include "fhe/Evaluator.h"
#include "support/LimbPool.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include "TestKeys.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace ace;
using namespace ace::fhe;

namespace {

/// Bitwise equality of every RNS component of every polynomial.
::testing::AssertionResult samePolys(const Ciphertext &A,
                                     const Ciphertext &B) {
  if (A.size() != B.size())
    return ::testing::AssertionFailure()
           << "polynomial count " << A.size() << " vs " << B.size();
  if (A.Scale != B.Scale)
    return ::testing::AssertionFailure()
           << "scale " << A.Scale << " vs " << B.Scale;
  for (size_t P = 0; P < A.size(); ++P) {
    const RnsPoly &PA = A.Polys[P], &PB = B.Polys[P];
    if (PA.numComponents() != PB.numComponents())
      return ::testing::AssertionFailure() << "component count differs";
    size_t N = PA.context().degree();
    for (size_t C = 0; C < PA.numComponents(); ++C)
      if (std::memcmp(PA.component(C), PB.component(C),
                      N * sizeof(uint64_t)) != 0)
        return ::testing::AssertionFailure()
               << "poly " << P << " component " << C << " differs";
  }
  return ::testing::AssertionSuccess();
}

struct PoolDifferentialTest : ::testing::Test {
  PoolDifferentialTest() : SavedEnabled(LimbPool::instance().enabled()) {
    CkksParams P;
    P.RingDegree = 1024;
    P.Slots = 128;
    P.LogScale = 40;
    P.LogFirstModulus = 50;
    P.NumRescaleModuli = 6;
    P.LogSpecialModulus = 59;
    P.Seed = 77;
    Ctx = std::make_unique<Context>(P);
    Enc = std::make_unique<Encoder>(*Ctx);
    Gen = std::make_unique<KeyGenerator>(*Ctx);
    Pub = Gen->makePublicKey();
    Cache = std::make_unique<RotationKeyCache>(*Ctx, *Gen);
    makeTestKeys(*Gen, Keys, *Cache, {1, 3, -1}, /*NeedRelin=*/true,
                 /*NeedConjugate=*/true);
    Eval = std::make_unique<Evaluator>(*Ctx, *Enc, Keys, *Cache);
    Encrypt = std::make_unique<Encryptor>(*Ctx, Pub);
  }
  ~PoolDifferentialTest() override {
    ThreadPool::instance().setNumThreads(0);
    LimbPool::instance().setEnabled(SavedEnabled);
    LimbPool::instance().trim();
  }

  /// The op pipeline under test: touches every allocation-heavy kernel
  /// family (ct-ct mul + relin, rescale, rotation, plaintext ops,
  /// conjugation). Deterministic given the same input ciphertext.
  Ciphertext pipeline(const Ciphertext &In,
                      const std::vector<double> &W) {
    Ciphertext Ct = Eval->mul(In, In);
    Eval->rescaleInPlace(Ct);
    Ct = Eval->rotate(Ct, 3);
    Plaintext P = Eval->encodeForMul(Ct, W);
    Ct = Eval->mulPlain(Ct, P);
    Eval->rescaleInPlace(Ct);
    Eval->addConstInPlace(Ct, 0.25);
    Ct = Eval->conjugate(Ct);
    Eval->addInPlace(Ct, Eval->rotate(Ct, 1));
    return Ct;
  }

  bool SavedEnabled;
  std::unique_ptr<Context> Ctx;
  std::unique_ptr<Encoder> Enc;
  std::unique_ptr<KeyGenerator> Gen;
  std::unique_ptr<RotationKeyCache> Cache;
  PublicKey Pub;
  EvalKeys Keys;
  std::unique_ptr<Evaluator> Eval;
  std::unique_ptr<Encryptor> Encrypt;
};

TEST_F(PoolDifferentialTest, PooledAndBypassedRunsAreBitIdentical) {
  Rng R(5);
  std::vector<double> X(Ctx->slots()), W(Ctx->slots());
  for (auto &V : X)
    V = R.uniformReal(-1.0, 1.0);
  for (auto &V : W)
    V = R.uniformReal(-1.0, 1.0);
  // Encrypt ONCE (encryption draws randomness); the pipeline itself is
  // deterministic, so only the storage backend differs between legs.
  Ciphertext In = Encrypt->encryptValues(*Enc, X, Ctx->chainLength());

  for (size_t Threads : {size_t(1), size_t(4)}) {
    ThreadPool::instance().setNumThreads(Threads);
    LimbPool::instance().setEnabled(true);
    Ciphertext Pooled = pipeline(In, W);
    LimbPool::instance().setEnabled(false);
    Ciphertext Bypassed = pipeline(In, W);
    EXPECT_TRUE(samePolys(Pooled, Bypassed))
        << "at " << Threads << " threads";
  }
}

TEST_F(PoolDifferentialTest, RecycledBlocksCarryNoResidue) {
  // A block that held one ciphertext's limbs is reused (uninitialized)
  // for another; assignZero and full overwrites must make the result
  // independent of what the block previously held.
  Rng R(9);
  std::vector<double> X(Ctx->slots());
  for (auto &V : X)
    V = R.uniformReal(-1.0, 1.0);
  LimbPool::instance().setEnabled(true);
  Ciphertext In = Encrypt->encryptValues(*Enc, X, Ctx->chainLength());

  // First pass populates the free lists with "dirty" blocks.
  Ciphertext First = Eval->rotate(Eval->mul(In, In), 3);
  Ciphertext FirstCopy = First; // deep copy via pooled storage
  // Second pass runs entirely on recycled blocks.
  Ciphertext Second = Eval->rotate(Eval->mul(In, In), 3);
  EXPECT_TRUE(samePolys(Second, First));
  EXPECT_TRUE(samePolys(FirstCopy, First));
}

} // namespace
