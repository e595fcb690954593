//===----------------------------------------------------------------------===//
// Exhaustive differential mode of the hoisted-rotation suite: sweeps
// every level of the chain, every keyed step (alone and in batches), and
// several thread counts, comparing rotateHoisted against sequential
// rotate bit for bit. Orders of magnitude more trials than the tier-1
// property test, so it runs only when ACE_EXHAUSTIVE is set (the CI
// nightly-style job; see README "Testing").
//===----------------------------------------------------------------------===//

#include "fhe/Encryptor.h"
#include "fhe/Evaluator.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include "TestKeys.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>

using namespace ace;
using namespace ace::fhe;

namespace {

::testing::AssertionResult sameCiphertext(const Ciphertext &A,
                                          const Ciphertext &B) {
  if (A.size() != B.size())
    return ::testing::AssertionFailure() << "polynomial count differs";
  if (A.Scale != B.Scale)
    return ::testing::AssertionFailure()
           << "scale " << A.Scale << " vs " << B.Scale;
  if (A.Slots != B.Slots)
    return ::testing::AssertionFailure() << "slot count differs";
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

TEST(HoistedRotationExhaustive, AllLevelsStepsAndThreadCounts) {
  if (std::getenv("ACE_EXHAUSTIVE") == nullptr)
    GTEST_SKIP() << "set ACE_EXHAUSTIVE=1 to run the exhaustive sweep";

  for (uint64_t Seed : {101u, 202u}) {
    CkksParams P;
    P.RingDegree = 1024;
    P.Slots = 128;
    P.LogScale = 40;
    P.LogFirstModulus = 50;
    P.NumRescaleModuli = 6;
    P.LogSpecialModulus = 59;
    P.Seed = Seed;
    Context Ctx(P);
    Encoder Enc(Ctx);
    KeyGenerator Gen(Ctx);
    PublicKey Pub = Gen.makePublicKey();
    EvalKeys Keys;
    std::vector<int64_t> Steps;
    for (int64_t S = 1; S < static_cast<int64_t>(Ctx.slots()); S <<= 1)
      Steps.push_back(S);
    Steps.insert(Steps.end(), {3, 5, 7, 11, 127, -1, -5});
    RotationKeyCache Cache(Ctx, Gen);
    makeTestKeys(Gen, Keys, Cache, Steps, /*NeedRelin=*/false,
                 /*NeedConjugate=*/false);
    Evaluator Eval(Ctx, Enc, Keys, Cache);
    Encryptor Encrypt(Ctx, Pub);

    Rng R(Seed * 7 + 1);
    for (size_t NumQ = 2; NumQ <= Ctx.chainLength(); ++NumQ) {
      std::vector<double> X(Ctx.slots());
      for (auto &V : X)
        V = R.uniformReal(-1.0, 1.0);
      Ciphertext In = Encrypt.encryptValues(Enc, X, NumQ);

      ThreadPool::instance().setNumThreads(1);
      std::vector<Ciphertext> Sequential;
      for (int64_t S : Steps)
        Sequential.push_back(Eval.rotate(In, S));

      for (size_t Threads : {1u, 2u, 4u, 8u}) {
        ThreadPool::instance().setNumThreads(Threads);
        // The full step set as one batch.
        std::vector<Ciphertext> Batch = Eval.rotateHoisted(In, Steps);
        ASSERT_EQ(Batch.size(), Steps.size());
        for (size_t I = 0; I < Steps.size(); ++I)
          ASSERT_TRUE(sameCiphertext(Batch[I], Sequential[I]))
              << "seed " << Seed << " numQ " << NumQ << " step "
              << Steps[I] << " threads " << Threads;
        // Every step as a batch of one.
        for (size_t I = 0; I < Steps.size(); ++I) {
          std::vector<Ciphertext> One =
              Eval.rotateHoisted(In, {Steps[I]});
          ASSERT_TRUE(sameCiphertext(One[0], Sequential[I]))
              << "singleton seed " << Seed << " numQ " << NumQ
              << " step " << Steps[I] << " threads " << Threads;
        }
      }
    }
  }
  ThreadPool::instance().setNumThreads(0);
}

} // namespace
