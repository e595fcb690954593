//===----------------------------------------------------------------------===//
// Thread-count determinism tests: the pool's contract (see
// support/ThreadPool.h) is that every parallelized kernel produces
// bit-identical polynomials at every thread count, and that injected
// faults keep failing cleanly when the hot loops run on workers.
//===----------------------------------------------------------------------===//

#include "fhe/Bootstrapper.h"

#include "fhe/Encryptor.h"
#include "support/FaultInjector.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include "TestKeys.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace ace;
using namespace ace::fhe;

namespace {

CkksParams testParams() {
  CkksParams P;
  P.RingDegree = 1024;
  P.Slots = 128;
  P.LogScale = 40;
  P.LogFirstModulus = 50;
  P.NumRescaleModuli = 6;
  P.LogSpecialModulus = 59;
  P.Seed = 77;
  return P;
}

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

class ThreadDeterminismTest : public ::testing::Test {
protected:
  ThreadDeterminismTest()
      : Ctx(testParams()), Enc(Ctx), Gen(Ctx), Cache(Ctx, Gen),
        Pub(Gen.makePublicKey()) {
    makeTestKeys(Gen, Keys, Cache, {1, 3, -1}, /*NeedRelin=*/true,
                 /*NeedConjugate=*/true);
    Eval = std::make_unique<Evaluator>(Ctx, Enc, Keys, Cache);
    Encrypt = std::make_unique<Encryptor>(Ctx, Pub);
  }
  void TearDown() override {
    ThreadPool::instance().setNumThreads(0);
    FaultInjector::instance().reset();
  }

  Context Ctx;
  Encoder Enc;
  KeyGenerator Gen;
  RotationKeyCache Cache;
  PublicKey Pub;
  EvalKeys Keys;
  std::unique_ptr<Evaluator> Eval;
  std::unique_ptr<Encryptor> Encrypt;
};

TEST_F(ThreadDeterminismTest, EvaluatorOpsBitIdentical) {
  // Encrypt ONCE (encryption draws randomness); the op pipeline itself
  // is deterministic, so rerunning it on the same input ciphertext at a
  // different thread count must reproduce every bit.
  Rng R(5);
  std::vector<double> X(Ctx.slots()), W(Ctx.slots());
  for (auto &V : X)
    V = R.uniformReal(-1.0, 1.0);
  for (auto &V : W)
    V = R.uniformReal(-1.0, 1.0);
  Ciphertext In = Encrypt->encryptValues(Enc, X, Ctx.chainLength());

  auto Pipeline = [&](size_t Threads) {
    ThreadPool::instance().setNumThreads(Threads);
    // Touch every parallelized kernel family: ct-ct mul + relin
    // (key-switch digits), rescale, rotation (key switch + automorphism),
    // plaintext mul/add (pointwise limb loops), conjugation, mulByI.
    Ciphertext Ct = Eval->mul(In, In);
    Eval->rescaleInPlace(Ct);
    Ct = Eval->rotate(Ct, 3);
    Plaintext P = Eval->encodeForMul(Ct, W);
    Ct = Eval->mulPlain(Ct, P);
    Eval->rescaleInPlace(Ct);
    Eval->addConstInPlace(Ct, 0.25);
    Ct = Eval->conjugate(Ct);
    Ct = Eval->mulByI(Ct);
    Eval->addInPlace(Ct, Eval->rotate(Ct, 1));
    return Ct;
  };

  Ciphertext Serial = Pipeline(1);
  for (size_t Threads : {2u, 4u, 8u})
    EXPECT_TRUE(samePolys(Pipeline(Threads), Serial))
        << "at " << Threads << " threads";
}

TEST_F(ThreadDeterminismTest, FaultInjectionStaysCleanUnderThreads) {
  // The checked tier classifies injected faults identically when the
  // kernels underneath run on pool workers.
  ThreadPool::instance().setNumThreads(4);
  std::vector<double> X(Ctx.slots(), 0.25);
  auto A = Encrypt->checkedEncryptValues(Enc, X, Ctx.chainLength());
  auto B = Encrypt->checkedEncryptValues(Enc, X, Ctx.chainLength());
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());

  FaultInjector::instance().arm(FaultKind::ScaleDrift);
  auto Drifted = Encrypt->checkedEncryptValues(Enc, X, Ctx.chainLength());
  ASSERT_TRUE(Drifted.ok());
  auto Sum = Eval->checkedAdd(*Drifted, *A);
  ASSERT_FALSE(Sum.ok());
  EXPECT_EQ(Sum.status().code(), ErrorCode::ScaleMismatch);

  FaultInjector::instance().reset();
  FaultInjector::instance().arm(FaultKind::DropGaloisKey);
  auto Rot = Eval->checkedRotate(*A, 1);
  ASSERT_FALSE(Rot.ok());
  EXPECT_EQ(Rot.status().code(), ErrorCode::KeyMissing);

  // No residue: the same ops succeed once the injector is quiet, still
  // at 4 threads.
  FaultInjector::instance().reset();
  auto Ok = Eval->checkedMul(*A, *B);
  ASSERT_TRUE(Ok.ok()) << Ok.status().message();
  EXPECT_TRUE(Eval->checkedRotate(*A, 1).ok());
}

TEST(ThreadDeterminismBootstrap, BootstrapBitIdentical) {
  // Bootstrapping exercises every parallel site at once (ModRaise limb
  // lift, BSGS rotations/key switches, EvalMod mul chains, rescales).
  CkksParams P;
  P.RingDegree = 1024;
  P.Slots = 32;
  P.LogScale = 48;
  P.LogFirstModulus = 57;
  P.NumRescaleModuli = 24;
  P.LogSpecialModulus = 60;
  P.SparseSecret = true;
  P.Seed = 31;
  Context Ctx(P);
  Encoder Enc(Ctx);
  KeyGenerator Gen(Ctx);
  PublicKey Pub = Gen.makePublicKey();
  EvalKeys Keys;
  RotationKeyCache Cache(Ctx, Gen);
  Evaluator Eval(Ctx, Enc, Keys, Cache);
  Bootstrapper Boot(Eval);
  makeTestKeys(Gen, Keys, Cache, Boot.requiredRotations(),
               /*NeedRelin=*/true, Boot.needsConjugation(),
               Boot.requiredGaloisElements());
  Encryptor Encrypt(Ctx, Pub);

  Rng R(3);
  std::vector<double> X(Ctx.slots());
  for (auto &V : X)
    V = R.uniformReal(-0.5, 0.5);
  Ciphertext In = Encrypt.encryptValues(Enc, X, 1);

  ThreadPool::instance().setNumThreads(1);
  Ciphertext Serial = Boot.bootstrap(In, /*TargetNumQ=*/3);
  ThreadPool::instance().setNumThreads(4);
  Ciphertext Threaded = Boot.bootstrap(In, /*TargetNumQ=*/3);
  ThreadPool::instance().setNumThreads(0);
  EXPECT_TRUE(samePolys(Threaded, Serial));
}

} // namespace
