//===----------------------------------------------------------------------===//
// Differential tests for hoisted rotation key-switching: rotateHoisted
// must be bit-identical to the sequential rotate path at every thread
// count (same polynomials, scale, slot count, level, and noise budget),
// the digit-domain automorphism must commute with the decomposition
// (white-box invariant behind the hoisting), and the telemetry counters
// must prove one ModUp per batch instead of one per rotation.
//===----------------------------------------------------------------------===//

#include "fhe/Bootstrapper.h"

#include "fhe/Encryptor.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include "TestKeys.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

using namespace ace;
using namespace ace::fhe;
using telemetry::Counter;
using telemetry::CounterSnapshot;
using telemetry::Telemetry;

namespace {

CkksParams testParams() {
  CkksParams P;
  P.RingDegree = 1024;
  P.Slots = 128;
  P.LogScale = 40;
  P.LogFirstModulus = 50;
  P.NumRescaleModuli = 6;
  P.LogSpecialModulus = 59;
  P.Seed = 91;
  return P;
}

/// Bitwise equality of every RNS component of every polynomial, plus the
/// metadata a consumer can observe (scale, slots).
::testing::AssertionResult sameCiphertext(const Ciphertext &A,
                                          const Ciphertext &B) {
  if (A.size() != B.size())
    return ::testing::AssertionFailure()
           << "polynomial count " << A.size() << " vs " << B.size();
  if (A.Scale != B.Scale)
    return ::testing::AssertionFailure()
           << "scale " << A.Scale << " vs " << B.Scale;
  if (A.Slots != B.Slots)
    return ::testing::AssertionFailure()
           << "slots " << A.Slots << " vs " << B.Slots;
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

/// Steps the fixture generates rotation keys for; differential trials
/// draw from this pool.
const int64_t KeyedSteps[] = {1, 2, 3, 5, 7, 17, 31, 64, 127, -1, -3};

class HoistedRotationTest : public ::testing::Test {
protected:
  HoistedRotationTest()
      : Ctx(testParams()), Enc(Ctx), Gen(Ctx), Cache(Ctx, Gen),
        Pub(Gen.makePublicKey()) {
    std::vector<int64_t> Steps(std::begin(KeyedSteps), std::end(KeyedSteps));
    makeTestKeys(Gen, Keys, Cache, Steps, /*NeedRelin=*/true,
                 /*NeedConjugate=*/true);
    Eval = std::make_unique<Evaluator>(Ctx, Enc, Keys, Cache);
    Encrypt = std::make_unique<Encryptor>(Ctx, Pub);
  }
  void TearDown() override {
    ThreadPool::instance().setNumThreads(0);
    Telemetry::instance().setEnabled(false);
    Telemetry::instance().clear();
  }

  Ciphertext randomCiphertext(Rng &R, size_t NumQ) {
    std::vector<double> X(Ctx.slots());
    for (auto &V : X)
      V = R.uniformReal(-1.0, 1.0);
    return Encrypt->encryptValues(Enc, X, NumQ);
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

/// The differential property at the heart of the PR: for random levels
/// and random step sets, one hoisted batch equals N sequential rotations
/// bit for bit, at one worker thread and at four.
TEST_F(HoistedRotationTest, BatchBitIdenticalToSequentialAcrossThreads) {
  Rng R(2026);
  const size_t NumKeyed = sizeof(KeyedSteps) / sizeof(KeyedSteps[0]);
  for (int Trial = 0; Trial < 6; ++Trial) {
    // Random level in [2, chainLength] and a random step multiset that
    // may contain zero (identity) and duplicate steps.
    size_t NumQ = 2 + R.uniform(Ctx.chainLength() - 1);
    Ciphertext In = randomCiphertext(R, NumQ);
    std::vector<int64_t> Steps(1 + R.uniform(8));
    for (auto &S : Steps)
      S = R.uniform(4) == 0 ? 0 : KeyedSteps[R.uniform(NumKeyed)];

    ThreadPool::instance().setNumThreads(1);
    std::vector<Ciphertext> Sequential;
    for (int64_t S : Steps)
      Sequential.push_back(Eval->rotate(In, S));

    for (size_t Threads : {1u, 4u}) {
      ThreadPool::instance().setNumThreads(Threads);
      std::vector<Ciphertext> Hoisted = Eval->rotateHoisted(In, Steps);
      ASSERT_EQ(Hoisted.size(), Steps.size());
      for (size_t I = 0; I < Steps.size(); ++I) {
        EXPECT_TRUE(sameCiphertext(Hoisted[I], Sequential[I]))
            << "trial " << Trial << " step " << Steps[I] << " at "
            << Threads << " threads";
        EXPECT_EQ(Hoisted[I].numQ(), Sequential[I].numQ());
        EXPECT_EQ(Eval->noiseBudgetBits(Hoisted[I]),
                  Eval->noiseBudgetBits(Sequential[I]));
      }
    }
  }
}

/// A batch of one is exactly rotate(); checkedRotateHoisted agrees with
/// the unchecked tier and reports missing keys per step.
TEST_F(HoistedRotationTest, BatchOfOneAndCheckedTierAgree) {
  Rng R(7);
  Ciphertext In = randomCiphertext(R, Ctx.chainLength());
  Ciphertext Single = Eval->rotate(In, 5);
  std::vector<Ciphertext> Batch = Eval->rotateHoisted(In, {5});
  ASSERT_EQ(Batch.size(), 1u);
  EXPECT_TRUE(sameCiphertext(Batch[0], Single));

  auto Checked = Eval->checkedRotateHoisted(In, {5, 0, -1});
  ASSERT_TRUE(Checked.ok()) << Checked.status().message();
  ASSERT_EQ(Checked->size(), 3u);
  EXPECT_TRUE(sameCiphertext((*Checked)[0], Single));
  EXPECT_TRUE(sameCiphertext((*Checked)[1], In));

  // Step 4 has no key in the fixture's restricted set.
  auto Missing = Eval->checkedRotateHoisted(In, {1, 4});
  ASSERT_FALSE(Missing.ok());
  EXPECT_EQ(Missing.status().code(), ErrorCode::KeyMissing);
}

/// White-box: the NTT-domain automorphism is the same map as
/// iNTT -> coefficient automorphism -> NTT, per RNS limb.
TEST_F(HoistedRotationTest, AutomorphismNttMatchesCoefficientPath) {
  Rng R(13);
  Ciphertext In = randomCiphertext(R, Ctx.chainLength());
  RnsPoly P = In.Polys[1]; // a pseudo-random NTT-form polynomial
  size_t N = Ctx.degree();
  for (int64_t Step : {1, 5, 31, -3}) {
    uint64_t Galois = galoisForRotation(N, Ctx.slots(), Step);
    RnsPoly ViaNtt = P.automorphismNtt(Galois);
    RnsPoly ViaCoeff = P;
    ViaCoeff.toCoeff();
    ViaCoeff = ViaCoeff.automorphism(Galois);
    ViaCoeff.toNtt();
    ASSERT_EQ(ViaNtt.numComponents(), ViaCoeff.numComponents());
    for (size_t C = 0; C < ViaNtt.numComponents(); ++C)
      EXPECT_EQ(std::memcmp(ViaNtt.component(C), ViaCoeff.component(C),
                            N * sizeof(uint64_t)),
                0)
          << "step " << Step << " limb " << C;
  }
}

/// White-box: automorphism-then-decompose equals
/// decompose-then-digit-automorphism on every own limb of each digit
/// (where the raised digit is congruent to the input modulo the digit's
/// own primes, and reduction commutes with the automorphism). The other
/// limbs convert the digit's centered representative, which commutes
/// only up to a multiple of the digit modulus (a coefficient at the
/// centering boundary flips sign) - harmless to the key switch, so not
/// pinned.
TEST_F(HoistedRotationTest, DigitAutomorphismCommutesWithDecomposition) {
  Rng R(17);
  Ciphertext In = randomCiphertext(R, Ctx.chainLength());
  const RnsPoly &D = In.Polys[1];
  size_t N = Ctx.degree();
  size_t L = Ctx.chainLength();
  size_t Alpha = Ctx.keySwitch().DigitSize;
  uint64_t Galois = galoisForRotation(N, Ctx.slots(), 7);

  HoistedDecomposition Dec = Eval->decomposeNtt(D);
  HoistedDecomposition DecRotated =
      Eval->decomposeNtt(D.automorphismNtt(Galois));

  ASSERT_EQ(Dec.Digits.size(), Ctx.keySwitch().digits(L));
  ASSERT_EQ(Dec.Digits.size(), DecRotated.Digits.size());
  size_t OwnLimbs = 0;
  for (size_t Digit = 0; Digit < Dec.Digits.size(); ++Digit) {
    RnsPoly Permuted = Dec.Digits[Digit].automorphismNtt(Galois);
    for (size_t C = Digit * Alpha; C < std::min(L, (Digit + 1) * Alpha);
         ++C, ++OwnLimbs)
      EXPECT_EQ(std::memcmp(DecRotated.Digits[Digit].component(C),
                            Permuted.component(C), N * sizeof(uint64_t)),
                0)
          << "digit " << Digit << " limb " << C;
  }
  EXPECT_EQ(OwnLimbs, L);
}

/// Telemetry proof of the hoisting: a batch of eight rotations performs
/// exactly ONE digit decomposition (ModUp) while still reporting eight
/// rotations / key switches; the sequential loop pays eight ModUps.
TEST_F(HoistedRotationTest, TelemetryCountsOneModUpPerBatch) {
  Rng R(19);
  Ciphertext In = randomCiphertext(R, Ctx.chainLength());
  std::vector<int64_t> Steps = {1, 2, 3, 5, 7, 17, 31, 64};

  Telemetry::instance().setEnabled(true);
  CounterSnapshot Before = Telemetry::instance().counters();
  std::vector<Ciphertext> Batch = Eval->rotateHoisted(In, Steps);
  CounterSnapshot Hoisted =
      Telemetry::instance().counters().deltaSince(Before);
  EXPECT_EQ(Hoisted.get(Counter::ModUp), 1u);
  EXPECT_EQ(Hoisted.get(Counter::HoistedKeySwitch), Steps.size());
  EXPECT_EQ(Hoisted.get(Counter::Rotate), Steps.size());
  EXPECT_EQ(Hoisted.get(Counter::KeySwitch), Steps.size());

  Before = Telemetry::instance().counters();
  for (int64_t S : Steps)
    Eval->rotate(In, S);
  CounterSnapshot Sequential =
      Telemetry::instance().counters().deltaSince(Before);
  EXPECT_EQ(Sequential.get(Counter::ModUp), Steps.size());
  EXPECT_EQ(Sequential.get(Counter::HoistedKeySwitch), 0u);
  EXPECT_EQ(Sequential.get(Counter::Rotate), Steps.size());
  EXPECT_EQ(Sequential.get(Counter::KeySwitch), Steps.size());
}

/// The bootstrapper's BSGS baby steps share ModUps: every key switch
/// that is NOT hoisted pays one decomposition, so the number of hoisted
/// batches is ModUp - (KeySwitch - HoistedKeySwitch), and sharing means
/// strictly more hoisted rotations than batches.
TEST(HoistedRotationBootstrap, BabyStepsShareOneModUpPerBatch) {
  CkksParams P;
  P.RingDegree = 1024;
  P.Slots = 32;
  P.LogScale = 48;
  P.LogFirstModulus = 57;
  P.NumRescaleModuli = 24;
  P.LogSpecialModulus = 60;
  P.SparseSecret = true;
  P.Seed = 29;
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

  Rng R(5);
  std::vector<double> X(Ctx.slots());
  for (auto &V : X)
    V = R.uniformReal(-0.5, 0.5);
  Ciphertext In = Encrypt.encryptValues(Enc, X, 1);

  Telemetry::instance().setEnabled(true);
  CounterSnapshot Before = Telemetry::instance().counters();
  Ciphertext Out = Boot.bootstrap(In, /*TargetNumQ=*/3);
  CounterSnapshot D = Telemetry::instance().counters().deltaSince(Before);
  Telemetry::instance().setEnabled(false);
  Telemetry::instance().clear();

  ASSERT_GT(D.get(Counter::HoistedKeySwitch), 0u);
  ASSERT_GE(D.get(Counter::KeySwitch), D.get(Counter::HoistedKeySwitch));
  uint64_t UnhoistedModUps =
      D.get(Counter::KeySwitch) - D.get(Counter::HoistedKeySwitch);
  ASSERT_GE(D.get(Counter::ModUp), UnhoistedModUps);
  uint64_t Batches = D.get(Counter::ModUp) - UnhoistedModUps;
  EXPECT_GE(Batches, 1u);
  // Sharing: each CoeffToSlot/SlotToCoeff matvec hoists BS-1 >= 2
  // rotations into one decomposition.
  EXPECT_GT(D.get(Counter::HoistedKeySwitch), Batches);
  // The digit counter still dominates key switches (golden invariant).
  EXPECT_GT(D.get(Counter::KeySwitchDigit), D.get(Counter::KeySwitch));
}

} // namespace
