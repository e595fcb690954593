//===----------------------------------------------------------------------===//
// Noise-budget exhaustion tests: drive a ciphertext's budget
// (Evaluator::noiseBudgetBits - log2 of the active modulus product minus
// log2 of the scale) toward zero through repeated checked-tier multiplies
// WITHOUT rescaling, and pin that the checked evaluator reports a clean
// Status(DepthExhausted) at the brink instead of letting the plaintext
// wrap around the modulus and decrypt to unrelated garbage.
//===----------------------------------------------------------------------===//

#include "fhe/Evaluator.h"

#include "fhe/Encryptor.h"
#include "support/Rng.h"

#include "TestKeys.h"

#include <gtest/gtest.h>

#include <cmath>

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

std::vector<double> randomReals(size_t N, uint64_t Seed) {
  Rng R(Seed);
  std::vector<double> V(N);
  for (auto &X : V)
    X = R.uniformReal(-0.5, 0.5);
  return V;
}

class NoiseBudgetFixture : public ::testing::Test {
protected:
  NoiseBudgetFixture()
      : Ctx(testParams()), Enc(Ctx), Gen(Ctx), Cache(Ctx, Gen),
        Pub(Gen.makePublicKey()) {
    makeTestKeys(Gen, Keys, Cache, {}, /*NeedRelin=*/true,
                 /*NeedConjugate=*/false);
    Eval = std::make_unique<Evaluator>(Ctx, Enc, Keys, Cache);
    Encrypt = std::make_unique<Encryptor>(Ctx, Pub);
    Decrypt = std::make_unique<Decryptor>(Ctx, Gen.secretKey());
  }

  Context Ctx;
  Encoder Enc;
  KeyGenerator Gen;
  RotationKeyCache Cache;
  PublicKey Pub;
  EvalKeys Keys;
  std::unique_ptr<Evaluator> Eval;
  std::unique_ptr<Encryptor> Encrypt;
  std::unique_ptr<Decryptor> Decrypt;
};

/// Repeated ct-ct multiplies without rescale square the scale each round;
/// the checked tier must stop the chain with DepthExhausted before the
/// scale overruns the active modulus, and the last ACCEPTED result must
/// still decrypt to the true product (the guard fires before garbage, not
/// after).
TEST_F(NoiseBudgetFixture, RepeatedMulWithoutRescaleHitsBudgetWall) {
  auto X = randomReals(Ctx.slots(), 1);
  Ciphertext Ct = Encrypt->encryptValues(Enc, X, Ctx.chainLength());
  std::vector<double> Expect = X;

  bool HitWall = false;
  for (int Round = 0; Round < 32 && !HitWall; ++Round) {
    double BudgetBefore = Eval->noiseBudgetBits(Ct);
    auto Next = Eval->checkedMul(Ct, Ct);
    if (Next.ok()) {
      // The guard promised headroom: the product's budget must be
      // positive and the values still meaningful.
      Ct = Next.take();
      for (auto &E : Expect)
        E *= E;
      EXPECT_GT(Eval->noiseBudgetBits(Ct), 0.0)
          << "accepted a mul that left no budget (round " << Round << ")";
    } else {
      HitWall = true;
      EXPECT_EQ(Next.status().code(), ErrorCode::DepthExhausted)
          << Next.status().message();
      // The diagnostic names the failure class.
      EXPECT_NE(Next.status().message().find("noise budget"),
                std::string::npos)
          << Next.status().message();
      // At the wall the remaining budget really was too thin for another
      // squaring.
      EXPECT_LT(BudgetBefore - std::log2(Ct.Scale), 1.0);
    }
  }
  ASSERT_TRUE(HitWall) << "budget never exhausted after 32 squarings";

  // The last accepted ciphertext decrypts to the true running product -
  // nothing silently wrapped before the guard fired.
  auto Got = Decrypt->decryptRealValues(Enc, Ct);
  for (size_t I = 0; I < 8; ++I)
    EXPECT_NEAR(Got[I], Expect[I], 1e-2) << "slot " << I;
}

/// The same wall exists for plaintext multiplies: once the scale climbs
/// high enough that one more mulPlain would overrun the modulus, the
/// checked tier refuses.
TEST_F(NoiseBudgetFixture, MulPlainRefusesWhenBudgetExhausted) {
  auto X = randomReals(Ctx.slots(), 2);
  Ciphertext Ct = Encrypt->encryptValues(Enc, X, Ctx.chainLength());
  std::vector<double> Ones(Ctx.slots(), 1.0);

  bool HitWall = false;
  for (int Round = 0; Round < 64 && !HitWall; ++Round) {
    auto Next = Eval->checkedMulPlain(Ct, Ones);
    if (Next.ok()) {
      Ct = Next.take();
      continue;
    }
    HitWall = true;
    EXPECT_EQ(Next.status().code(), ErrorCode::DepthExhausted)
        << Next.status().message();
  }
  ASSERT_TRUE(HitWall) << "mulPlain chain never exhausted the budget";

  // The last accepted ciphertext still holds the (unchanged) values.
  auto Got = Decrypt->decryptRealValues(Enc, Ct);
  for (size_t I = 0; I < 8; ++I)
    EXPECT_NEAR(Got[I], X[I], 1e-2) << "slot " << I;
}

/// Rescaling restores the invariant: a chain that rescales after every
/// multiply runs to the bottom of the modulus chain and fails only with
/// the existing "1 active prime" depth diagnostic, never the budget one.
TEST_F(NoiseBudgetFixture, RescaledChainNeverTripsTheBudgetGuard) {
  auto X = randomReals(Ctx.slots(), 3);
  Ciphertext Ct = Encrypt->encryptValues(Enc, X, Ctx.chainLength());
  while (Ct.numQ() >= 2) {
    auto Prod = Eval->checkedMul(Ct, Ct);
    ASSERT_TRUE(Prod.ok()) << "budget guard fired on a well-managed chain "
                              "at numQ="
                           << Ct.numQ() << ": " << Prod.status().message();
    auto Scaled = Eval->checkedRescale(*Prod);
    ASSERT_TRUE(Scaled.ok()) << Scaled.status().message();
    Ct = Scaled.take();
  }
  // At the base modulus the next multiply fails for depth, with the
  // pre-existing diagnostic.
  auto Bottom = Eval->checkedMul(Ct, Ct);
  ASSERT_FALSE(Bottom.ok());
  EXPECT_EQ(Bottom.status().code(), ErrorCode::DepthExhausted);
}

} // namespace
