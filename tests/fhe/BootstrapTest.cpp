//===----------------------------------------------------------------------===//
// Bootstrapping tests: a full refresh round trip must preserve the
// message, lift the level, and respect the minimal-level target the
// compiler's bootstrap placement relies on (paper Sec. 4.4).
//===----------------------------------------------------------------------===//

#include "fhe/Bootstrapper.h"

#include "fhe/Encryptor.h"
#include "support/FaultInjector.h"
#include "support/Rng.h"

#include "TestKeys.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace ace;
using namespace ace::fhe;

namespace {

/// Toy bootstrappable parameters: insecure but structurally faithful.
CkksParams bootParams(size_t Slots) {
  CkksParams P;
  P.RingDegree = 1024;
  P.Slots = Slots;
  // A large scale keeps the relative base noise eps ~ 2^-39 small: the
  // EvalMod pipeline amplifies value noise by ~(2 pi span K)^2 (the
  // double-angle squarings quadruple errors per step), so the final
  // precision is roughly (2 pi span K)^2 * eps.
  P.LogScale = 48;
  P.LogFirstModulus = 57;
  // Depth budget: the trace after ModRaise adds log2(span) double-angle
  // levels, so small slot counts (large span) need a longer chain.
  P.NumRescaleModuli = 24;
  P.LogSpecialModulus = 60;
  P.SparseSecret = true;
  P.Seed = 31;
  return P;
}

class BootstrapFixture : public ::testing::TestWithParam<size_t> {
protected:
  void build(size_t Slots) {
    Ctx = std::make_unique<Context>(bootParams(Slots));
    Enc = std::make_unique<Encoder>(*Ctx);
    Gen = std::make_unique<KeyGenerator>(*Ctx);
    Pub = Gen->makePublicKey();
    Cache = std::make_unique<RotationKeyCache>(*Ctx, *Gen);
    Eval = std::make_unique<Evaluator>(*Ctx, *Enc, Keys, *Cache);
    Boot = std::make_unique<Bootstrapper>(*Eval);
    makeTestKeys(*Gen, Keys, *Cache, Boot->requiredRotations(),
                 /*NeedRelin=*/true, Boot->needsConjugation(),
                 Boot->requiredGaloisElements());
    Encrypt = std::make_unique<Encryptor>(*Ctx, Pub);
    Decrypt = std::make_unique<Decryptor>(*Ctx, Gen->secretKey());
  }

  std::unique_ptr<Context> Ctx;
  std::unique_ptr<Encoder> Enc;
  std::unique_ptr<KeyGenerator> Gen;
  std::unique_ptr<RotationKeyCache> Cache;
  PublicKey Pub;
  EvalKeys Keys;
  std::unique_ptr<Evaluator> Eval;
  std::unique_ptr<Bootstrapper> Boot;
  std::unique_ptr<Encryptor> Encrypt;
  std::unique_ptr<Decryptor> Decrypt;
};

TEST_P(BootstrapFixture, RoundTripPreservesMessage) {
  build(GetParam());
  Rng R(3);
  std::vector<double> X(Ctx->slots());
  for (auto &V : X)
    V = R.uniformReal(-0.5, 0.5);

  // Encrypt at the bottom of the chain, as after a long computation.
  Ciphertext Ct = Encrypt->encryptValues(*Enc, X, 1);
  ASSERT_EQ(Ct.numQ(), 1u);

  size_t Target = 3;
  Ciphertext Refreshed = Boot->bootstrap(Ct, Target);
  EXPECT_EQ(Refreshed.numQ(), Target);

  auto Out = Decrypt->decryptRealValues(*Enc, Refreshed);
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], X[I], 2e-2) << "slot " << I;
}

INSTANTIATE_TEST_SUITE_P(SlotCounts, BootstrapFixture,
                         ::testing::Values(16, 32, 64));

TEST_F(BootstrapFixture, RefreshedCiphertextSupportsFurtherMuls) {
  build(16);
  std::vector<double> X(Ctx->slots(), 0.4);
  Ciphertext Ct = Encrypt->encryptValues(*Enc, X, 1);
  Ciphertext Refreshed = Boot->bootstrap(Ct, 3);

  // Square twice on the refreshed ciphertext: 0.4^4 = 0.0256.
  Ciphertext Sq = Eval->mul(Refreshed, Refreshed);
  Eval->rescaleInPlace(Sq);
  Ciphertext Quad = Eval->mul(Sq, Sq);
  Eval->rescaleInPlace(Quad);
  auto Out = Decrypt->decryptRealValues(*Enc, Quad);
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], 0.0256, 2e-2);
}

TEST_F(BootstrapFixture, MinimalLevelTargetConsumesFewerPrimes) {
  build(16);
  // The whole point of minimal-level placement: a lower target leaves the
  // pipeline working over fewer primes. Verify both targets function.
  std::vector<double> X(Ctx->slots(), 0.25);
  Ciphertext Ct = Encrypt->encryptValues(*Enc, X, 1);
  Ciphertext Low = Boot->bootstrap(Ct, 2);
  EXPECT_EQ(Low.numQ(), 2u);
  size_t MaxTarget = Ctx->chainLength() - Boot->depthCost();
  Ciphertext High = Boot->bootstrap(Ct, MaxTarget);
  EXPECT_EQ(High.numQ(), MaxTarget);
  auto OutLow = Decrypt->decryptRealValues(*Enc, Low);
  auto OutHigh = Decrypt->decryptRealValues(*Enc, High);
  for (size_t I = 0; I < X.size(); ++I) {
    EXPECT_NEAR(OutLow[I], 0.25, 2e-2);
    EXPECT_NEAR(OutHigh[I], 0.25, 2e-2);
  }
}

TEST_F(BootstrapFixture, RequiredRotationSetIsMinimal) {
  build(64);
  auto Steps = Boot->requiredRotations();
  // BSGS over 64 slots: 7 baby steps + 7 giant steps.
  EXPECT_EQ(Steps.size(), 14u);
  for (int64_t S : Steps) {
    EXPECT_GT(S, 0);
    EXPECT_LT(S, 64);
  }
}

// depthCost() is the compiler's estimate at the context's own geometry,
// and bootstrap() asserts that every refresh consumes exactly that: the
// Chebyshev series 6 levels, the double angles 2 + log2(span), and
// CoeffToSlot, its downscale, SlotToCoeff and the final downscale one
// each.
TEST_F(BootstrapFixture, DepthCostIsStable) {
  const std::pair<size_t, int> Expected[] = {{16, 17}, {32, 16}, {64, 15}};
  for (auto [Slots, Depth] : Expected) {
    SCOPED_TRACE(std::to_string(Slots) + " slots");
    build(Slots);
    EXPECT_EQ(Boot->depthCost(), Depth);
    const CkksParams &P = Ctx->params();
    EXPECT_EQ(Boot->depthCost(),
              estimateBootstrapDepth(P.RingDegree, P.Slots, Boot->config(),
                                     P.LogScale, P.LogFirstModulus));
  }
}

// The compiled MLP's bootstrapping geometry: N = 128, 64 slots,
// Delta = 2^45, q_0 = 2^55, refreshed to 13 primes on a chain just long
// enough. One refresh of a uniform [-1, 1] vector must keep 11 bits, and
// each of 8 chained refreshes 9.7. Both bounds hold for the arcsine-
// corrected pipeline this replaced, which measured 2.1-3.3e-4 after one
// refresh and at most 7.6e-4 along the chain over ten key and input
// seeds (2.2-3.3e-4 and at most 9.7e-4 without the correction). The
// imaginary part is printed, not bounded: no step removes it yet, so it
// grows by about 5e-4 per refresh.
TEST(BootstrapPrecisionTest, ChainedRefreshesAtTheMlpGeometry) {
  constexpr size_t Target = 13;
  constexpr double OneRefreshBound = 5e-4;
  constexpr double ChainedRefreshBound = 1.2e-3;
  CkksParams P;
  P.RingDegree = 128;
  P.Slots = 64;
  P.LogScale = 45;
  P.LogFirstModulus = 55;
  P.LogSpecialModulus = 60;
  P.SparseSecret = true;
  P.Seed = 3;
  P.NumRescaleModuli =
      static_cast<int>(Target) - 1 +
      estimateBootstrapDepth(P.RingDegree, P.Slots, BootstrapConfig{},
                             P.LogScale, P.LogFirstModulus);
  Context Ctx(P);
  Encoder Enc(Ctx);
  KeyGenerator Gen(Ctx);
  PublicKey Pub = Gen.makePublicKey();
  RotationKeyCache Cache(Ctx, Gen);
  EvalKeys Keys;
  Evaluator Eval(Ctx, Enc, Keys, Cache);
  Bootstrapper Boot(Eval);
  // CoeffToSlot, its downscale, 6 Chebyshev levels, 2 double angles,
  // SlotToCoeff and the final downscale.
  EXPECT_EQ(Boot.depthCost(), 12);
  makeTestKeys(Gen, Keys, Cache, Boot.requiredRotations(),
               /*NeedRelin=*/true, Boot.needsConjugation(),
               Boot.requiredGaloisElements());
  Encryptor Encrypt(Ctx, Pub);
  Decryptor Decrypt(Ctx, Gen.secretKey());

  Rng R(17);
  std::vector<double> X(P.Slots);
  for (auto &V : X)
    V = R.uniformReal(-1.0, 1.0);
  Ciphertext Ct = Encrypt.encryptValues(Enc, X, 1);
  for (int Step = 1; Step <= 8; ++Step) {
    Ct = Boot.bootstrap(Ct, Target);
    ASSERT_EQ(Ct.numQ(), Target);
    auto Out = Decrypt.decryptValues(Enc, Ct);
    double MaxReal = 0, MaxImag = 0;
    for (size_t I = 0; I < X.size(); ++I) {
      MaxReal = std::max(MaxReal, std::fabs(Out[I].real() - X[I]));
      MaxImag = std::max(MaxImag, std::fabs(Out[I].imag()));
    }
    std::printf("refresh %d: max real error %.3g, max |Im| %.3g\n", Step,
                MaxReal, MaxImag);
    EXPECT_LT(MaxReal, Step == 1 ? OneRefreshBound : ChainedRefreshBound)
        << "refresh " << Step;
  }
}

/// Lazy (cache-backed) sessions bootstrap through the checked tier:
/// checkedBootstrap materializes every rotation/Galois key up front, so
/// a governor refusal comes back in-band as ResourceExhausted BEFORE the
/// unchecked hot tier runs (where a lazy-keygen failure is a fatal
/// abort), and once the keys materialize the refresh works normally.
TEST_F(BootstrapFixture, LazyKeyBudgetRefusalShedsInBandBeforeBootstrap) {
  build(16);
  // Cache-backed twin of the fixture's evaluator: relin + conjugation
  // stay eager, every rotation/Galois key is declared only and
  // materializes through the governor on first use.
  RotationKeyCache LazyCache(*Ctx, *Gen);
  EvalKeys LazyKeys;
  makeTestKeys(*Gen, LazyKeys, LazyCache, {}, /*NeedRelin=*/true,
               /*NeedConjugate=*/true);
  Evaluator LazyEval(*Ctx, *Enc, LazyKeys, LazyCache);
  Bootstrapper LazyBoot(LazyEval);
  for (uint64_t G : LazyBoot.requiredGaloisElements())
    LazyCache.declareGalois(G);
  for (int64_t S : LazyBoot.requiredRotations())
    LazyCache.declareRotation(S);

  std::vector<double> X(Ctx->slots(), 0.3);
  Ciphertext Ct = Encrypt->encryptValues(*Enc, X, 1);

  FaultInjector::instance().arm(FaultKind::BudgetExceeded, /*Count=*/1);
  auto Refused = LazyBoot.checkedBootstrap(Ct, 3);
  FaultInjector::instance().reset();
  ASSERT_FALSE(Refused.ok());
  EXPECT_EQ(Refused.status().code(), ErrorCode::ResourceExhausted);

  auto Ok = LazyBoot.checkedBootstrap(Ct, 3);
  ASSERT_TRUE(Ok.ok()) << Ok.status().message();
  EXPECT_EQ(Ok->numQ(), 3u);
  auto Out = Decrypt->decryptRealValues(*Enc, *Ok);
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], 0.3, 2e-2);
}

} // namespace
