//===----------------------------------------------------------------------===//
// Evaluator tests: every CKKS-IR operation (paper Table 6) checked against
// the plaintext semantics, including multiplication + relinearization +
// rescale chains, rotations through key switching, and scale management.
//===----------------------------------------------------------------------===//

#include "fhe/Evaluator.h"

#include "fhe/Encryptor.h"
#include "support/Rng.h"
#include "support/Telemetry.h"

#include "TestKeys.h"

#include <gtest/gtest.h>

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
    X = R.uniformReal(-1.0, 1.0);
  return V;
}

class EvaluatorFixture : public ::testing::Test {
protected:
  EvaluatorFixture()
      : Ctx(testParams()), Enc(Ctx), Gen(Ctx), Cache(Ctx, Gen),
        Pub(Gen.makePublicKey()) {
    makeTestKeys(Gen, Keys, Cache, {1, 2, 3, 7, -1}, /*NeedRelin=*/true,
                 /*NeedConjugate=*/true);
    Eval = std::make_unique<Evaluator>(Ctx, Enc, Keys, Cache);
    Encrypt = std::make_unique<Encryptor>(Ctx, Pub);
    Decrypt = std::make_unique<Decryptor>(Ctx, Gen.secretKey());
  }

  std::vector<double> decryptReal(const Ciphertext &Ct) {
    return Decrypt->decryptRealValues(Enc, Ct);
  }

  Ciphertext encrypt(const std::vector<double> &V,
                     size_t NumQ = static_cast<size_t>(-1)) {
    if (NumQ == static_cast<size_t>(-1))
      NumQ = Ctx.chainLength();
    return Encrypt->encryptValues(Enc, V, NumQ);
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

TEST_F(EvaluatorFixture, AddSub) {
  auto X = randomReals(Ctx.slots(), 1);
  auto Y = randomReals(Ctx.slots(), 2);
  Ciphertext CX = encrypt(X), CY = encrypt(Y);
  auto Sum = decryptReal(Eval->add(CX, CY));
  auto Diff = decryptReal(Eval->sub(CX, CY));
  for (size_t I = 0; I < X.size(); ++I) {
    EXPECT_NEAR(Sum[I], X[I] + Y[I], 1e-6);
    EXPECT_NEAR(Diff[I], X[I] - Y[I], 1e-6);
  }
}

TEST_F(EvaluatorFixture, Negate) {
  auto X = randomReals(Ctx.slots(), 3);
  auto Neg = decryptReal(Eval->negate(encrypt(X)));
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Neg[I], -X[I], 1e-6);
}

TEST_F(EvaluatorFixture, AddPlain) {
  auto X = randomReals(Ctx.slots(), 4);
  auto Y = randomReals(Ctx.slots(), 5);
  Ciphertext CX = encrypt(X);
  Plaintext PY = Eval->encodeForAdd(CX, Y);
  auto Sum = decryptReal(Eval->addPlain(CX, PY));
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Sum[I], X[I] + Y[I], 1e-6);
}

TEST_F(EvaluatorFixture, AddConst) {
  auto X = randomReals(Ctx.slots(), 6);
  Ciphertext CX = encrypt(X);
  Eval->addConstInPlace(CX, 0.5);
  auto Out = decryptReal(CX);
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], X[I] + 0.5, 1e-6);
}

TEST_F(EvaluatorFixture, MulPlainWithRescalePreservesScale) {
  auto X = randomReals(Ctx.slots(), 7);
  auto Y = randomReals(Ctx.slots(), 8);
  Ciphertext CX = encrypt(X);
  double ScaleBefore = CX.Scale;
  Plaintext PY = Eval->encodeForMul(CX, Y);
  Ciphertext Prod = Eval->mulPlain(CX, PY);
  Eval->rescaleInPlace(Prod);
  EXPECT_DOUBLE_EQ(Prod.Scale, ScaleBefore);
  EXPECT_EQ(Prod.numQ(), CX.numQ() - 1);
  auto Out = decryptReal(Prod);
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], X[I] * Y[I], 1e-5);
}

TEST_F(EvaluatorFixture, MulCipherRelinRescale) {
  auto X = randomReals(Ctx.slots(), 9);
  auto Y = randomReals(Ctx.slots(), 10);
  Ciphertext CX = encrypt(X), CY = encrypt(Y);
  Ciphertext Prod = Eval->mul(CX, CY);
  EXPECT_EQ(Prod.size(), 2u);
  Eval->rescaleInPlace(Prod);
  auto Out = decryptReal(Prod);
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], X[I] * Y[I], 1e-4);
}

TEST_F(EvaluatorFixture, Cipher3DecryptsBeforeRelin) {
  auto X = randomReals(Ctx.slots(), 11);
  auto Y = randomReals(Ctx.slots(), 12);
  Ciphertext Prod = Eval->mulNoRelin(encrypt(X), encrypt(Y));
  EXPECT_EQ(Prod.size(), 3u); // the paper's Cipher3
  auto Out = decryptReal(Prod);
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], X[I] * Y[I], 1e-4);
}

TEST_F(EvaluatorFixture, MultiplicativeDepthChain) {
  // Square repeatedly down the modulus chain: x^(2^depth).
  std::vector<double> X(Ctx.slots(), 0.9);
  Ciphertext Ct = encrypt(X);
  double Expected = 0.9;
  for (int Depth = 0; Depth < 4; ++Depth) {
    Ct = Eval->mul(Ct, Ct);
    Eval->rescaleInPlace(Ct);
    Expected *= Expected;
  }
  auto Out = decryptReal(Ct);
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], Expected, 1e-3);
}

TEST_F(EvaluatorFixture, MulScalar) {
  auto X = randomReals(Ctx.slots(), 13);
  Ciphertext CX = encrypt(X);
  Ciphertext Scaled = Eval->mulScalar(CX, -2.5);
  Eval->rescaleInPlace(Scaled);
  auto Out = decryptReal(Scaled);
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], -2.5 * X[I], 1e-5);
}

TEST_F(EvaluatorFixture, MulInteger) {
  auto X = randomReals(Ctx.slots(), 14);
  Ciphertext CX = encrypt(X);
  Eval->mulIntegerInPlace(CX, -3);
  auto Out = decryptReal(CX);
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], -3 * X[I], 1e-5);
}

TEST_F(EvaluatorFixture, MulByI) {
  auto Values = randomReals(Ctx.slots(), 15);
  Ciphertext Ct = encrypt(Values);
  Ciphertext Rotated = Eval->mulByI(Ct);
  auto Out = Decrypt->decryptValues(Enc, Rotated);
  for (size_t I = 0; I < Values.size(); ++I) {
    EXPECT_NEAR(Out[I].real(), 0.0, 1e-6);
    EXPECT_NEAR(Out[I].imag(), Values[I], 1e-6);
  }
}

TEST_F(EvaluatorFixture, RotationMatchesCyclicShift) {
  auto X = randomReals(Ctx.slots(), 16);
  Ciphertext CX = encrypt(X);
  for (int64_t Step : {1, 2, 7}) {
    auto Out = decryptReal(Eval->rotate(CX, Step));
    for (size_t I = 0; I < X.size(); ++I)
      EXPECT_NEAR(Out[I], X[(I + Step) % Ctx.slots()], 1e-5)
          << "step " << Step;
  }
}

TEST_F(EvaluatorFixture, NegativeRotation) {
  auto X = randomReals(Ctx.slots(), 17);
  auto Out = decryptReal(Eval->rotate(encrypt(X), -1));
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], X[(I + Ctx.slots() - 1) % Ctx.slots()], 1e-5);
}

TEST_F(EvaluatorFixture, RotateByZeroIsIdentity) {
  auto X = randomReals(Ctx.slots(), 18);
  auto Out = decryptReal(Eval->rotate(encrypt(X), 0));
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], X[I], 1e-6);
}

TEST_F(EvaluatorFixture, Conjugate) {
  Rng R(19);
  std::vector<std::complex<double>> Values(Ctx.slots());
  for (auto &V : Values)
    V = {R.uniformReal(-1, 1), R.uniformReal(-1, 1)};
  Plaintext P = Enc.encode(Values, Ctx.scale(), Ctx.chainLength());
  Ciphertext Ct = Encrypt->encrypt(P);
  auto Out = Decrypt->decryptValues(Enc, Eval->conjugate(Ct));
  for (size_t I = 0; I < Values.size(); ++I)
    EXPECT_NEAR(std::abs(Out[I] - std::conj(Values[I])), 0.0, 1e-5);
}

TEST_F(EvaluatorFixture, ModSwitchPreservesMessage) {
  auto X = randomReals(Ctx.slots(), 20);
  Ciphertext CX = encrypt(X);
  Eval->modSwitchTo(CX, 2);
  EXPECT_EQ(CX.numQ(), 2u);
  auto Out = decryptReal(CX);
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], X[I], 1e-6);
}

TEST_F(EvaluatorFixture, UpscalePreservesValues) {
  auto X = randomReals(Ctx.slots(), 21);
  Ciphertext CX = encrypt(X);
  double OldScale = CX.Scale;
  Eval->upscaleInPlace(CX, 5);
  EXPECT_DOUBLE_EQ(CX.Scale, OldScale * 32);
  auto Out = decryptReal(CX);
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], X[I], 1e-6);
}

TEST_F(EvaluatorFixture, DownscaleHitsTarget) {
  auto X = randomReals(Ctx.slots(), 22);
  Ciphertext CX = encrypt(X);
  Eval->upscaleInPlace(CX, 6); // push the scale off the waterline
  double Target = Ctx.scale();
  Eval->downscaleInPlace(CX, Target);
  EXPECT_TRUE(scalesClose(CX.Scale, Target));
  auto Out = decryptReal(CX);
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], X[I], 1e-5);
}

TEST_F(EvaluatorFixture, MatchForAddAlignsLevels) {
  auto X = randomReals(Ctx.slots(), 23);
  auto Y = randomReals(Ctx.slots(), 24);
  Ciphertext CX = encrypt(X);
  Ciphertext CY = encrypt(Y, 3);
  Eval->matchForAdd(CX, CY);
  EXPECT_EQ(CX.numQ(), CY.numQ());
  auto Out = decryptReal(Eval->add(CX, CY));
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], X[I] + Y[I], 1e-6);
}

TEST_F(EvaluatorFixture, RotateThenMulAccumulate) {
  // The inner pattern of the VECTOR-IR gemv lowering (paper Listing 2):
  // sum of rotate-multiply terms.
  auto X = randomReals(Ctx.slots(), 25);
  auto W0 = randomReals(Ctx.slots(), 26);
  auto W1 = randomReals(Ctx.slots(), 27);
  Ciphertext CX = encrypt(X);

  Ciphertext R0 = Eval->mulPlain(CX, Eval->encodeForMul(CX, W0));
  Ciphertext CX1 = Eval->rotate(CX, 1);
  Ciphertext R1 = Eval->mulPlain(CX1, Eval->encodeForMul(CX1, W1));
  Eval->addInPlace(R0, R1);
  Eval->rescaleInPlace(R0);

  auto Out = decryptReal(R0);
  size_t S = Ctx.slots();
  for (size_t I = 0; I < S; ++I)
    EXPECT_NEAR(Out[I], X[I] * W0[I] + X[(I + 1) % S] * W1[I], 1e-4);
}

TEST_F(EvaluatorFixture, CountersTrackOperations) {
  using telemetry::Counter;
  telemetry::Telemetry &Tel = telemetry::Telemetry::instance();
  auto X = randomReals(Ctx.slots(), 28);
  Ciphertext CX = encrypt(X);
  Tel.setEnabled(true);
  telemetry::CounterSnapshot Before = Tel.counters();
  Ciphertext P = Eval->mul(CX, CX);
  Eval->rescaleInPlace(P);
  Eval->rotate(P, 1);
  telemetry::CounterSnapshot C = Tel.counters().deltaSince(Before);
  Tel.setEnabled(false);
  EXPECT_EQ(C.get(Counter::CtCtMul), 1u);
  EXPECT_EQ(C.get(Counter::Relinearize), 1u);
  EXPECT_EQ(C.get(Counter::Rescale), 1u);
  EXPECT_EQ(C.get(Counter::Rotate), 1u);
  EXPECT_EQ(C.get(Counter::KeySwitch), 2u); // one relin, one rotation
}

} // namespace
