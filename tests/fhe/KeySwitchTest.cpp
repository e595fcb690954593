//===----------------------------------------------------------------------===//
// Hybrid key switching at the MLP's geometry (N = 128, the 37-prime chain
// the compiler selects for the contract MLP): at every level, relinearize,
// rotate and conjugate decrypt within a stated bound of the cleartext
// result and the error stays flat across levels, hoisted batches equal
// sequential rotations bit for bit, and a key switch decomposes into
// ceil(l / alpha) digits. The shape tests pin that key generation, the
// key cache's governor admission and the checked tier all derive from
// the one Context shape function.
//===----------------------------------------------------------------------===//

#include "fhe/Encryptor.h"
#include "fhe/Evaluator.h"
#include "support/ResourceGovernor.h"
#include "support/Rng.h"
#include "support/Telemetry.h"

#include "TestKeys.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <memory>

using namespace ace;
using namespace ace::fhe;
using telemetry::Counter;
using telemetry::CounterSnapshot;
using telemetry::Telemetry;

namespace {

/// The contract MLP's parameters: q_0 of 55 bits, 45-bit rescale primes,
/// 60-bit special primes, N = 128 with 64 slots.
CkksParams mlpParams(int NumRescaleModuli) {
  CkksParams P;
  P.RingDegree = 128;
  P.Slots = 64;
  P.LogScale = 45;
  P.LogFirstModulus = 55;
  P.NumRescaleModuli = NumRescaleModuli;
  P.LogSpecialModulus = 60;
  P.Seed = 29;
  return P;
}

std::vector<double> randomSlots(Rng &R, size_t Slots) {
  std::vector<double> X(Slots);
  for (auto &V : X)
    V = R.uniformReal(-1.0, 1.0);
  return X;
}

double maxError(const std::vector<double> &Got,
                const std::vector<double> &Want) {
  double Err = 0.0;
  for (size_t I = 0; I < Want.size(); ++I)
    Err = std::max(Err, std::fabs(Got[I] - Want[I]));
  return Err;
}

bool bitIdentical(const Ciphertext &A, const Ciphertext &B) {
  if (A.size() != B.size() || A.Scale != B.Scale || A.numQ() != B.numQ())
    return false;
  for (size_t P = 0; P < A.size(); ++P) {
    const RnsPoly &PA = A.Polys[P], &PB = B.Polys[P];
    if (PA.numComponents() != PB.numComponents())
      return false;
    size_t N = PA.context().degree();
    for (size_t C = 0; C < PA.numComponents(); ++C)
      if (std::memcmp(PA.component(C), PB.component(C),
                      N * sizeof(uint64_t)) != 0)
        return false;
  }
  return true;
}

TEST(KeySwitchShapeTest, DigitRuleFollowsTheChain) {
  // At most three digits; a chain of <= 3 primes keeps one prime per
  // digit under one special prime.
  struct Row {
    int Rescale;
    size_t Alpha, Special;
  } Rows[] = {{0, 1, 1}, {2, 1, 1}, {3, 2, 2}, {11, 4, 4}, {36, 13, 10}};
  for (const Row &R : Rows) {
    KeySwitchShape S = keySwitchShape(mlpParams(R.Rescale));
    EXPECT_EQ(S.DigitSize, R.Alpha) << R.Rescale + 1 << " primes";
    EXPECT_EQ(S.NumSpecial, R.Special) << R.Rescale + 1 << " primes";
    size_t L = static_cast<size_t>(R.Rescale) + 1;
    EXPECT_LE(S.digits(L), 3u);
  }
}

/// For chains of 3, 12 and 37 primes and every truncation l: the key
/// cache's admission estimate equals the generated key's bytes (a budget
/// of exactly that much admits it), the key serves every level <= l, and
/// the checked rotate one level above returns KeyMissing.
TEST(KeySwitchShapeTest, EstimateMatchesKeyAndTruncationServesItsLevels) {
  ResourceGovernor &Gov = ResourceGovernor::instance();
  size_t SavedBudget = Gov.budgetBytes();
  for (int Rescale : {2, 11, 36}) {
    Context Ctx(mlpParams(Rescale));
    Encoder Enc(Ctx);
    KeyGenerator Gen(Ctx);
    PublicKey Pub = Gen.makePublicKey();
    Encryptor Encrypt(Ctx, Pub);
    Decryptor Decrypt(Ctx, Gen.secretKey());
    EvalKeys NoKeys;
    Rng R(static_cast<uint64_t>(Rescale));
    std::vector<double> X = randomSlots(R, Ctx.slots());
    std::vector<double> Want(X.size());
    for (size_t I = 0; I < X.size(); ++I)
      Want[I] = X[(I + 3) % X.size()];
    size_t L = Ctx.chainLength();
    for (size_t Trunc = 1; Trunc <= L; ++Trunc) {
      RotationKeyCache Cache(Ctx, Gen);
      Evaluator Eval(Ctx, Enc, NoKeys, Cache);
      uint64_t Galois = Cache.declareRotation(3, Trunc);
      size_t Estimate = Ctx.switchKeyBytes(Trunc);
      Gov.setBudgetBytes(Gov.stats().totalChargedBytes() + Estimate);
      auto Key = Cache.get(Galois);
      Gov.setBudgetBytes(SavedBudget);
      ASSERT_TRUE(Key.ok()) << L << " primes, truncation " << Trunc << ": "
                            << Key.status().message();
      EXPECT_EQ((*Key)->byteSize(), Estimate) << "truncation " << Trunc;
      EXPECT_EQ(Cache.stats().ResidentBytes, Estimate);
      EXPECT_EQ((*Key)->numQ(), Trunc);
      EXPECT_EQ((*Key)->Parts.size(), Ctx.keySwitch().digits(Trunc));
      *Key = nullptr;

      for (size_t NumQ = 1; NumQ <= Trunc; ++NumQ) {
        auto Out = Eval.checkedRotate(
            Encrypt.encryptValues(Enc, X, NumQ), 3);
        ASSERT_TRUE(Out.ok()) << "truncation " << Trunc << " at " << NumQ
                              << " primes: " << Out.status().message();
        EXPECT_LT(maxError(Decrypt.decryptRealValues(Enc, *Out), Want),
                  1e-7)
            << "truncation " << Trunc << " at " << NumQ << " primes";
      }
      if (Trunc < L) {
        auto Above = Eval.checkedRotate(
            Encrypt.encryptValues(Enc, X, Trunc + 1), 3);
        ASSERT_FALSE(Above.ok()) << "truncation " << Trunc;
        EXPECT_EQ(Above.status().code(), ErrorCode::KeyMissing);
        EXPECT_NE(Above.status().message().find("truncated to"),
                  std::string::npos)
            << Above.status().message();
      }
    }
  }
}

class KeySwitchTest : public ::testing::Test {
protected:
  KeySwitchTest()
      : Ctx(mlpParams(36)), Enc(Ctx), Gen(Ctx), Cache(Ctx, Gen),
        Pub(Gen.makePublicKey()), Encrypt(Ctx, Pub),
        Decrypt(Ctx, Gen.secretKey()) {
    makeTestKeys(Gen, Keys, Cache, {1, 5, -3}, /*NeedRelin=*/true,
                 /*NeedConjugate=*/true);
    Eval = std::make_unique<Evaluator>(Ctx, Enc, Keys, Cache);
  }
  void TearDown() override {
    Telemetry::instance().setEnabled(false);
    Telemetry::instance().clear();
  }

  /// Key-switch digits counted while running \p Fn.
  template <typename FnT> uint64_t digitsDuring(FnT &&Fn) {
    Telemetry::instance().setEnabled(true);
    CounterSnapshot Before = Telemetry::instance().counters();
    Fn();
    uint64_t Digits = Telemetry::instance()
                          .counters()
                          .deltaSince(Before)
                          .get(Counter::KeySwitchDigit);
    Telemetry::instance().setEnabled(false);
    return Digits;
  }

  Context Ctx;
  Encoder Enc;
  KeyGenerator Gen;
  RotationKeyCache Cache;
  PublicKey Pub;
  Encryptor Encrypt;
  Decryptor Decrypt;
  EvalKeys Keys;
  std::unique_ptr<Evaluator> Eval;
};

/// The stated bounds: at Delta = 2^45 a rotation or conjugation decrypts
/// within 2^-31 of the cleartext (measured at most 2^-34.3 at any level,
/// fresh-encryption noise included). A relinearized product of two
/// Delta = 2^25 inputs (so Delta^2 fits under q_0 at level 1) decrypts
/// within 1e-3 of x*y, and it differs from the unrelinearized Cipher3's
/// decryption - which is exactly the key-switch error - by under 2^-38
/// (measured at most 2^-43.2, about 2^-38 of a 2^45 scale; one prime per
/// digit measured 2^-42).
TEST_F(KeySwitchTest, EveryLevelDecryptsWithinBoundAndErrorStaysFlat) {
  Rng R(37);
  size_t L = Ctx.chainLength();
  ASSERT_EQ(L, 37u);
  ASSERT_EQ(Ctx.keySwitch().DigitSize, 13u);
  ASSERT_EQ(Ctx.numSpecial(), 10u);
  std::vector<double> RotErr(L + 1), ConjErr(L + 1), RelinErr(L + 1);
  for (size_t NumQ = 1; NumQ <= L; ++NumQ) {
    std::vector<double> X = randomSlots(R, Ctx.slots());
    std::vector<double> Y = randomSlots(R, Ctx.slots());
    Ciphertext Ct = Encrypt.encryptValues(Enc, X, NumQ);

    std::vector<double> Rotated(X.size());
    for (size_t I = 0; I < X.size(); ++I)
      Rotated[I] = X[(I + 5) % X.size()];
    RotErr[NumQ] =
        maxError(Decrypt.decryptRealValues(Enc, Eval->rotate(Ct, 5)),
                 Rotated);
    // Real inputs are their own conjugates.
    ConjErr[NumQ] =
        maxError(Decrypt.decryptRealValues(Enc, Eval->conjugate(Ct)), X);

    double SmallScale = std::ldexp(1.0, 25);
    Ciphertext A = Encrypt.encrypt(Enc.encodeReal(X, SmallScale, NumQ));
    Ciphertext B = Encrypt.encrypt(Enc.encodeReal(Y, SmallScale, NumQ));
    Ciphertext Product = Eval->mulNoRelin(A, B);
    Ciphertext Relin = Eval->relinearize(Product);
    std::vector<double> XY(X.size());
    for (size_t I = 0; I < X.size(); ++I)
      XY[I] = X[I] * Y[I];
    std::vector<double> Got = Decrypt.decryptRealValues(Enc, Relin);
    RelinErr[NumQ] = maxError(Got, Decrypt.decryptRealValues(Enc, Product));
    EXPECT_LT(maxError(Got, XY), 1e-3) << NumQ << " primes";

    EXPECT_LT(RotErr[NumQ], std::ldexp(1.0, -31)) << NumQ << " primes";
    EXPECT_LT(ConjErr[NumQ], std::ldexp(1.0, -31)) << NumQ << " primes";
    EXPECT_LT(RelinErr[NumQ], std::ldexp(1.0, -38)) << NumQ << " primes";
  }
  // Flat across levels: no multi-digit level's error exceeds four times
  // the worst error of the single-digit levels 1..13.
  auto WorstIn = [](const std::vector<double> &Err, size_t Lo, size_t Hi) {
    return *std::max_element(Err.begin() + Lo, Err.begin() + Hi + 1);
  };
  EXPECT_LE(WorstIn(RotErr, 14, L), 4 * WorstIn(RotErr, 1, 13));
  EXPECT_LE(WorstIn(ConjErr, 14, L), 4 * WorstIn(ConjErr, 1, 13));
  EXPECT_LE(WorstIn(RelinErr, 14, L), 4 * WorstIn(RelinErr, 1, 13));
}

TEST_F(KeySwitchTest, HoistedBatchesMatchSequentialRotationsAtEveryLevel) {
  Rng R(41);
  std::vector<int64_t> Steps = {1, 5, 0, -3, 5};
  for (size_t NumQ = 1; NumQ <= Ctx.chainLength(); ++NumQ) {
    Ciphertext Ct = Encrypt.encryptValues(Enc, randomSlots(R, Ctx.slots()),
                                          NumQ);
    std::vector<Ciphertext> Batch = Eval->rotateHoisted(Ct, Steps);
    ASSERT_EQ(Batch.size(), Steps.size());
    for (size_t I = 0; I < Steps.size(); ++I)
      EXPECT_TRUE(bitIdentical(Batch[I], Eval->rotate(Ct, Steps[I])))
          << "step " << Steps[I] << " at " << NumQ << " primes";
  }
}

TEST_F(KeySwitchTest, DigitCounterAdvancesByCeilLevelOverAlpha) {
  Rng R(43);
  size_t Alpha = Ctx.keySwitch().DigitSize;
  for (size_t NumQ = 1; NumQ <= Ctx.chainLength(); ++NumQ) {
    uint64_t Want = (NumQ + Alpha - 1) / Alpha;
    Ciphertext Ct = Encrypt.encryptValues(Enc, randomSlots(R, Ctx.slots()),
                                          NumQ);
    EXPECT_EQ(digitsDuring([&] { Eval->rotate(Ct, 1); }), Want)
        << NumQ << " primes";
    EXPECT_EQ(digitsDuring([&] { Eval->conjugate(Ct); }), Want)
        << NumQ << " primes";
    Ciphertext Product = Eval->mulNoRelin(Ct, Ct);
    EXPECT_EQ(digitsDuring([&] { Eval->relinearize(Product); }), Want)
        << NumQ << " primes";
    // A hoisted batch pays one decomposition for all its rotations.
    EXPECT_EQ(digitsDuring([&] { Eval->rotateHoisted(Ct, {1, 5, -3}); }),
              Want)
        << NumQ << " primes";
  }
}

} // namespace
