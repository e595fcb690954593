//===----------------------------------------------------------------------===//
// Level-aware key truncation tests (the Figure 7 memory mechanism): a
// rotation key truncated to level l works for every ciphertext at or
// below l, shrinks in both its digit count and its moduli, and matches
// the full key's results.
//===----------------------------------------------------------------------===//

#include "fhe/Encryptor.h"
#include "fhe/Evaluator.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace ace;
using namespace ace::fhe;

namespace {

struct Fixture : ::testing::Test {
  Fixture() {
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

  std::unique_ptr<Context> Ctx;
  std::unique_ptr<Encoder> Enc;
  std::unique_ptr<KeyGenerator> Gen;
  std::unique_ptr<RotationKeyCache> Cache;
  PublicKey Pub;
  EvalKeys Keys;
  std::unique_ptr<Evaluator> Eval;
  std::unique_ptr<Encryptor> Encrypt;
  std::unique_ptr<Decryptor> Decrypt;
};

TEST_F(Fixture, TruncatedKeyShrinksQuadratically) {
  // The 12-prime chain splits into digits of 4 primes under 4 special
  // primes (keySwitchShape); a key holds ceil(l/4) pairs over l + 4
  // moduli, so truncation still shrinks both factors.
  ASSERT_EQ(Ctx->keySwitch().DigitSize, 4u);
  ASSERT_EQ(Ctx->numSpecial(), 4u);
  SwitchKey Full = Gen->makeRotationKey(1);
  SwitchKey Half = Gen->makeRotationKey(1, /*MaxNumQ=*/6);
  EXPECT_EQ(Full.Parts.size(), 3u);
  EXPECT_EQ(Half.Parts.size(), 2u);
  size_t LimbBytes = Ctx->degree() * sizeof(uint64_t);
  // 3 digits over 12 + 4 moduli vs 2 digits over 6 + 4 moduli.
  EXPECT_EQ(Full.byteSize(), 3 * 2 * (12 + 4) * LimbBytes);
  EXPECT_EQ(Half.byteSize(), 2 * 2 * (6 + 4) * LimbBytes);
  EXPECT_EQ(Full.byteSize(), Ctx->switchKeyBytes(12));
  EXPECT_EQ(Half.byteSize(), Ctx->switchKeyBytes(6));
}

TEST_F(Fixture, TruncatedKeyRotatesCorrectlyBelowItsLevel) {
  Cache->declareRotation(5, /*MaxNumQ=*/4);

  Rng R(3);
  std::vector<double> X(Ctx->slots());
  for (auto &V : X)
    V = R.uniformReal(-1, 1);
  for (size_t NumQ : {size_t(2), size_t(3), size_t(4)}) {
    Ciphertext Ct = Encrypt->encryptValues(*Enc, X, NumQ);
    auto Out = Decrypt->decryptRealValues(*Enc, Eval->rotate(Ct, 5));
    for (size_t I = 0; I < X.size(); ++I)
      EXPECT_NEAR(Out[I], X[(I + 5) % Ctx->slots()], 1e-5)
          << "numQ " << NumQ;
  }
}

TEST_F(Fixture, TruncatedAndFullKeysAgree) {
  RotationKeyCache FullCache(*Ctx, *Gen);
  Evaluator FullEval(*Ctx, *Enc, Keys, FullCache);
  ASSERT_TRUE(FullCache.get(FullCache.declareRotation(2)).ok());
  ASSERT_TRUE(Cache->get(Cache->declareRotation(2, /*MaxNumQ=*/3)).ok());

  Rng R(5);
  std::vector<double> X(Ctx->slots());
  for (auto &V : X)
    V = R.uniformReal(-1, 1);
  Ciphertext Ct = Encrypt->encryptValues(*Enc, X, 3);
  auto A = Decrypt->decryptRealValues(*Enc, Eval->rotate(Ct, 2));
  auto B = Decrypt->decryptRealValues(*Enc, FullEval.rotate(Ct, 2));
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(A[I], B[I], 1e-6);
}

TEST_F(Fixture, TruncateKeyHelperIsIdempotentAtFullLength) {
  SwitchKey Full = Gen->makeRotationKey(1);
  SwitchKey Same = KeyGenerator::truncateKey(Full, 0);
  EXPECT_EQ(Same.byteSize(), Full.byteSize());
  SwitchKey Same2 = KeyGenerator::truncateKey(Full, 99);
  EXPECT_EQ(Same2.byteSize(), Full.byteSize());
}

} // namespace
