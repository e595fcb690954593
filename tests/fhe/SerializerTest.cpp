//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
//
// Round-trip and strictness tests for the hardened wire format
// (docs/serialization.md): every object type must round-trip
// bit-identically through both the buffer and stream paths, every
// malformed-input class must fail with the documented error code, and a
// loaded object must be indistinguishable from the original in actual
// FHE use (decrypting to the same values).
//
//===----------------------------------------------------------------------===//

#include "fhe/Encoder.h"
#include "fhe/Encryptor.h"
#include "fhe/Evaluator.h"
#include "fhe/Serializer.h"
#include "support/Crc32c.h"
#include "support/Telemetry.h"

#include "TestKeys.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace ace;
using namespace ace::fhe;

namespace {

class SerializerTest : public ::testing::Test {
protected:
  SerializerTest() {
    CkksParams P;
    P.RingDegree = 64;
    P.Slots = 16;
    P.LogScale = 30;
    P.LogFirstModulus = 40;
    P.NumRescaleModuli = 2;
    P.LogSpecialModulus = 45;
    P.Seed = 11;
    Ctx = std::make_unique<Context>(P);
    Enc = std::make_unique<Encoder>(*Ctx);
    Gen = std::make_unique<KeyGenerator>(*Ctx);
    Pub = Gen->makePublicKey();
    Encrypt = std::make_unique<Encryptor>(*Ctx, Pub);
  }

  std::unique_ptr<Context> Ctx;
  std::unique_ptr<Encoder> Enc;
  std::unique_ptr<KeyGenerator> Gen;
  PublicKey Pub;
  std::unique_ptr<Encryptor> Encrypt;
};

/// Round-trips \p Obj through a buffer and asserts the reloaded object
/// re-serializes to the identical bytes (the strongest equality the wire
/// format itself can express).
template <typename T, typename LoadFn>
void expectBitIdenticalRoundTrip(const T &Obj, LoadFn Load) {
  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(wire::save(Obj, Bytes).ok());
  auto Reloaded = Load(Bytes.data(), Bytes.size());
  ASSERT_TRUE(Reloaded.ok()) << Reloaded.status().message();
  std::vector<uint8_t> Again;
  ASSERT_TRUE(wire::save(*Reloaded, Again).ok());
  EXPECT_EQ(Bytes, Again);
}

TEST_F(SerializerTest, ParamsRoundTrip) {
  expectBitIdenticalRoundTrip(Ctx->params(),
                              [](const uint8_t *D, size_t N) {
                                return wire::loadParams(D, N);
                              });
  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(wire::save(Ctx->params(), Bytes).ok());
  auto P = wire::loadParams(Bytes.data(), Bytes.size());
  ASSERT_TRUE(P.ok());
  EXPECT_EQ(P->RingDegree, Ctx->params().RingDegree);
  EXPECT_EQ(P->Slots, Ctx->params().Slots);
  EXPECT_EQ(P->LogScale, Ctx->params().LogScale);
  EXPECT_EQ(P->NumRescaleModuli, Ctx->params().NumRescaleModuli);
  EXPECT_EQ(P->Seed, Ctx->params().Seed);
}

TEST_F(SerializerTest, PlaintextRoundTrip) {
  Plaintext Pt = Enc->encodeReal({1.5, -2.25, 0.125}, Ctx->scale(), 2);
  expectBitIdenticalRoundTrip(Pt, [&](const uint8_t *D, size_t N) {
    return wire::loadPlaintext(*Ctx, D, N);
  });
}

TEST_F(SerializerTest, CiphertextRoundTripDecryptsIdentically) {
  std::vector<double> Values = {0.5, -1.0, 2.5, 0.0625};
  Ciphertext Ct =
      Encrypt->encryptValues(*Enc, Values, Ctx->chainLength());
  expectBitIdenticalRoundTrip(Ct, [&](const uint8_t *D, size_t N) {
    return wire::loadCiphertext(*Ctx, D, N);
  });

  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(wire::save(Ct, Bytes).ok());
  auto Reloaded = wire::loadCiphertext(*Ctx, Bytes.data(), Bytes.size());
  ASSERT_TRUE(Reloaded.ok());
  Decryptor Dec(*Ctx, Gen->secretKey());
  auto Direct = Dec.decryptRealValues(*Enc, Ct);
  auto ViaWire = Dec.decryptRealValues(*Enc, *Reloaded);
  ASSERT_EQ(Direct.size(), ViaWire.size());
  for (size_t I = 0; I < Direct.size(); ++I)
    EXPECT_DOUBLE_EQ(Direct[I], ViaWire[I]);
}

TEST_F(SerializerTest, KeyRoundTrips) {
  expectBitIdenticalRoundTrip(Pub, [&](const uint8_t *D, size_t N) {
    return wire::loadPublicKey(*Ctx, D, N);
  });
  expectBitIdenticalRoundTrip(Gen->secretKey(),
                              [&](const uint8_t *D, size_t N) {
                                return wire::loadSecretKey(*Ctx, D, N);
                              });
  SwitchKey Relin = Gen->makeRelinKey();
  expectBitIdenticalRoundTrip(Relin, [&](const uint8_t *D, size_t N) {
    return wire::loadSwitchKey(*Ctx, D, N);
  });
}

/// Under a chain with several special primes (7 primes: digits of 3
/// under 2 special primes), secret and switch keys carry K special
/// components, and a switch key truncated to any level round-trips with
/// its digit count.
TEST(SerializerHybridTest, KeysRoundTripAtEveryTruncation) {
  CkksParams P;
  P.RingDegree = 64;
  P.Slots = 16;
  P.LogScale = 30;
  P.LogFirstModulus = 40;
  P.NumRescaleModuli = 6;
  P.LogSpecialModulus = 45;
  P.Seed = 11;
  Context Ctx(P);
  ASSERT_EQ(Ctx.keySwitch().DigitSize, 3u);
  ASSERT_EQ(Ctx.numSpecial(), 3u);
  KeyGenerator Gen(Ctx);
  expectBitIdenticalRoundTrip(Gen.secretKey(),
                              [&](const uint8_t *D, size_t N) {
                                return wire::loadSecretKey(Ctx, D, N);
                              });
  SwitchKey Full = Gen.makeRotationKey(1);
  for (size_t NumQ = 1; NumQ <= Ctx.chainLength(); ++NumQ) {
    SwitchKey Key = KeyGenerator::truncateKey(Full, NumQ);
    expectBitIdenticalRoundTrip(Key, [&](const uint8_t *D, size_t N) {
      return wire::loadSwitchKey(Ctx, D, N);
    });
    std::vector<uint8_t> Bytes;
    ASSERT_TRUE(wire::save(Key, Bytes).ok());
    EXPECT_LE(Bytes.size() - wire::kHeaderBytes,
              wire::maxPayloadBytes(wire::ObjectTag::SwitchKey, &Ctx));
  }

  // A part count that disagrees with the parts' level is rejected: the
  // full 7-prime key (3 digits) relabelled as 2 digits.
  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(wire::save(Full, Bytes).ok());
  Bytes[wire::kHeaderBytes] = 2;
  uint32_t Crc = crc32c(Bytes.data() + wire::kHeaderBytes,
                        Bytes.size() - wire::kHeaderBytes);
  for (int I = 0; I < 4; ++I) // the header's CRC field sits at offset 16
    Bytes[16 + I] = static_cast<uint8_t>(Crc >> (8 * I));
  auto Relabelled = wire::loadSwitchKey(Ctx, Bytes.data(), Bytes.size());
  ASSERT_FALSE(Relabelled.ok());
  EXPECT_EQ(Relabelled.status().code(), ErrorCode::DataCorrupt);
  EXPECT_NE(Relabelled.status().message().find("chain primes form 3"),
            std::string::npos)
      << Relabelled.status().message();
}

TEST_F(SerializerTest, EvalKeysRoundTrip) {
  EvalKeys Keys;
  RotationKeyCache Cache(*Ctx, *Gen);
  makeTestKeys(*Gen, Keys, Cache, {1, 2, -1}, /*NeedRelin=*/true,
               /*NeedConjugate=*/true);
  ASSERT_TRUE(Cache.exportKeys(Keys.Rotations).ok());
  expectBitIdenticalRoundTrip(Keys, [&](const uint8_t *D, size_t N) {
    return wire::loadEvalKeys(*Ctx, D, N);
  });

  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(wire::save(Keys, Bytes).ok());
  auto Reloaded = wire::loadEvalKeys(*Ctx, Bytes.data(), Bytes.size());
  ASSERT_TRUE(Reloaded.ok());
  EXPECT_EQ(Reloaded->HasRelin, Keys.HasRelin);
  EXPECT_EQ(Reloaded->HasConjugate, Keys.HasConjugate);
  EXPECT_EQ(Reloaded->Rotations.size(), Keys.Rotations.size());
}

TEST_F(SerializerTest, EmptyEvalKeysRoundTrip) {
  EvalKeys Empty;
  expectBitIdenticalRoundTrip(Empty, [&](const uint8_t *D, size_t N) {
    return wire::loadEvalKeys(*Ctx, D, N);
  });
}

TEST_F(SerializerTest, ReloadedKeysEvaluate) {
  // The real acceptance bar: keys that crossed the wire must drive actual
  // homomorphic evaluation to the same result as the originals.
  EvalKeys Keys;
  RotationKeyCache Cache(*Ctx, *Gen);
  makeTestKeys(*Gen, Keys, Cache, {1}, /*NeedRelin=*/true,
               /*NeedConjugate=*/false);
  ASSERT_TRUE(Cache.exportKeys(Keys.Rotations).ok());
  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(wire::save(Keys, Bytes).ok());
  auto Reloaded = wire::loadEvalKeys(*Ctx, Bytes.data(), Bytes.size());
  ASSERT_TRUE(Reloaded.ok());
  RotationKeyCache WireCache(*Ctx, *Gen);
  WireCache.adoptKeys(std::move(Reloaded->Rotations));

  Ciphertext Ct = Encrypt->encryptValues(*Enc, {1.0, 2.0, 3.0, 4.0},
                                         Ctx->chainLength());
  Evaluator EvalOrig(*Ctx, *Enc, Keys, Cache);
  Evaluator EvalWire(*Ctx, *Enc, *Reloaded, WireCache);
  auto A = EvalOrig.checkedRotate(Ct, 1);
  auto B = EvalWire.checkedRotate(Ct, 1);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());
  Decryptor Dec(*Ctx, Gen->secretKey());
  auto Va = Dec.decryptRealValues(*Enc, *A);
  auto Vb = Dec.decryptRealValues(*Enc, *B);
  for (size_t I = 0; I < Va.size(); ++I)
    EXPECT_DOUBLE_EQ(Va[I], Vb[I]);
}

TEST_F(SerializerTest, StreamRoundTripAndConcatenation) {
  Ciphertext Ct =
      Encrypt->encryptValues(*Enc, {0.25, 0.5}, Ctx->chainLength());
  std::stringstream SS;
  ASSERT_TRUE(wire::save(Ctx->params(), SS).ok());
  ASSERT_TRUE(wire::save(Ct, SS).ok());
  ASSERT_TRUE(wire::save(Pub, SS).ok());
  // Stream loads consume exactly one object each, in order.
  auto P = wire::loadParams(SS);
  ASSERT_TRUE(P.ok()) << P.status().message();
  auto C = wire::loadCiphertext(*Ctx, SS);
  ASSERT_TRUE(C.ok()) << C.status().message();
  auto K = wire::loadPublicKey(*Ctx, SS);
  ASSERT_TRUE(K.ok()) << K.status().message();
  EXPECT_EQ(P->RingDegree, Ctx->params().RingDegree);
}

TEST_F(SerializerTest, BufferLoadRejectsTrailingBytes) {
  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(wire::save(Ctx->params(), Bytes).ok());
  Bytes.push_back(0);
  auto P = wire::loadParams(Bytes.data(), Bytes.size());
  ASSERT_FALSE(P.ok());
  EXPECT_EQ(P.status().code(), ErrorCode::DataCorrupt);
  EXPECT_NE(P.status().message().find("trailing"), std::string::npos);
}

TEST_F(SerializerTest, EveryTruncationFailsCleanly) {
  // Exhaustive prefix scan: every possible truncation of a valid object
  // must produce a clean DataCorrupt/ResourceExhausted error.
  Ciphertext Ct =
      Encrypt->encryptValues(*Enc, {1.0}, Ctx->chainLength());
  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(wire::save(Ct, Bytes).ok());
  for (size_t N = 0; N < Bytes.size(); ++N) {
    auto R = wire::loadCiphertext(*Ctx, Bytes.data(), N);
    ASSERT_FALSE(R.ok()) << "prefix length " << N;
    ASSERT_TRUE(R.status().code() == ErrorCode::DataCorrupt ||
                R.status().code() == ErrorCode::ResourceExhausted)
        << "prefix length " << N << ": " << R.status().message();
  }
}

TEST_F(SerializerTest, WrongContextRejected) {
  // Bytes written under one parameter set must not validate under
  // another: the residues exceed the smaller context's moduli or the
  // shape checks fire.
  Ciphertext Ct =
      Encrypt->encryptValues(*Enc, {1.0}, Ctx->chainLength());
  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(wire::save(Ct, Bytes).ok());
  CkksParams Other = Ctx->params();
  Other.RingDegree = 32;
  Other.Slots = 8;
  Context OtherCtx(Other);
  auto R = wire::loadCiphertext(OtherCtx, Bytes.data(), Bytes.size());
  EXPECT_FALSE(R.ok());
}

TEST_F(SerializerTest, SaveRejectsInvalidObjects) {
  std::vector<uint8_t> Bytes;
  Ciphertext Malformed; // zero polynomials
  auto S = wire::save(Malformed, Bytes);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::InvalidArgument);

  Plaintext Unbound; // default-constructed poly
  S = wire::save(Unbound, Bytes);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::InvalidArgument);

  CkksParams Bad;
  Bad.RingDegree = 33;
  S = wire::save(Bad, Bytes);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::InvalidArgument);
}

TEST_F(SerializerTest, TelemetryCountsBytes) {
  telemetry::Telemetry::instance().clear();
  telemetry::Telemetry::instance().setEnabled(true);
  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(wire::save(Ctx->params(), Bytes).ok());
  auto P = wire::loadParams(Bytes.data(), Bytes.size());
  ASSERT_TRUE(P.ok());
  uint64_t Ser = telemetry::Telemetry::instance().counterValue(
      telemetry::Counter::BytesSerialized);
  uint64_t De = telemetry::Telemetry::instance().counterValue(
      telemetry::Counter::BytesDeserialized);
  telemetry::Telemetry::instance().setEnabled(false);
  telemetry::Telemetry::instance().clear();
  EXPECT_EQ(Ser, Bytes.size());
  EXPECT_EQ(De, Bytes.size());
}

} // namespace
