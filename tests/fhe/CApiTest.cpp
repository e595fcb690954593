//===----------------------------------------------------------------------===//
// C API tests: the surface generated programs call, exercised the way a
// generated program does (create, keygen, encrypt, ops, decrypt).
//===----------------------------------------------------------------------===//

#include "fhe/CApi.h"
#include "support/FaultInjector.h"
#include "support/ResourceGovernor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

namespace {

struct CApiFixture : ::testing::Test {
  AceFheContext *Ctx = nullptr;

  void SetUp() override {
    Ctx = ace_create(/*ring_degree=*/1024, /*slots=*/64, /*log_scale=*/45,
                     /*log_q0=*/55, /*num_rescale=*/8, /*log_special=*/60,
                     /*sparse_secret=*/0, /*seed=*/9);
    ASSERT_NE(Ctx, nullptr);
    int64_t Steps[] = {1, 3};
    ASSERT_EQ(ace_keygen(Ctx, Steps, nullptr, 2, /*need_relin=*/1,
                         /*need_conj=*/0, /*bootstrap=*/0),
              ACE_OK);
    ace_clear_error();
  }
  void TearDown() override { ace_destroy(Ctx); }
};

TEST_F(CApiFixture, EncryptDecryptRoundTrip) {
  std::vector<double> X(64);
  for (size_t I = 0; I < X.size(); ++I)
    X[I] = 0.01 * static_cast<double>(I) - 0.3;
  AceFheCiphertext *Ct = ace_encrypt(Ctx, X.data(), X.size(), 9);
  std::vector<double> Out(64);
  ace_decrypt(Ctx, Ct, Out.data(), Out.size());
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], X[I], 1e-6);
  ace_ct_free(Ct);
}

TEST_F(CApiFixture, ArithmeticPipeline) {
  std::vector<double> X(64, 0.5), Y(64, 0.25), W(64, 2.0);
  AceFheCiphertext *A = ace_encrypt(Ctx, X.data(), 64, 9);
  AceFheCiphertext *B = ace_encrypt(Ctx, Y.data(), 64, 9);

  // ((a * w rescaled) + b) * b, relinearized and rescaled: value
  // (0.5*2 + 0.25) * 0.25 = 0.3125.
  AceFheCiphertext *T1 = ace_mul_plain(Ctx, A, W.data(), 64);
  AceFheCiphertext *T2 = ace_rescale(Ctx, T1);
  AceFheCiphertext *T3 = ace_add(Ctx, T2, B);
  AceFheCiphertext *T4 = ace_mul(Ctx, T3, B);
  AceFheCiphertext *T5 = ace_rescale(Ctx, T4);

  std::vector<double> Out(64);
  ace_decrypt(Ctx, T5, Out.data(), 64);
  for (double V : Out)
    EXPECT_NEAR(V, 0.3125, 1e-4);

  for (auto *Ct : {A, B, T1, T2, T3, T4, T5})
    ace_ct_free(Ct);
}

TEST_F(CApiFixture, RotateAndConstOps) {
  std::vector<double> X(64);
  for (size_t I = 0; I < 64; ++I)
    X[I] = static_cast<double>(I) / 64.0;
  AceFheCiphertext *A = ace_encrypt(Ctx, X.data(), 64, 9);
  AceFheCiphertext *R = ace_rotate(Ctx, A, 3);
  AceFheCiphertext *S = ace_add_const(Ctx, R, 0.5);
  AceFheCiphertext *M = ace_mul_const(Ctx, S, -2.0);
  AceFheCiphertext *F = ace_rescale(Ctx, M);

  std::vector<double> Out(64);
  ace_decrypt(Ctx, F, Out.data(), 64);
  for (size_t I = 0; I < 64; ++I)
    EXPECT_NEAR(Out[I], -2.0 * (X[(I + 3) % 64] + 0.5), 1e-4);

  for (auto *Ct : {A, R, S, M, F})
    ace_ct_free(Ct);
}

TEST_F(CApiFixture, ModSwitch) {
  std::vector<double> X(64, 0.125);
  AceFheCiphertext *A = ace_encrypt(Ctx, X.data(), 64, 9);
  AceFheCiphertext *B = ace_modswitch_to(Ctx, A, 2);
  std::vector<double> Out(64);
  ace_decrypt(Ctx, B, Out.data(), 64);
  for (double V : Out)
    EXPECT_NEAR(V, 0.125, 1e-6);
  ace_ct_free(A);
  ace_ct_free(B);
}

TEST(CApiTest, RejectsInvalidParameters) {
  ace_clear_error();
  EXPECT_EQ(ace_create(1000 /*not a power of two*/, 64, 45, 55, 8, 60, 0,
                       1),
            nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(ace_last_error_message()).find("1000"),
            std::string::npos);
  ace_clear_error();
  EXPECT_EQ(ace_last_error(), ACE_OK);
  EXPECT_STREQ(ace_last_error_message(), "");
}

TEST(CApiTest, WeightBlobRoundTrip) {
  const char *Path = "/tmp/ace_capi_weights.bin";
  std::vector<double> W = {1.5, -2.25, 3.0};
  FILE *F = std::fopen(Path, "wb");
  ASSERT_NE(F, nullptr);
  std::fwrite(W.data(), sizeof(double), W.size(), F);
  std::fclose(F);
  size_t Count = 0;
  double *Back = ace_load_weights(Path, &Count);
  ASSERT_NE(Back, nullptr);
  ASSERT_EQ(Count, 3u);
  for (size_t I = 0; I < 3; ++I)
    EXPECT_DOUBLE_EQ(Back[I], W[I]);
  free(Back);
  EXPECT_EQ(ace_load_weights("/tmp/ace_missing.bin", &Count), nullptr);
}


//===----------------------------------------------------------------------===//
// Error-path tests: every caller mistake must come back as an error code
// plus a descriptive message - never a crash (ISSUE: C-API error channel).
//===----------------------------------------------------------------------===//

TEST_F(CApiFixture, NullHandlesReturnErrors) {
  ace_clear_error();
  std::vector<double> X(64, 0.1);
  std::vector<double> Out(64);

  EXPECT_EQ(ace_encrypt(nullptr, X.data(), 64, 9), nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_INVALID_ARGUMENT);

  AceFheCiphertext *Ct = ace_encrypt(Ctx, X.data(), 64, 9);
  ASSERT_NE(Ct, nullptr);

  EXPECT_EQ(ace_rotate(Ctx, nullptr, 1), nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(ace_add(Ctx, Ct, nullptr), nullptr);
  EXPECT_EQ(ace_mul(nullptr, Ct, Ct), nullptr);
  EXPECT_EQ(ace_decrypt(Ctx, nullptr, Out.data(), 64),
            ACE_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(ace_decrypt(Ctx, Ct, nullptr, 64), ACE_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(ace_keygen(nullptr, nullptr, nullptr, 0, 0, 0, 0),
            ACE_ERR_INVALID_ARGUMENT);
  ace_ct_free(Ct);
}

TEST_F(CApiFixture, InvalidHandlePatternIsRejected) {
  // A zeroed buffer stands in for a freed/garbage handle: the magic tag
  // does not match, so the call reports instead of dereferencing junk.
  ace_clear_error();
  alignas(16) unsigned char Zeros[256] = {0};
  auto *Bogus = reinterpret_cast<AceFheCiphertext *>(Zeros);
  EXPECT_EQ(ace_rotate(Ctx, Bogus, 1), nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(ace_last_error_message()).find("handle"),
            std::string::npos);

  auto *BogusCtx = reinterpret_cast<AceFheContext *>(Zeros);
  std::vector<double> X(64, 0.1);
  EXPECT_EQ(ace_encrypt(BogusCtx, X.data(), 64, 9), nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_INVALID_ARGUMENT);
}

TEST_F(CApiFixture, RotateWithoutKeyNamesTheStep) {
  // Keygen covered steps {1, 3}; step 5 has no Galois key.
  ace_clear_error();
  std::vector<double> X(64, 0.1);
  AceFheCiphertext *Ct = ace_encrypt(Ctx, X.data(), 64, 9);
  ASSERT_NE(Ct, nullptr);
  EXPECT_EQ(ace_rotate(Ctx, Ct, 5), nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_KEY_MISSING);
  EXPECT_NE(std::string(ace_last_error_message()).find("step 5"),
            std::string::npos);
  ace_ct_free(Ct);
}

TEST_F(CApiFixture, EncryptTooManyValuesFails) {
  ace_clear_error();
  std::vector<double> X(65, 0.1); // context has 64 slots
  EXPECT_EQ(ace_encrypt(Ctx, X.data(), X.size(), 9), nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(ace_last_error_message()).find("65"),
            std::string::npos);

  // Bad level requests are level errors naming the chain length.
  EXPECT_EQ(ace_encrypt(Ctx, X.data(), 64, 99), nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_LEVEL_MISMATCH);
}

TEST_F(CApiFixture, RescaleAtBaseLevelIsDepthExhausted) {
  ace_clear_error();
  std::vector<double> X(64, 0.1);
  AceFheCiphertext *Ct = ace_encrypt(Ctx, X.data(), 64, 1);
  ASSERT_NE(Ct, nullptr);
  EXPECT_EQ(ace_rescale(Ctx, Ct), nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_DEPTH_EXHAUSTED);
  ace_ct_free(Ct);
}

TEST_F(CApiFixture, BootstrapWithoutKeysIsKeyMissing) {
  ace_clear_error();
  std::vector<double> X(64, 0.1);
  AceFheCiphertext *Ct = ace_encrypt(Ctx, X.data(), 64, 1);
  ASSERT_NE(Ct, nullptr);
  EXPECT_EQ(ace_bootstrap(Ctx, Ct, 4), nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_KEY_MISSING);
  EXPECT_NE(std::string(ace_last_error_message()).find("bootstrap"),
            std::string::npos);
  ace_ct_free(Ct);
}

TEST(CApiTest, MulWithoutRelinKeyIsKeyMissing) {
  AceFheContext *Ctx = ace_create(1024, 64, 45, 55, 8, 60, 0, 9);
  ASSERT_NE(Ctx, nullptr);
  // Keygen without the relin key.
  ASSERT_EQ(ace_keygen(Ctx, nullptr, nullptr, 0, /*need_relin=*/0, 0, 0),
            ACE_OK);
  ace_clear_error();
  std::vector<double> X(64, 0.1);
  AceFheCiphertext *Ct = ace_encrypt(Ctx, X.data(), 64, 9);
  ASSERT_NE(Ct, nullptr);
  EXPECT_EQ(ace_mul(Ctx, Ct, Ct), nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_KEY_MISSING);
  ace_ct_free(Ct);
  ace_destroy(Ctx);
}

TEST(CApiTest, MismatchedSlotCountsAreRejected) {
  // Two contexts with different slot counts; a ciphertext from one fed
  // into the other must be caught by operand validation.
  AceFheContext *C64 = ace_create(1024, 64, 45, 55, 8, 60, 0, 9);
  AceFheContext *C32 = ace_create(1024, 32, 45, 55, 8, 60, 0, 9);
  ASSERT_NE(C64, nullptr);
  ASSERT_NE(C32, nullptr);
  ASSERT_EQ(ace_keygen(C64, nullptr, nullptr, 0, 1, 0, 0), ACE_OK);
  ASSERT_EQ(ace_keygen(C32, nullptr, nullptr, 0, 1, 0, 0), ACE_OK);
  ace_clear_error();
  std::vector<double> X(32, 0.1);
  AceFheCiphertext *Ct = ace_encrypt(C32, X.data(), 32, 9);
  ASSERT_NE(Ct, nullptr);
  EXPECT_EQ(ace_add(C64, Ct, Ct), nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(ace_last_error_message()).find("slot"),
            std::string::npos);
  ace_ct_free(Ct);
  ace_destroy(C64);
  ace_destroy(C32);
}

TEST(CApiTest, ErrorChannelIsSticky) {
  ace_clear_error();
  AceFheContext *Ctx = ace_create(1024, 64, 45, 55, 8, 60, 0, 9);
  ASSERT_NE(Ctx, nullptr);
  ASSERT_EQ(ace_keygen(Ctx, nullptr, nullptr, 0, 0, 0, 0), ACE_OK);
  std::vector<double> X(65, 0.1);
  EXPECT_EQ(ace_encrypt(Ctx, X.data(), 65, 9), nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_INVALID_ARGUMENT);
  // A successful call does not clear the sticky error...
  AceFheCiphertext *Ct = ace_encrypt(Ctx, X.data(), 64, 9);
  ASSERT_NE(Ct, nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_INVALID_ARGUMENT);
  // ...only ace_clear_error does.
  ace_clear_error();
  EXPECT_EQ(ace_last_error(), ACE_OK);
  ace_ct_free(Ct);
  ace_destroy(Ctx);
}

TEST_F(CApiFixture, CiphertextSaveLoadRoundTrip) {
  std::vector<double> X(64);
  for (size_t I = 0; I < X.size(); ++I)
    X[I] = 0.02 * static_cast<double>(I) - 0.5;
  AceFheCiphertext *Ct = ace_encrypt(Ctx, X.data(), 64, 9);
  ASSERT_NE(Ct, nullptr);
  const char *Path = "/tmp/ace_capi_ct.bin";
  ASSERT_EQ(ace_ct_save(Ctx, Ct, Path), ACE_OK);
  AceFheCiphertext *Back = ace_ct_load(Ctx, Path);
  ASSERT_NE(Back, nullptr) << ace_last_error_message();
  std::vector<double> Out(64);
  ASSERT_EQ(ace_decrypt(Ctx, Back, Out.data(), 64), ACE_OK);
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], X[I], 1e-6);
  ace_ct_free(Back);
  ace_ct_free(Ct);
  std::remove(Path);
}

TEST_F(CApiFixture, KeyAndParamsSaveLoadRebuildWorkingContext) {
  const char *ParamsPath = "/tmp/ace_capi_params.bin";
  const char *KeysPath = "/tmp/ace_capi_keys.bin";
  ASSERT_EQ(ace_params_save(Ctx, ParamsPath), ACE_OK);
  ASSERT_EQ(ace_key_save(Ctx, KeysPath), ACE_OK);

  // A context rebuilt from the params file plus the key file must be
  // fully functional: encrypt, rotate with the *loaded* rotation keys,
  // decrypt.
  AceFheContext *C2 = ace_params_load(ParamsPath);
  ASSERT_NE(C2, nullptr) << ace_last_error_message();
  ASSERT_EQ(ace_key_load(C2, KeysPath), ACE_OK)
      << ace_last_error_message();
  std::vector<double> X(64);
  for (size_t I = 0; I < X.size(); ++I)
    X[I] = 0.01 * static_cast<double>(I);
  AceFheCiphertext *Ct = ace_encrypt(C2, X.data(), 64, 9);
  ASSERT_NE(Ct, nullptr) << ace_last_error_message();
  AceFheCiphertext *Rot = ace_rotate(C2, Ct, 1);
  ASSERT_NE(Rot, nullptr) << ace_last_error_message();
  std::vector<double> Out(64);
  ASSERT_EQ(ace_decrypt(C2, Rot, Out.data(), 64), ACE_OK);
  for (size_t I = 0; I < 63; ++I)
    EXPECT_NEAR(Out[I], X[I + 1], 1e-6);
  ace_ct_free(Rot);
  ace_ct_free(Ct);
  ace_destroy(C2);
  std::remove(ParamsPath);
  std::remove(KeysPath);
}

TEST_F(CApiFixture, SerializationErrorPaths) {
  ace_clear_error();
  std::vector<double> X(64, 0.25);
  AceFheCiphertext *Ct = ace_encrypt(Ctx, X.data(), 64, 9);
  ASSERT_NE(Ct, nullptr);

  // Unwritable path surfaces as an I/O error, not a crash.
  EXPECT_EQ(ace_ct_save(Ctx, Ct, "/nonexistent-dir/ct.bin"), ACE_ERR_IO);
  EXPECT_EQ(ace_last_error(), ACE_ERR_IO);
  ace_clear_error();

  // A corrupted file surfaces as data corruption with a message.
  const char *Path = "/tmp/ace_capi_ct_corrupt.bin";
  ASSERT_EQ(ace_ct_save(Ctx, Ct, Path), ACE_OK);
  {
    std::FILE *F = std::fopen(Path, "r+b");
    ASSERT_NE(F, nullptr);
    std::fseek(F, 24, SEEK_SET);
    char Junk = 0x5A;
    std::fwrite(&Junk, 1, 1, F);
    std::fclose(F);
  }
  EXPECT_EQ(ace_ct_load(Ctx, Path), nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_DATA_CORRUPT);
  EXPECT_NE(std::string(ace_last_error_message()).find("checksum"),
            std::string::npos)
      << ace_last_error_message();
  ace_clear_error();

  // NULL arguments are rejected, never dereferenced.
  EXPECT_EQ(ace_ct_save(nullptr, Ct, Path), ACE_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(ace_ct_save(Ctx, nullptr, Path), ACE_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(ace_ct_save(Ctx, Ct, nullptr), ACE_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(ace_ct_load(Ctx, nullptr), nullptr);
  EXPECT_EQ(ace_key_load(nullptr, Path), ACE_ERR_INVALID_ARGUMENT);
  ace_clear_error();
  ace_ct_free(Ct);
  std::remove(Path);
}

/// Loaded rotation keys may come from another context's secret, so the
/// key store adopts them as keys it can never regenerate: a reclaim pass
/// must leave them resident, and a rotation in the loading context must
/// still decrypt under the saving context's secret.
TEST(CApiTest, LoadedKeysSurviveReclaimUnderTheirOwnSecret) {
  const char *KeysPath = "/tmp/ace_capi_adopted_keys.bin";
  const char *CtPath = "/tmp/ace_capi_adopted_ct.bin";
  AceFheContext *A = ace_create(1024, 64, 45, 55, 8, 60, 0, /*seed=*/9);
  AceFheContext *B = ace_create(1024, 64, 45, 55, 8, 60, 0, /*seed=*/4242);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  int64_t Steps[] = {1};
  ASSERT_EQ(ace_keygen(A, Steps, nullptr, 1, 1, 0, 0), ACE_OK);
  ASSERT_EQ(ace_key_save(A, KeysPath), ACE_OK) << ace_last_error_message();
  ASSERT_EQ(ace_key_load(B, KeysPath), ACE_OK) << ace_last_error_message();

  // One forced over-budget admission asks every reclaimer for all it can
  // give back, B's key store included.
  ace::FaultInjector::instance().arm(ace::FaultKind::BudgetExceeded, 1);
  EXPECT_FALSE(
      ace::ResourceGovernor::instance().admit(SIZE_MAX, "reclaim pass").ok());
  ace::FaultInjector::instance().reset();

  std::vector<double> X(64);
  for (size_t I = 0; I < X.size(); ++I)
    X[I] = 0.01 * static_cast<double>(I);
  AceFheCiphertext *Ct = ace_encrypt(B, X.data(), 64, 9);
  ASSERT_NE(Ct, nullptr) << ace_last_error_message();
  AceFheCiphertext *Rot = ace_rotate(B, Ct, 1);
  ASSERT_NE(Rot, nullptr) << ace_last_error_message();
  // Back to A over the wire, where its secret decrypts.
  ASSERT_EQ(ace_ct_save(B, Rot, CtPath), ACE_OK) << ace_last_error_message();
  AceFheCiphertext *AtA = ace_ct_load(A, CtPath);
  ASSERT_NE(AtA, nullptr) << ace_last_error_message();
  std::vector<double> Out(64);
  ASSERT_EQ(ace_decrypt(A, AtA, Out.data(), 64), ACE_OK);
  for (size_t I = 0; I < 63; ++I)
    EXPECT_NEAR(Out[I], X[I + 1], 1e-6) << "slot " << I;
  ace_ct_free(AtA);
  ace_ct_free(Rot);
  ace_ct_free(Ct);
  ace_destroy(B);
  ace_destroy(A);
  std::remove(KeysPath);
  std::remove(CtPath);
}

/// A second keygen call that needs a step at a deeper level than the
/// first gave it widens that key: the bootstrap's rotation by 1 runs at
/// the raised level, far above the 2 primes step 1 was first declared at.
TEST(CApiTest, KeygenWidensATruncatedStepForBootstrap) {
  AceFheContext *Ctx = ace_create(1024, 16, 48, 57, 24, 60,
                                  /*sparse_secret=*/1, /*seed=*/31);
  ASSERT_NE(Ctx, nullptr);
  int64_t Steps[] = {1};
  size_t MaxQ[] = {2};
  ASSERT_EQ(ace_keygen(Ctx, Steps, MaxQ, 1, 1, 0, 0), ACE_OK);
  ASSERT_EQ(ace_keygen(Ctx, nullptr, nullptr, 0, 1, 1, /*bootstrap=*/1),
            ACE_OK)
      << ace_last_error_message();
  std::vector<double> X(16, 0.3);
  AceFheCiphertext *Ct = ace_encrypt(Ctx, X.data(), 16, 1);
  ASSERT_NE(Ct, nullptr) << ace_last_error_message();
  AceFheCiphertext *Fresh = ace_bootstrap(Ctx, Ct, 3);
  ASSERT_NE(Fresh, nullptr) << ace_last_error_message();
  std::vector<double> Out(16);
  ASSERT_EQ(ace_decrypt(Ctx, Fresh, Out.data(), 16), ACE_OK);
  for (double V : Out)
    EXPECT_NEAR(V, 0.3, 2e-2);
  ace_ct_free(Fresh);
  ace_ct_free(Ct);
  ace_destroy(Ctx);
}

/// One op entry point fed a ciphertext bound to another context of the
/// same parameters. Call runs the op on context C with Operand (binary
/// ops take Own, a ciphertext of C, as the other side) and returns true
/// when the op succeeded.
using CtPtr = const AceFheCiphertext *;
struct ForeignCipherRow {
  const char *Name;
  const char *What; ///< the op's error-message prefix
  bool (*Call)(AceFheContext *C, CtPtr Own, CtPtr Operand);
};

void PrintTo(const ForeignCipherRow &Row, std::ostream *OS) { *OS << Row.Name; }

bool produced(AceFheCiphertext *Result) {
  bool Ok = Result != nullptr;
  ace_ct_free(Result);
  return Ok;
}

const ForeignCipherRow ForeignCipherRows[] = {
    {"decrypt", "decrypt",
     [](AceFheContext *C, CtPtr, CtPtr X) {
       std::vector<double> Out(64);
       return ace_decrypt(C, X, Out.data(), Out.size()) == ACE_OK;
     }},
    {"rotate", "rotate",
     [](AceFheContext *C, CtPtr, CtPtr X) {
       return produced(ace_rotate(C, X, 1));
     }},
    {"add_lhs", "add",
     [](AceFheContext *C, CtPtr O, CtPtr X) {
       return produced(ace_add(C, X, O));
     }},
    {"add_rhs", "add",
     [](AceFheContext *C, CtPtr O, CtPtr X) {
       return produced(ace_add(C, O, X));
     }},
    {"sub_lhs", "sub",
     [](AceFheContext *C, CtPtr O, CtPtr X) {
       return produced(ace_sub(C, X, O));
     }},
    {"sub_rhs", "sub",
     [](AceFheContext *C, CtPtr O, CtPtr X) {
       return produced(ace_sub(C, O, X));
     }},
    {"mul_lhs", "mul",
     [](AceFheContext *C, CtPtr O, CtPtr X) {
       return produced(ace_mul(C, X, O));
     }},
    {"mul_rhs", "mul",
     [](AceFheContext *C, CtPtr O, CtPtr X) {
       return produced(ace_mul(C, O, X));
     }},
    {"mul_plain", "mul_plain",
     [](AceFheContext *C, CtPtr, CtPtr X) {
       std::vector<double> W(64, 2.0);
       return produced(ace_mul_plain(C, X, W.data(), W.size()));
     }},
    {"add_plain", "add_plain",
     [](AceFheContext *C, CtPtr, CtPtr X) {
       std::vector<double> W(64, 2.0);
       return produced(ace_add_plain(C, X, W.data(), W.size()));
     }},
    {"mul_const", "mul_const",
     [](AceFheContext *C, CtPtr, CtPtr X) {
       return produced(ace_mul_const(C, X, 3.0));
     }},
    {"add_const", "add_const",
     [](AceFheContext *C, CtPtr, CtPtr X) {
       return produced(ace_add_const(C, X, 3.0));
     }},
    {"rescale", "rescale",
     [](AceFheContext *C, CtPtr, CtPtr X) {
       return produced(ace_rescale(C, X));
     }},
    {"modswitch_to", "modswitch",
     [](AceFheContext *C, CtPtr, CtPtr X) {
       return produced(ace_modswitch_to(C, X, 4));
     }},
    {"bootstrap", "bootstrap",
     [](AceFheContext *C, CtPtr, CtPtr X) {
       return produced(ace_bootstrap(C, X, 4));
     }},
    {"ct_save", "ct_save",
     [](AceFheContext *C, CtPtr, CtPtr X) {
       const char *Path = "/tmp/ace_capi_foreign_ct.bin";
       bool Ok = ace_ct_save(C, X, Path) == ACE_OK;
       std::remove(Path);
       return Ok;
     }},
};

/// Two contexts with identical parameters and different secrets. Every
/// op entry point of the first must reject a ciphertext of the second as
/// an invalid argument before touching its polynomials.
struct CApiForeignCipherTest
    : ::testing::TestWithParam<ForeignCipherRow> {
  AceFheContext *Ctx = nullptr, *Other = nullptr;
  AceFheCiphertext *Own = nullptr, *Foreign = nullptr;

  void SetUp() override {
    Ctx = ace_create(1024, 64, 45, 55, 8, 60, 0, /*seed=*/9);
    Other = ace_create(1024, 64, 45, 55, 8, 60, 0, /*seed=*/4242);
    ASSERT_NE(Ctx, nullptr);
    ASSERT_NE(Other, nullptr);
    int64_t Steps[] = {1};
    ASSERT_EQ(ace_keygen(Ctx, Steps, nullptr, 1, 1, 0, 0), ACE_OK);
    ASSERT_EQ(ace_keygen(Other, Steps, nullptr, 1, 1, 0, 0), ACE_OK);
    std::vector<double> X(64, 0.25);
    Own = ace_encrypt(Ctx, X.data(), X.size(), 9);
    Foreign = ace_encrypt(Other, X.data(), X.size(), 9);
    ASSERT_NE(Own, nullptr);
    ASSERT_NE(Foreign, nullptr);
    ace_clear_error();
  }
  void TearDown() override {
    ace_ct_free(Foreign);
    ace_ct_free(Own);
    ace_destroy(Other);
    ace_destroy(Ctx);
  }
};

TEST_P(CApiForeignCipherTest, RejectedAsInvalidArgument) {
  const ForeignCipherRow &Row = GetParam();
  EXPECT_FALSE(Row.Call(Ctx, Own, Foreign));
  EXPECT_EQ(ace_last_error(), ACE_ERR_INVALID_ARGUMENT);
  std::string Message = ace_last_error_message();
  EXPECT_EQ(Message.rfind(std::string(Row.What) + ": ", 0), 0u) << Message;
  EXPECT_NE(Message.find("does not belong to this context"),
            std::string::npos)
      << Message;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, CApiForeignCipherTest, ::testing::ValuesIn(ForeignCipherRows),
    [](const ::testing::TestParamInfo<ForeignCipherRow> &Info) {
      return std::string(Info.param.Name);
    });

} // namespace
