//===----------------------------------------------------------------------===//
// Fault-injection property tests (ISSUE tentpole 3): every injected
// fault must surface as a clean error - through the C++ checked tier and
// through the C API's error channel - never undefined behavior and never
// a silently wrong result. The suite runs in debug AND in the CI's
// release (-DNDEBUG) sanitizer build, where asserts vanish and only the
// checked tier stands between a corrupted ciphertext and UB.
//===----------------------------------------------------------------------===//

#include "fhe/Bootstrapper.h"
#include "fhe/CApi.h"
#include "fhe/Encryptor.h"
#include "support/FaultInjector.h"

#include "TestKeys.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace ace;
using namespace ace::fhe;

namespace {

/// Shared C-API context; every test starts and ends with the injector
/// disarmed so a failing expectation cannot poison its neighbors.
class FaultInjectionTest : public ::testing::Test {
protected:
  AceFheContext *Ctx = nullptr;

  void SetUp() override {
    FaultInjector::instance().reset();
    ace_clear_error();
    Ctx = ace_create(/*ring_degree=*/1024, /*slots=*/64, /*log_scale=*/45,
                     /*log_q0=*/55, /*num_rescale=*/8, /*log_special=*/60,
                     /*sparse_secret=*/0, /*seed=*/11);
    ASSERT_NE(Ctx, nullptr);
    int64_t Steps[] = {1};
    ASSERT_EQ(ace_keygen(Ctx, Steps, nullptr, 1, /*need_relin=*/1,
                         /*need_conj=*/0, /*bootstrap=*/0),
              ACE_OK);
  }
  void TearDown() override {
    FaultInjector::instance().reset();
    ace_destroy(Ctx);
  }

  AceFheCiphertext *encrypt(double Value, size_t NumQ = 9) {
    std::vector<double> X(64, Value);
    return ace_encrypt(Ctx, X.data(), X.size(), NumQ);
  }
};

TEST_F(FaultInjectionTest, ScaleDriftIsCaughtAtTheCApiBoundary) {
  // ace_encrypt checks its own postcondition (fresh ciphertexts are at
  // the context scale): a drifted scale must not escape the boundary.
  // In a generated program every ciphertext derives from the encrypted
  // inputs and downstream plaintext encodes adapt to the recorded scale,
  // so a drift that escaped here would flow through a purely linear
  // pipeline silently.
  FaultInjector::instance().arm(FaultKind::ScaleDrift);
  AceFheCiphertext *Drifted = encrypt(0.25);
  EXPECT_EQ(Drifted, nullptr);
  EXPECT_EQ(FaultInjector::instance().firedCount(FaultKind::ScaleDrift),
            1u);
  EXPECT_EQ(ace_last_error(), ACE_ERR_SCALE_MISMATCH);
  // The diagnostic must name both scales and their ratio.
  std::string Msg = ace_last_error_message();
  EXPECT_NE(Msg.find("ratio"), std::string::npos) << Msg;

  // With the injector quiet, encryption and arithmetic work again.
  FaultInjector::instance().reset();
  ace_clear_error();
  AceFheCiphertext *A = encrypt(0.25);
  AceFheCiphertext *B = encrypt(0.5);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  AceFheCiphertext *Sum = ace_add(Ctx, A, B);
  EXPECT_NE(Sum, nullptr) << ace_last_error_message();
  ace_ct_free(Sum);
  ace_ct_free(A);
  ace_ct_free(B);
}

TEST_F(FaultInjectionTest, CorruptedSlotCountIsRejected) {
  FaultInjector::instance().arm(FaultKind::SlotCorrupt);
  AceFheCiphertext *Bad = encrypt(0.25);
  ASSERT_NE(Bad, nullptr);

  EXPECT_EQ(ace_rescale(Ctx, Bad), nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_INVALID_ARGUMENT);
  std::string Msg = ace_last_error_message();
  EXPECT_NE(Msg.find("slot"), std::string::npos) << Msg;

  ace_ct_free(Bad);
}

TEST_F(FaultInjectionTest, TruncatedPrimeChainIsRejected) {
  FaultInjector::instance().arm(FaultKind::TruncateChain);
  AceFheCiphertext *Bad = encrypt(0.25);
  ASSERT_NE(Bad, nullptr);

  // One polynomial lost a prime: the ciphertext is internally
  // inconsistent and must not reach the NTT kernels.
  EXPECT_EQ(ace_mul_const(Ctx, Bad, 2.0), nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_INTERNAL);
  std::string Msg = ace_last_error_message();
  EXPECT_NE(Msg.find("truncated"), std::string::npos) << Msg;

  // Decryption validates the same invariant instead of indexing out of
  // bounds.
  std::vector<double> Out(64);
  EXPECT_EQ(ace_decrypt(Ctx, Bad, Out.data(), 64), ACE_ERR_INTERNAL);

  ace_ct_free(Bad);
}

TEST_F(FaultInjectionTest, DroppedGaloisKeySurfacesAsKeyMissing) {
  AceFheCiphertext *Ct = encrypt(0.25);
  ASSERT_NE(Ct, nullptr);
  // Step 1 has a key; the injected drop must still fail the lookup.
  FaultInjector::instance().arm(FaultKind::DropGaloisKey);
  EXPECT_EQ(ace_rotate(Ctx, Ct, 1), nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_KEY_MISSING);

  // The drop was one-shot: the same rotation succeeds afterwards.
  AceFheCiphertext *R = ace_rotate(Ctx, Ct, 1);
  EXPECT_NE(R, nullptr);
  ace_ct_free(R);
  ace_ct_free(Ct);
}

TEST_F(FaultInjectionTest, DroppedRelinKeySurfacesAsKeyMissing) {
  AceFheCiphertext *Ct = encrypt(0.25);
  ASSERT_NE(Ct, nullptr);
  FaultInjector::instance().arm(FaultKind::DropRelinKey);
  EXPECT_EQ(ace_mul(Ctx, Ct, Ct), nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_KEY_MISSING);
  ace_ct_free(Ct);
}

TEST_F(FaultInjectionTest, AllocFailureSurfacesAsResourceExhausted) {
  AceFheCiphertext *Ct = encrypt(0.25);
  ASSERT_NE(Ct, nullptr);
  FaultInjector::instance().arm(FaultKind::AllocFail);
  EXPECT_EQ(ace_add_const(Ctx, Ct, 1.0), nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_RESOURCE_EXHAUSTED);
  ace_ct_free(Ct);
}

TEST_F(FaultInjectionTest, EveryFaultKindFailsCleanlyInSequence) {
  // Sweep all kinds through one arm -> trigger -> verify cycle; whatever
  // the kind, the outcome is an error code, not a crash or wrong value.
  const FaultKind Kinds[] = {FaultKind::ScaleDrift, FaultKind::SlotCorrupt,
                             FaultKind::TruncateChain,
                             FaultKind::DropGaloisKey,
                             FaultKind::DropRelinKey, FaultKind::AllocFail};
  for (FaultKind Kind : Kinds) {
    FaultInjector::instance().reset();
    ace_clear_error();
    // One firing: exactly one operand (or one lookup) is corrupted, so
    // the fault cannot cancel itself out (two equally drifted scales
    // would compare equal again).
    FaultInjector::instance().arm(Kind, /*Count=*/1);

    AceFheCiphertext *A = encrypt(0.25);
    AceFheCiphertext *B = encrypt(0.5);
    AceFheCiphertext *Results[4] = {nullptr, nullptr, nullptr, nullptr};
    if (A && B) {
      Results[0] = ace_add(Ctx, A, B);
      Results[1] = ace_mul(Ctx, A, B);
      Results[2] = ace_rotate(Ctx, A, 1);
      Results[3] = ace_rescale(Ctx, A);
    }
    bool AnyFailed = !A || !B;
    for (auto *R : Results)
      AnyFailed = AnyFailed || R == nullptr;
    EXPECT_TRUE(AnyFailed) << "fault " << faultKindName(Kind)
                           << " was swallowed";
    if (AnyFailed) {
      EXPECT_NE(ace_last_error(), ACE_OK) << faultKindName(Kind);
      EXPECT_STRNE(ace_last_error_message(), "") << faultKindName(Kind);
    }
    for (auto *R : Results)
      ace_ct_free(R);
    ace_ct_free(A);
    ace_ct_free(B);
  }
}

TEST_F(FaultInjectionTest, PipelineRecoversAfterReset) {
  // Inject, observe the failure, reset - then the exact same pipeline
  // must produce the correct answer: faults leave no residue.
  FaultInjector::instance().arm(FaultKind::ScaleDrift);
  AceFheCiphertext *Bad = encrypt(0.5);
  EXPECT_EQ(Bad, nullptr);
  EXPECT_EQ(ace_last_error(), ACE_ERR_SCALE_MISMATCH);
  ace_ct_free(Bad);

  FaultInjector::instance().reset();
  ace_clear_error();

  AceFheCiphertext *A = encrypt(0.5);
  AceFheCiphertext *B = encrypt(0.25);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  AceFheCiphertext *Sum = ace_add(Ctx, A, B);
  ASSERT_NE(Sum, nullptr);
  AceFheCiphertext *Prod = ace_mul(Ctx, Sum, B);
  ASSERT_NE(Prod, nullptr);
  AceFheCiphertext *Res = ace_rescale(Ctx, Prod);
  ASSERT_NE(Res, nullptr);

  std::vector<double> Out(64);
  ASSERT_EQ(ace_decrypt(Ctx, Res, Out.data(), 64), ACE_OK);
  for (double V : Out)
    EXPECT_NEAR(V, (0.5 + 0.25) * 0.25, 1e-4); // no silent wrong result

  for (auto *Ct : {A, B, Sum, Prod, Res})
    ace_ct_free(Ct);
}

TEST_F(FaultInjectionTest, CheckedCxxTierReportsTheSameFaults) {
  // The C++ checked tier (what CkksExecutor runs on) must classify the
  // same injected faults without going through the C boundary.
  CkksParams P;
  P.RingDegree = 1024;
  P.Slots = 64;
  P.LogScale = 45;
  P.LogFirstModulus = 55;
  P.NumRescaleModuli = 8;
  P.LogSpecialModulus = 60;
  P.SparseSecret = false;
  P.Seed = 17;
  ASSERT_TRUE(P.valid());
  Context Local(P);
  Encoder Enc(Local);
  KeyGenerator Gen(Local);
  PublicKey Pub = Gen.makePublicKey();
  EvalKeys Keys;
  RotationKeyCache Cache(Local, Gen);
  makeTestKeys(Gen, Keys, Cache, {1}, /*NeedRelin=*/true,
               /*NeedConjugate=*/false);
  Evaluator Eval(Local, Enc, Keys, Cache);
  Encryptor Encrypt(Local, Pub);

  std::vector<double> X(64, 0.25);

  FaultInjector::instance().arm(FaultKind::ScaleDrift);
  auto Drifted = Encrypt.checkedEncryptValues(Enc, X, 9);
  ASSERT_TRUE(Drifted.ok());
  auto Clean = Encrypt.checkedEncryptValues(Enc, X, 9);
  ASSERT_TRUE(Clean.ok());
  auto Sum = Eval.checkedAdd(*Drifted, *Clean);
  ASSERT_FALSE(Sum.ok());
  EXPECT_EQ(Sum.status().code(), ErrorCode::ScaleMismatch);

  FaultInjector::instance().reset();
  FaultInjector::instance().arm(FaultKind::DropGaloisKey);
  auto Rot = Eval.checkedRotate(*Clean, 1);
  ASSERT_FALSE(Rot.ok());
  EXPECT_EQ(Rot.status().code(), ErrorCode::KeyMissing);

  FaultInjector::instance().reset();
  auto RotOk = Eval.checkedRotate(*Clean, 1);
  EXPECT_TRUE(RotOk.ok());
}

} // namespace
