//===----------------------------------------------------------------------===//
// An eager executor's rotation/Galois keys live in its key cache, the one
// key store: they are charged to the governor's eval_keys gauge while the
// executor lives, released when it goes, and refused at setup when they do
// not fit the memory budget.
//===----------------------------------------------------------------------===//

#include "codegen/CkksExecutor.h"
#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "support/LimbPool.h"
#include "support/ResourceGovernor.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace ace;

namespace {

class ExecutorKeysTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    // Three ReLUs: the third is bootstrapped, so the key set includes
    // the bootstrap's SubSum and BSGS keys.
    onnx::Model Model = nn::buildMlp({16, 12, 12, 12, 8}, 5);
    Rng R(19);
    std::vector<nn::Tensor> Calibration;
    for (int I = 0; I < 4; ++I) {
      nn::Tensor T;
      T.Shape = {1, 16};
      T.Values.resize(16);
      for (auto &V : T.Values)
        V = static_cast<float>(R.uniformReal(-1.0, 1.0));
      Calibration.push_back(std::move(T));
    }
    air::CompileOptions Opt;
    Opt.Seed = 11;
    auto Result = driver::AceCompiler(Opt).compile(Model, Calibration);
    ASSERT_TRUE(Result.ok()) << Result.status().message();
    Compiled = Result.take();
  }
  static void TearDownTestSuite() { Compiled.reset(); }

  ExecutorKeysTest()
      : SavedBudget(ResourceGovernor::instance().budgetBytes()) {}
  ~ExecutorKeysTest() override {
    ResourceGovernor::instance().setBudgetBytes(SavedBudget);
  }

  static size_t evalKeysCharge() {
    return ResourceGovernor::instance()
        .stats()
        .ChargedBytes[static_cast<size_t>(MemCategory::EvalKeys)];
  }

  /// Sum of Context::switchKeyBytes over the rotation/Galois keys the
  /// compile state asks for (the widest level per Galois element): the
  /// bootstrap's SubSum elements and steps at the full chain, then the
  /// analyzed steps at their truncation levels.
  static size_t declaredKeyBytes(const fhe::Context &Ctx) {
    const air::CompileState &S = Compiled->State;
    size_t Full = Ctx.chainLength();
    std::map<uint64_t, size_t> Level;
    auto Declare = [&](uint64_t Galois, size_t NumQ) {
      if (Galois != 1)
        Level[Galois] = std::max(Level[Galois], NumQ);
    };
    auto Step = [&](int64_t Steps) {
      return fhe::galoisForRotation(Ctx.degree(), Ctx.slots(), Steps);
    };
    if (S.BootstrapCount > 0) {
      fhe::Encoder Enc(Ctx);
      fhe::KeyGenerator Gen(Ctx);
      fhe::RotationKeyCache Cache(Ctx, Gen);
      fhe::EvalKeys Keys;
      fhe::Evaluator Eval(Ctx, Enc, Keys, Cache);
      fhe::Bootstrapper Boot(Eval);
      for (uint64_t Galois : Boot.requiredGaloisElements())
        Declare(Galois, Full);
      for (int64_t Steps : Boot.requiredRotations())
        Declare(Step(Steps), Full);
    }
    for (int64_t Steps : S.RotationSteps) {
      auto It = S.RotationStepMaxNumQ.find(Steps);
      Declare(Step(Steps),
              It != S.RotationStepMaxNumQ.end() ? It->second : Full);
    }
    size_t Sum = 0;
    for (const auto &[Galois, NumQ] : Level)
      Sum += Ctx.switchKeyBytes(NumQ);
    return Sum;
  }

  size_t SavedBudget;
  static std::unique_ptr<driver::CompileResult> Compiled;
};

std::unique_ptr<driver::CompileResult> ExecutorKeysTest::Compiled;

/// Each resident key is charged once, to eval_keys: the cache lends its
/// pooled bytes out of the limb pool's charge, so with the pool's free
/// lists trimmed the governor's total grows by the keys' bytes plus the
/// pool's in-use growth (relinearization and conjugation keys, secret,
/// plaintexts), dropping the keys returns exactly their bytes, and with
/// the executor gone the pool's gauge and the total are back where they
/// started (a lend without its unlend, or the reverse, leaves them off by
/// the keys' bytes).
TEST_F(ExecutorKeysTest, EagerKeysAreChargedToTheGovernor) {
  ASSERT_GT(Compiled->State.BootstrapCount, 0u);
  ResourceGovernor &Gov = ResourceGovernor::instance();
  LimbPool &Pool = LimbPool::instance();
  Pool.trim();
  size_t Baseline = evalKeysCharge();
  size_t TotalBefore = Gov.stats().totalChargedBytes();
  size_t InUseBefore = Pool.stats().InUseBytes;
  {
    codegen::CkksExecutor Exec(Compiled->Program, Compiled->State);
    ASSERT_FALSE(Exec.setup());
    size_t Want = declaredKeyBytes(Exec.context());
    ASSERT_GT(Want, 0u);
    size_t RotationBytes = Exec.evalKeyBytes() - Exec.evalKeys().byteSize();
    EXPECT_EQ(RotationBytes, Want);
    EXPECT_EQ(evalKeysCharge() - Baseline, Want);

    Pool.trim();
    size_t Total = Gov.stats().totalChargedBytes();
    size_t InUse = Pool.stats().InUseBytes;
    EXPECT_EQ(Total - TotalBefore, Want + (InUse - InUseBefore));
    EXPECT_EQ(Exec.keyCache()->releaseAll(), Want);
    Pool.trim();
    EXPECT_EQ(Total - Gov.stats().totalChargedBytes(), Want);
    EXPECT_EQ(Pool.stats().InUseBytes, InUse);
  }
  EXPECT_EQ(evalKeysCharge(), Baseline);
  Pool.trim();
  EXPECT_EQ(Pool.stats().InUseBytes, InUseBefore);
  EXPECT_EQ(Gov.stats().totalChargedBytes(), TotalBefore);
}

TEST_F(ExecutorKeysTest, EagerSetupOverBudgetIsResourceExhausted) {
  size_t Want = 0;
  {
    codegen::CkksExecutor Probe(Compiled->Program, Compiled->State);
    ASSERT_FALSE(Probe.setup());
    Want = declaredKeyBytes(Probe.context());
  }
  // Empty the pool's free lists first: a reclaim pass trimming what the
  // probe left there would otherwise make room the keys never freed.
  LimbPool::instance().trim();
  size_t Baseline = evalKeysCharge();
  ResourceGovernor &Gov = ResourceGovernor::instance();
  Gov.setBudgetBytes(Gov.stats().totalChargedBytes() + Want - 1);
  codegen::CkksExecutor Exec(Compiled->Program, Compiled->State);
  Status S = Exec.setup();
  EXPECT_EQ(S.code(), ErrorCode::ResourceExhausted) << S.message();
  EXPECT_EQ(evalKeysCharge(), Baseline);
  // The failed setup leaves the executor unusable, not half keyed.
  nn::Tensor Zeros;
  Zeros.Shape = {1, 16};
  Zeros.Values.assign(16, 0.0f);
  EXPECT_EQ(Exec.keyCache(), nullptr);
  EXPECT_EQ(Exec.infer(Zeros).status().code(), ErrorCode::InvalidArgument);

  Gov.setBudgetBytes(SavedBudget);
  ASSERT_FALSE(Exec.setup());
}

} // namespace
