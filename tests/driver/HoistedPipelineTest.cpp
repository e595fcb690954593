//===----------------------------------------------------------------------===//
// Pipeline-level proof of rotation hoisting: compiling a diagonal matvec
// model and running it on the executor must perform exactly ONE digit
// decomposition (ModUp) for the whole baby-step batch - the telemetry
// counters make the sharing observable - while the logits still match
// the cleartext reference.
//===----------------------------------------------------------------------===//

#include "codegen/CkksExecutor.h"
#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

using namespace ace;
using telemetry::Counter;
using telemetry::CounterSnapshot;
using telemetry::Telemetry;

namespace {

air::CompileOptions toyOptions() {
  air::CompileOptions Opt;
  Opt.Seed = 11;
  return Opt;
}

nn::Tensor randomInput(uint64_t Seed) {
  nn::Tensor T;
  T.Shape = {1, 84};
  T.Values.resize(84);
  Rng R(Seed);
  for (auto &V : T.Values)
    V = static_cast<float>(R.uniformReal(-1.0, 1.0));
  return T;
}

class HoistedPipelineTest : public ::testing::Test {
protected:
  void TearDown() override {
    ThreadPool::instance().setNumThreads(0);
    Telemetry::instance().setEnabled(false);
    Telemetry::instance().clear();
  }
};

TEST_F(HoistedPipelineTest, LinearMatvecPaysOneModUpForBabySteps) {
  onnx::Model Model = nn::buildLinearInfer(3);
  std::vector<nn::Tensor> Inputs = {randomInput(23), randomInput(29)};

  driver::AceCompiler Compiler(toyOptions());
  auto Result = Compiler.compile(Model, Inputs);
  ASSERT_TRUE(Result.ok()) << Result.status().message();
  auto &R = **Result;
  // BSGS lowering: the rotation-key working set of an 84-wide gemv is
  // sqrt-scale (babies + giants), not one key per nonzero diagonal.
  EXPECT_FALSE(R.State.RotationSteps.empty());
  EXPECT_LE(R.State.RotationSteps.size(), 24u)
      << "BSGS key budget regressed toward one key per diagonal";

  codegen::CkksExecutor Exec(R.Program, R.State);
  ASSERT_FALSE(Exec.setup());
  auto Ct = Exec.encryptInput(Inputs[0]);
  ASSERT_TRUE(Ct.ok());

  Telemetry::instance().setEnabled(true);
  CounterSnapshot Before = Telemetry::instance().counters();
  auto Out = Exec.run(*Ct);
  CounterSnapshot D = Telemetry::instance().counters().deltaSince(Before);
  Telemetry::instance().setEnabled(false);
  ASSERT_TRUE(Out.ok()) << Out.status().message();

  // The model is one linear layer: every key switch is a rotation, the
  // baby steps form ONE hoisted batch, and each giant rotation is a
  // singleton. So the decomposition count must be exactly
  //   ModUp = (Rotate - HoistedKeySwitch) + 1
  // (N rotations -> 1 ModUp for the batch). Before hoisting this was
  // ModUp == Rotate.
  ASSERT_GT(D.get(Counter::Rotate), 0u);
  EXPECT_EQ(D.get(Counter::KeySwitch), D.get(Counter::Rotate));
  EXPECT_GE(D.get(Counter::HoistedKeySwitch), 2u);
  EXPECT_EQ(D.get(Counter::ModUp),
            D.get(Counter::Rotate) - D.get(Counter::HoistedKeySwitch) + 1);

  // And the hoisted path still computes the right thing.
  auto Logits = Exec.decryptLogits(*Out);
  ASSERT_TRUE(Logits.ok());
  auto Clear = nn::executeSingle(Model.MainGraph, Inputs[0]);
  ASSERT_TRUE(Clear.ok());
  ASSERT_EQ(Logits->size(), Clear->Values.size());
  for (size_t I = 0; I < Logits->size(); ++I)
    EXPECT_NEAR((*Logits)[I], Clear->Values[I], 0.02) << "logit " << I;
}

TEST_F(HoistedPipelineTest, LogitsBitIdenticalAcrossThreadCounts) {
  // The hoisted batches run on the thread pool; the pool contract says
  // the ciphertext (and thus every logit bit) cannot depend on the
  // worker count.
  onnx::Model Model = nn::buildLinearInfer(3);
  std::vector<nn::Tensor> Inputs = {randomInput(31)};

  driver::AceCompiler Compiler(toyOptions());
  auto Result = Compiler.compile(Model, Inputs);
  ASSERT_TRUE(Result.ok()) << Result.status().message();
  auto &R = **Result;

  auto RunAt = [&](size_t Threads) {
    ThreadPool::instance().setNumThreads(Threads);
    codegen::CkksExecutor Exec(R.Program, R.State);
    EXPECT_FALSE(Exec.setup());
    auto Logits = Exec.infer(Inputs[0]);
    EXPECT_TRUE(Logits.ok());
    return *Logits;
  };

  std::vector<double> Serial = RunAt(1);
  std::vector<double> Threaded = RunAt(4);
  ASSERT_EQ(Serial.size(), Threaded.size());
  for (size_t I = 0; I < Serial.size(); ++I)
    EXPECT_EQ(Serial[I], Threaded[I]) << "logit " << I;
}

} // namespace
