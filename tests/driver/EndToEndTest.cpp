//===----------------------------------------------------------------------===//
// End-to-end pipeline tests: compile a model through all five IR levels,
// run encrypted inference on the ACEfhe runtime, and compare against the
// cleartext executor (the core correctness claim of the compiler).
//===----------------------------------------------------------------------===//

#include "codegen/CkksExecutor.h"
#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "support/FaultInjector.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace ace;

namespace {

air::CompileOptions toyOptions() {
  air::CompileOptions Opt;
  Opt.Seed = 11;
  return Opt;
}

std::vector<nn::Tensor> randomInputs(const std::vector<int64_t> &Shape,
                                     int Count, uint64_t Seed) {
  Rng R(Seed);
  std::vector<nn::Tensor> Out;
  for (int I = 0; I < Count; ++I) {
    nn::Tensor T;
    T.Shape = Shape;
    int64_t N = T.elementCount();
    T.Values.resize(N);
    for (auto &V : T.Values)
      V = static_cast<float>(R.uniformReal(-1.0, 1.0));
    Out.push_back(std::move(T));
  }
  return Out;
}

void expectLogitsClose(const std::vector<double> &Encrypted,
                       const nn::Tensor &Clear, double Tol) {
  ASSERT_EQ(Encrypted.size(), Clear.Values.size());
  for (size_t I = 0; I < Encrypted.size(); ++I)
    EXPECT_NEAR(Encrypted[I], Clear.Values[I], Tol) << "logit " << I;
}

TEST(EndToEndTest, LinearInferMatchesCleartext) {
  // The paper's Figure 4 motivating model: one gemv.
  onnx::Model Model = nn::buildLinearInfer(3);
  auto Inputs = randomInputs({1, 84}, 3, 17);

  driver::AceCompiler Compiler(toyOptions());
  auto Result = Compiler.compile(Model, Inputs, /*KeepDumps=*/true);
  ASSERT_TRUE(Result.ok()) << Result.status().message();
  auto &R = **Result;

  // No ReLU: no bootstrapping needed, shallow chain.
  EXPECT_EQ(R.State.BootstrapCount, 0u);
  EXPECT_GE(R.PhaseNodeCounts["CKKS"], 8u);

  codegen::CkksExecutor Exec(R.Program, R.State);
  ASSERT_FALSE(Exec.setup());
  for (const auto &In : Inputs) {
    auto Clear = nn::executeSingle(Model.MainGraph, In);
    ASSERT_TRUE(Clear.ok());
    auto Logits = Exec.infer(In);
    ASSERT_TRUE(Logits.ok()) << Logits.status().message();
    expectLogitsClose(*Logits, *Clear, 0.02);
  }
}

/// Compiles \p Model with toy parameters, checks its bootstrap count and
/// runs it on \p Inputs against the cleartext executor.
void expectMlpMatchesCleartext(const onnx::Model &Model,
                               const std::vector<nn::Tensor> &Inputs,
                               size_t Bootstraps) {
  driver::AceCompiler Compiler(toyOptions());
  auto Result = Compiler.compile(Model, Inputs);
  ASSERT_TRUE(Result.ok()) << Result.status().message();
  auto &R = **Result;

  EXPECT_EQ(R.State.BootstrapCount, Bootstraps);
  EXPECT_TRUE(R.State.NeedsRelin);

  codegen::CkksExecutor Exec(R.Program, R.State);
  ASSERT_FALSE(Exec.setup());
  for (const auto &In : Inputs) {
    auto Clear = nn::executeSingle(Model.MainGraph, In);
    ASSERT_TRUE(Clear.ok());
    auto Logits = Exec.infer(In);
    ASSERT_TRUE(Logits.ok()) << Logits.status().message();
    // ReLU is approximated; compare with a tolerance proportional to the
    // activation scale.
    expectLogitsClose(*Logits, *Clear, 0.25);
  }
}

TEST(EndToEndTest, MlpWithReluMatchesCleartext) {
  // Three ReLU layers: encryption carries the first two, one bootstrap
  // refreshes the third.
  expectMlpMatchesCleartext(nn::buildMlp({16, 12, 12, 12, 8}, 5),
                            randomInputs({1, 16}, 4, 19), /*Bootstraps=*/1);
}

TEST(EndToEndTest, OneReluMlpMatchesCleartextWithoutBootstrap) {
  // The input is encrypted at the level its only ReLU needs.
  expectMlpMatchesCleartext(nn::buildMlp({16, 12, 8}, 5),
                            randomInputs({1, 16}, 4, 19), /*Bootstraps=*/0);
}

TEST(EndToEndTest, TinyCnnMatchesCleartext) {
  nn::NanoResNetSpec Spec;
  Spec.Name = "test-cnn";
  Spec.BlocksPerStage = 1;
  Spec.Channels = {2, 4};
  Spec.InputHW = 4;
  Spec.InputChannels = 2;
  Spec.Classes = 4;
  nn::Dataset Data = nn::makeSyntheticDataset(
      {1, Spec.InputChannels, Spec.InputHW, Spec.InputHW}, Spec.Classes, 6,
      0.1, 23);
  auto ModelOr = nn::buildNanoResNet(Spec, Data, 29);
  ASSERT_TRUE(ModelOr.ok()) << ModelOr.status().message();
  onnx::Model Model = ModelOr.take();

  driver::AceCompiler Compiler(toyOptions());
  auto Result = Compiler.compile(Model, Data.Images);
  ASSERT_TRUE(Result.ok()) << Result.status().message();
  auto &R = **Result;
  EXPECT_GT(R.State.BootstrapCount, 0u);
  EXPECT_FALSE(R.State.RotationSteps.empty());

  codegen::CkksExecutor Exec(R.Program, R.State);
  ASSERT_FALSE(Exec.setup());
  size_t Agree = 0;
  for (size_t I = 0; I < 3; ++I) {
    auto Clear = nn::executeSingle(Model.MainGraph, Data.Images[I]);
    ASSERT_TRUE(Clear.ok());
    auto Logits = Exec.infer(Data.Images[I]);
    ASSERT_TRUE(Logits.ok()) << Logits.status().message();
    nn::Tensor L;
    L.Shape = {1, static_cast<int64_t>(Logits->size())};
    L.Values.assign(Logits->begin(), Logits->end());
    Agree += nn::argmax(L) == nn::argmax(*Clear);
  }
  EXPECT_GE(Agree, 2u) << "encrypted decisions diverged from cleartext";
}

TEST(EndToEndTest, ExecutorPropagatesInjectedFaults) {
  // A fault injected at encryption must abort the encrypted inference
  // with a diagnostic Status - the full compiled pipeline never crashes
  // and never returns wrong logits.
  onnx::Model Model = nn::buildLinearInfer(3);
  auto Inputs = randomInputs({1, 84}, 1, 17);

  driver::AceCompiler Compiler(toyOptions());
  auto Result = Compiler.compile(Model, Inputs);
  ASSERT_TRUE(Result.ok()) << Result.status().message();
  auto &R = **Result;

  codegen::CkksExecutor Exec(R.Program, R.State);
  ASSERT_FALSE(Exec.setup());

  FaultInjector::instance().reset();
  for (FaultKind Kind :
       {FaultKind::ScaleDrift, FaultKind::SlotCorrupt,
        FaultKind::TruncateChain}) {
    FaultInjector::instance().arm(Kind);
    auto Logits = Exec.infer(Inputs[0]);
    FaultInjector::instance().reset();
    ASSERT_FALSE(Logits.ok())
        << "fault " << faultKindName(Kind) << " was swallowed";
    EXPECT_FALSE(Logits.status().message().empty());
    EXPECT_NE(Logits.status().code(), ErrorCode::Ok);
  }

  // With the injector quiet again the same executor still works.
  auto Clear = nn::executeSingle(Model.MainGraph, Inputs[0]);
  ASSERT_TRUE(Clear.ok());
  auto Logits = Exec.infer(Inputs[0]);
  ASSERT_TRUE(Logits.ok()) << Logits.status().message();
  expectLogitsClose(*Logits, *Clear, 0.02);
}

/// A second setup() builds a new context and secret, so nothing of the
/// first may survive it: every key and every encoded plaintext the first
/// call made refers to the old context, the bootstrapper's keys included
/// (three ReLUs, so the third is bootstrapped).
TEST(EndToEndTest, SecondSetupStartsFromFreshKeysAndPlaintexts) {
  onnx::Model Model = nn::buildMlp({16, 12, 12, 12, 8}, 5);
  auto Inputs = randomInputs({1, 16}, 2, 19);

  driver::AceCompiler Compiler(toyOptions());
  auto Result = Compiler.compile(Model, Inputs);
  ASSERT_TRUE(Result.ok()) << Result.status().message();
  auto &R = **Result;
  ASSERT_GT(R.State.BootstrapCount, 0u);

  codegen::CkksExecutor Exec(R.Program, R.State);
  ASSERT_FALSE(Exec.setup());
  // Fill the plaintext cache under the first context.
  ASSERT_TRUE(Exec.infer(Inputs[0]).ok());
  ASSERT_FALSE(Exec.setup(/*SeedOverride=*/977));
  for (const auto &In : Inputs) {
    auto Clear = nn::executeSingle(Model.MainGraph, In);
    ASSERT_TRUE(Clear.ok());
    auto Logits = Exec.infer(In);
    ASSERT_TRUE(Logits.ok()) << Logits.status().message();
    expectLogitsClose(*Logits, *Clear, 0.25);
  }
}

} // namespace
