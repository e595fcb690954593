//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
//
// Telemetry across the full pipeline:
//  - property: enabling telemetry does not change encrypted-inference
//    results (bit-identical logits against a disabled run);
//  - golden counters: a small MLP compile+run produces nonzero telemetry
//    counts for every op category and executes the compiler's bootstrap
//    plan (the paper's op-count story);
//  - trace contents: the compile emits a span per compiler phase and the
//    run emits the mul/rotate/rescale/bootstrap runtime op spans.
//
//===----------------------------------------------------------------------===//

#include "codegen/CkksExecutor.h"
#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "support/Rng.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

using namespace ace;
using namespace ace::telemetry;

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

/// Compiles and runs the small bootstrap-bearing MLP (three ReLUs: the
/// third is bootstrapped); returns the logits.
std::vector<double> runMlp(const onnx::Model &Model,
                           const std::vector<nn::Tensor> &Inputs,
                           std::unique_ptr<driver::CompileResult> *KeepR) {
  driver::AceCompiler Compiler(toyOptions());
  auto Result = Compiler.compile(Model, Inputs);
  EXPECT_TRUE(Result.ok()) << Result.status().message();
  auto R = std::move(*Result);
  auto Exec = std::make_unique<codegen::CkksExecutor>(R->Program, R->State);
  Status S = Exec->setup();
  EXPECT_FALSE(S) << S.message();
  auto Logits = Exec->infer(Inputs[0]);
  EXPECT_TRUE(Logits.ok()) << Logits.status().message();
  if (KeepR)
    *KeepR = std::move(R);
  return Logits.ok() ? *Logits : std::vector<double>();
}

class TelemetryEndToEndTest : public ::testing::Test {
protected:
  void SetUp() override {
    Telemetry::instance().setEnabled(false);
    Telemetry::instance().clear();
  }
  void TearDown() override {
    Telemetry::instance().setEnabled(false);
    Telemetry::instance().clear();
  }
};

TEST_F(TelemetryEndToEndTest, EnablingTelemetryDoesNotChangeResults) {
  onnx::Model Model = nn::buildMlp({16, 12, 12, 12, 8}, 5);
  auto Inputs = randomInputs({1, 16}, 4, 19);

  std::vector<double> Off = runMlp(Model, Inputs, nullptr);
  Telemetry::instance().setEnabled(true);
  std::vector<double> On = runMlp(Model, Inputs, nullptr);

  ASSERT_EQ(Off.size(), On.size());
  ASSERT_FALSE(Off.empty());
  for (size_t I = 0; I < Off.size(); ++I)
    EXPECT_EQ(Off[I], On[I]) << "logit " << I
                             << " changed when telemetry was enabled";
}

TEST_F(TelemetryEndToEndTest, GoldenCountersMatchEvaluatorAndPlan) {
  Telemetry::instance().setEnabled(true);
  onnx::Model Model = nn::buildMlp({16, 12, 12, 12, 8}, 5);
  auto Inputs = randomInputs({1, 16}, 4, 19);

  std::unique_ptr<driver::CompileResult> R;
  std::vector<double> Logits = runMlp(Model, Inputs, &R);
  ASSERT_FALSE(Logits.empty());

  CounterSnapshot S = Telemetry::instance().counters();

  // The ReLU layers force real work: every category below is non-zero
  // on this model.
  EXPECT_GT(S.get(Counter::CtCtMul), 0u);
  EXPECT_GT(S.get(Counter::Rotate), 0u);
  EXPECT_GT(S.get(Counter::Rescale), 0u);
  EXPECT_GT(S.get(Counter::NttForward), 0u);
  EXPECT_GT(S.get(Counter::KeySwitchDigit), S.get(Counter::KeySwitch));

  // Bootstrap executions match the compiler's plan.
  EXPECT_EQ(R->State.BootstrapCount, S.get(Counter::Bootstrap));
  EXPECT_GT(S.get(Counter::Bootstrap), 0u);
}

// The executor opens one region span per contiguous run of nodes with
// the same origin (constants, materialized at use, belong to no run), so
// a request's trace holds one span per layer stretch, in program order.
TEST_F(TelemetryEndToEndTest, OneRegionSpanPerOriginRun) {
  Telemetry::instance().setEnabled(true);
  onnx::Model Model = nn::buildMlp({16, 12, 12, 12, 8}, 5);
  auto Inputs = randomInputs({1, 16}, 4, 19);
  std::unique_ptr<driver::CompileResult> R;
  ASSERT_FALSE(runMlp(Model, Inputs, &R).empty());

  std::vector<std::string> Runs;
  const air::IrNode *Prev = nullptr;
  for (const auto &N : R->Program.nodes()) {
    if (N->Kind == air::NodeKind::NK_ConstVec ||
        N->Kind == air::NodeKind::NK_CkksEncode)
      continue;
    if (!Prev || N->Origin != Prev->Origin)
      Runs.push_back(air::originKindName(N->Origin));
    Prev = N.get();
  }
  // Region spans close one after another on the executor's thread, so
  // the buffer holds them in program order.
  std::vector<std::string> Spans;
  for (const TraceEvent &E : Telemetry::instance().eventsCopy())
    if (std::string(E.Category) == "region")
      Spans.push_back(E.Name);
  // Gemm, ReLU, ..., bootstrap, ReLU, gemm: a handful of runs, not one
  // span per node.
  EXPECT_LT(Runs.size(), 20u);
  EXPECT_EQ(Spans, Runs);
}

TEST_F(TelemetryEndToEndTest, TraceContainsPassAndRuntimeOpSpans) {
  Telemetry::instance().setEnabled(true);
  onnx::Model Model = nn::buildMlp({16, 12, 12, 12, 8}, 5);
  auto Inputs = randomInputs({1, 16}, 4, 19);
  std::vector<double> Logits = runMlp(Model, Inputs, nullptr);
  ASSERT_FALSE(Logits.empty());

  std::set<std::string> Names;
  for (const TraceEvent &E : Telemetry::instance().eventsCopy())
    Names.insert(E.Name);

  // One span per compiler phase...
  for (const char *Phase : {"NN", "VECTOR", "SIHE", "CKKS", "compile"})
    EXPECT_TRUE(Names.count(Phase)) << "missing compiler span " << Phase;
  // ...and the runtime primitives the acceptance criteria name.
  for (const char *Op :
       {"ct-ct-mul", "ct-pt-mul", "rotate", "rescale", "bootstrap",
        "key-switch", "relinearize"})
    EXPECT_TRUE(Names.count(Op)) << "missing runtime op span " << Op;
  // Bootstrap stage spans nest inside the bootstrap op span.
  for (const char *Stage :
       {"ModRaise", "SubSum", "CoeffToSlot", "EvalMod", "SlotToCoeff"})
    EXPECT_TRUE(Names.count(Stage)) << "missing bootstrap stage " << Stage;

  // Health was recorded with plausible CKKS quantities.
  bool SawMulHealth = false;
  for (const auto &[Op, H] : Telemetry::instance().health()) {
    if (Op == Counter::CtCtMul) {
      SawMulHealth = true;
      EXPECT_GT(H.Count, 0u);
      EXPECT_GE(H.MinLevel, 1);
      EXPECT_GT(H.MinNoiseBudgetBits, 0.0);
    }
  }
  EXPECT_TRUE(SawMulHealth);

  // The written trace is structurally valid Chrome JSON.
  std::string Json;
  {
    std::ostringstream OS;
    Telemetry::instance().writeChromeTrace(OS);
    Json = OS.str();
  }
  EXPECT_EQ('{', Json.front());
  EXPECT_NE(std::string::npos, Json.find("\"traceEvents\":["));
  EXPECT_NE(std::string::npos, Json.find("\"noiseBudgetBits\""));
}

} // namespace
