//===----------------------------------------------------------------------===//
// Pass-level tests: BN folding, per-phase lowering invariants, parameter
// selection, rotation-key analysis, POLY lowering and its fusions.
//===----------------------------------------------------------------------===//

#include "codegen/CkksExecutor.h"
#include "driver/AceCompiler.h"
#include "expert/ExpertBaseline.h"
#include "nn/ModelZoo.h"
#include "passes/CkksToPoly.h"
#include "passes/Frontend.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace ace;

namespace {

std::vector<nn::Tensor> randomInputs(int64_t Dim, int Count,
                                     uint64_t Seed) {
  Rng R(Seed);
  std::vector<nn::Tensor> Out;
  for (int I = 0; I < Count; ++I) {
    nn::Tensor T;
    T.Shape = {1, Dim};
    T.Values.resize(Dim);
    for (auto &V : T.Values)
      V = static_cast<float>(R.uniformReal(-1, 1));
    Out.push_back(std::move(T));
  }
  return Out;
}

TEST(FrontendTest, BatchNormFoldsIntoConv) {
  nn::NanoResNetSpec Spec;
  Spec.BlocksPerStage = 1;
  Spec.Channels = {2, 4};
  Spec.InputHW = 4;
  Spec.InputChannels = 2;
  Spec.Classes = 4;
  Spec.WithBatchNorm = true;
  nn::Dataset Data = nn::makeSyntheticDataset({1, 2, 4, 4}, 4, 4, 0.1, 5);
  auto MOr = nn::buildNanoResNet(Spec, Data, 7);
  ASSERT_TRUE(MOr.ok()) << MOr.status().message();
  onnx::Model M = MOr.take();

  auto Folded = passes::foldBatchNorm(M.MainGraph);
  ASSERT_TRUE(Folded.ok()) << Folded.status().message();
  for (const auto &N : Folded->Nodes)
    EXPECT_NE(N.Kind, onnx::OpKind::OK_BatchNormalization);
  // Semantics preserved.
  auto A = nn::executeSingle(M.MainGraph, Data.Images[0]);
  auto B = nn::executeSingle(*Folded, Data.Images[0]);
  ASSERT_TRUE(A.ok() && B.ok());
  for (size_t I = 0; I < A->Values.size(); ++I)
    EXPECT_NEAR(A->Values[I], B->Values[I], 1e-4);
}

TEST(PipelineTest, PhaseCountsGrowDownTheStack) {
  onnx::Model M = nn::buildMlp({16, 12, 8}, 5);
  driver::AceCompiler Compiler(air::CompileOptions{});
  auto R = Compiler.compile(M, randomInputs(16, 2, 3));
  ASSERT_TRUE(R.ok()) << R.status().message();
  auto &RC = **R;
  // Lowering expands the program at every level (paper Sec. 4.5: a small
  // model grows from a handful of NN nodes to hundreds of POLY lines).
  EXPECT_LT(RC.PhaseNodeCounts["NN"], RC.PhaseNodeCounts["VECTOR"]);
  EXPECT_LE(RC.PhaseNodeCounts["VECTOR"], RC.PhaseNodeCounts["SIHE"]);
  EXPECT_LT(RC.PhaseNodeCounts["SIHE"], RC.PhaseNodeCounts["CKKS"]);
}

TEST(PipelineTest, RotationAnalysisFindsGemvDiagonals) {
  onnx::Model M = nn::buildLinearInfer(3);
  driver::AceCompiler Compiler(air::CompileOptions{});
  auto R = Compiler.compile(M, randomInputs(84, 2, 3));
  ASSERT_TRUE(R.ok());
  // Halevi-Shoup over a 128-wide layout: steps are multiples of the
  // element stride, bounded by the padded capacity.
  EXPECT_FALSE((*R)->State.RotationSteps.empty());
  EXPECT_LE((*R)->State.RotationSteps.size(), 128u);
  for (int64_t S : (*R)->State.RotationSteps) {
    EXPECT_GT(S, 0);
    EXPECT_LT(S, 128);
  }
  // No ReLU: no relin, no conjugation, no bootstrapping.
  EXPECT_FALSE((*R)->State.NeedsRelin);
  EXPECT_FALSE((*R)->State.NeedsConjugation);
  EXPECT_EQ((*R)->State.BootstrapCount, 0u);
}

TEST(PipelineTest, ParameterSelectionScalesWithDepth) {
  driver::AceCompiler Compiler(air::CompileOptions{});
  auto Shallow = Compiler.compile(nn::buildLinearInfer(3),
                                  randomInputs(84, 2, 3));
  auto Deep = Compiler.compile(nn::buildMlp({16, 12, 12, 8}, 5),
                               randomInputs(16, 2, 3));
  ASSERT_TRUE(Shallow.ok() && Deep.ok());
  EXPECT_LT((*Shallow)->State.SelectedParams.NumRescaleModuli,
            (*Deep)->State.SelectedParams.NumRescaleModuli);
  // Production selection reports a standardized ring (paper Table 10).
  EXPECT_GE((*Shallow)->State.SecureRingDegree, 1024u);
  EXPECT_GE((*Deep)->State.SecureRingDegree,
            (*Shallow)->State.SecureRingDegree);
}

TEST(PipelineTest, ExpertOptionsDisableAutomation) {
  air::CompileOptions Opt = expert::expertOptions(air::CompileOptions{});
  EXPECT_FALSE(Opt.EnableRotationKeyAnalysis);
  EXPECT_FALSE(Opt.EnableMinimalBootstrapLevel);
  EXPECT_FALSE(Opt.EnableRescalePlacement);

  // Expert compilation selects a longer chain for the same model: it
  // budgets a margin on top of the levels the program needs.
  onnx::Model M = nn::buildMlp({16, 12, 8}, 5);
  driver::AceCompiler Ace{air::CompileOptions{}};
  driver::AceCompiler Exp{Opt};
  auto A = Ace.compile(M, randomInputs(16, 2, 3));
  auto E = Exp.compile(M, randomInputs(16, 2, 3));
  ASSERT_TRUE(A.ok() && E.ok());
  EXPECT_LT((*A)->State.SelectedParams.NumRescaleModuli,
            (*E)->State.SelectedParams.NumRescaleModuli);
}

TEST(PolyLoweringTest, FusionReducesLoopAndOpCounts) {
  onnx::Model M = nn::buildLinearInfer(3);
  driver::AceCompiler Compiler(air::CompileOptions{});
  auto R = Compiler.compile(M, randomInputs(84, 2, 3));
  ASSERT_TRUE(R.ok());

  auto Plain = passes::countPolyOps((*R)->Program, (*R)->State, false);
  auto Fused = passes::countPolyOps((*R)->Program, (*R)->State, true);
  ASSERT_TRUE(Plain.ok()) << Plain.status().message();
  ASSERT_TRUE(Fused.ok()) << Fused.status().message();
  EXPECT_LT(Fused->RnsLoops, Plain->RnsLoops);
  EXPECT_LT(Fused->totalHwOps(), Plain->totalHwOps());

  // The exact counts of the program emit_c writes for this model: 21 key
  // switches (the generated binary's telemetry reads 21 key-switch and
  // 21 modup, GeneratedCTest.CompilesAndRuns).
  EXPECT_EQ(Plain->RnsLoops, 235u);
  EXPECT_EQ(Plain->totalHwOps(), 3068u);
  EXPECT_EQ(Plain->HwModMul, 1405u);
  EXPECT_EQ(Plain->HwModAdd, 1249u);
  EXPECT_EQ(Plain->HwModMulAdd, 0u);
  EXPECT_EQ(Plain->HwNtt, 301u);
  EXPECT_EQ(Plain->HwIntt, 113u);
  EXPECT_EQ(Plain->Decomp, 21u);
  EXPECT_EQ(Plain->ModUp, 21u);
  EXPECT_EQ(Plain->ModDown, 21u);
  EXPECT_EQ(Plain->FusedDecompModUp, 0u);

  EXPECT_EQ(Fused->RnsLoops, 40u);
  EXPECT_EQ(Fused->totalHwOps(), 2363u);
  EXPECT_EQ(Fused->HwModMul, 142u);
  EXPECT_EQ(Fused->HwModAdd, 544u);
  EXPECT_EQ(Fused->HwModMulAdd, 1263u);
  EXPECT_EQ(Fused->HwNtt, 301u);
  EXPECT_EQ(Fused->HwIntt, 113u);
  EXPECT_EQ(Fused->Decomp, 0u);
  EXPECT_EQ(Fused->ModUp, 0u);
  EXPECT_EQ(Fused->ModDown, 21u);
  EXPECT_EQ(Fused->FusedDecompModUp, 21u);
}

// A single-gemm model with explicit control over the weight matrix, for
// exercising the gemm lowering's degenerate shapes (docs/compiler.md).
onnx::Model singleGemm(int64_t C, int64_t K, bool WithBias, uint64_t Seed,
                       double BandWidth = -1.0) {
  onnx::Model M;
  M.ProducerName = "gemm_edge";
  onnx::Graph &G = M.MainGraph;
  G.Name = "gemm_edge";
  G.Inputs.push_back({"x", {1, C}});
  Rng R(Seed);
  onnx::TensorData W;
  W.Shape = {K, C};
  W.Values.resize(K * C);
  for (int64_t Ko = 0; Ko < K; ++Ko)
    for (int64_t Ci = 0; Ci < C; ++Ci) {
      // BandWidth >= 0 zeroes everything off the band, so only a few
      // distinct diagonals survive.
      bool OnBand = BandWidth < 0 || std::llabs(Ko - Ci) <= BandWidth;
      W.Values[Ko * C + Ci] =
          OnBand ? static_cast<float>(R.uniformReal(-1, 1)) : 0.0f;
    }
  G.Initializers.emplace("w", std::move(W));
  onnx::Node N;
  N.Kind = onnx::OpKind::OK_Gemm;
  N.Name = "out";
  N.Inputs = {"x", "w"};
  if (WithBias) {
    onnx::TensorData B;
    B.Shape = {K};
    for (int64_t Ko = 0; Ko < K; ++Ko)
      B.Values.push_back(static_cast<float>(R.uniformReal(-0.1, 0.1)));
    G.Initializers.emplace("b", std::move(B));
    N.Inputs.push_back("b");
  }
  N.Outputs = {"out"};
  N.Attributes["transB"] = onnx::Attribute{{1}, {}};
  G.Nodes.push_back(std::move(N));
  G.Outputs.push_back({"out", {1, K}});
  return M;
}

size_t occurrences(const std::string &Text, const std::string &Word) {
  size_t Count = 0;
  for (size_t At = Text.find(Word); At != std::string::npos;
       At = Text.find(Word, At + Word.size()))
    ++Count;
  return Count;
}

// Compiles one gemm, checks that it lowers to a single mat_diag with the
// pinned rotation count and chain length, and checks encrypted inference
// against the cleartext executor.
void checkGemmEdgeCase(const onnx::Model &M, int64_t C, size_t Rotations,
                       int Primes, uint64_t InputSeed = 23) {
  air::CompileOptions Opt;
  Opt.Seed = 11;
  driver::AceCompiler Compiler(Opt);
  auto Inputs = randomInputs(C, 2, InputSeed);
  auto R = Compiler.compile(M, Inputs, /*KeepDumps=*/true);
  ASSERT_TRUE(R.ok()) << R.status().message();
  const std::string &Vector = (*R)->PhaseDumps["VECTOR"];
  EXPECT_EQ(occurrences(Vector, "VECTOR.mat_diag"), 1u) << Vector;
  EXPECT_EQ(occurrences(Vector, "VECTOR.roll"), 0u) << Vector;
  EXPECT_EQ((*R)->State.Budget.Rotate, Rotations);
  EXPECT_EQ((*R)->State.SelectedParams.NumRescaleModuli + 1, Primes);

  codegen::CkksExecutor Exec((*R)->Program, (*R)->State);
  ASSERT_FALSE(Exec.setup());
  auto Clear = nn::executeSingle(M.MainGraph, Inputs[0]);
  ASSERT_TRUE(Clear.ok());
  auto Logits = Exec.infer(Inputs[0]);
  ASSERT_TRUE(Logits.ok()) << Logits.status().message();
  ASSERT_EQ(Logits->size(), Clear->Values.size());
  for (size_t I = 0; I < Logits->size(); ++I)
    EXPECT_NEAR((*Logits)[I], Clear->Values[I], 0.02) << "logit " << I;
}

TEST(GemmLoweringTest, OneRowGemmIsOneMatDiag) {
  // K=1: the single output sums all 16 inputs, one nonzero diagonal per
  // input element: 3 baby and 3 giant rotations.
  checkGemmEdgeCase(singleGemm(/*C=*/16, /*K=*/1, /*WithBias=*/true, 41),
                    16, /*Rotations=*/6, /*Primes=*/3);
}

TEST(GemmLoweringTest, OneColumnGemmIsOneMatDiag) {
  // C=1: every output is a scalar multiple of the one input element, so
  // each output row has a diagonal of its own (6 of 8): 3 baby rotations
  // and 1 giant.
  checkGemmEdgeCase(singleGemm(/*C=*/1, /*K=*/6, /*WithBias=*/true, 43), 1,
                    /*Rotations=*/4, /*Primes=*/3,
                    /*InputSeed=*/29);
}

TEST(GemmLoweringTest, TridiagonalGemmIsOneMatDiag) {
  // A tridiagonal 24x24 weight matrix populates 3 of 32 diagonals (0, 1
  // and 31): 2 baby rotations and 1 giant.
  checkGemmEdgeCase(singleGemm(/*C=*/24, /*K=*/24, /*WithBias=*/true, 47,
                               /*BandWidth=*/1.0),
                    24, /*Rotations=*/3, /*Primes=*/3);
}

TEST(GemmLoweringTest, RaggedAndZeroBiasGemmsAreOneMatDiag) {
  // Ragged (non-power-of-two, K != C) and bias-less shapes walk the
  // padding and optional-operand branches: a dense 13x7 gemm, its
  // tridiagonal band, and a one-row 13x1 gemm.
  checkGemmEdgeCase(singleGemm(/*C=*/13, /*K=*/7, /*WithBias=*/false, 53),
                    13, /*Rotations=*/6, /*Primes=*/3);
  checkGemmEdgeCase(singleGemm(/*C=*/13, /*K=*/7, /*WithBias=*/false, 53,
                               /*BandWidth=*/1.0),
                    13, /*Rotations=*/3, /*Primes=*/3);
  checkGemmEdgeCase(singleGemm(/*C=*/13, /*K=*/1, /*WithBias=*/false, 53),
                    13, /*Rotations=*/6, /*Primes=*/3);
}

} // namespace
