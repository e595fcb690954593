//===----------------------------------------------------------------------===//
// ReLU approximation tests (paper Sec. 4.3 / [36]): the composite
// odd-polynomial sign expansion must approximate relu on [-1, 1], in
// plain math and homomorphically through the compiled pipeline.
//===----------------------------------------------------------------------===//

#include "codegen/CkksExecutor.h"
#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "passes/VectorToSihe.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

using namespace ace;

namespace {

/// Plain evaluation of the composite: f(t) iterated from t = Prescale x,
/// then relu = 0.5 x (1 + p), each power computed as its own product.
/// With Prescale = 1.4 this is the function the compiler's folded
/// expansion computes.
double compositeRelu(double X, int Iterations, double Prescale = 1.0) {
  double T = Prescale * X;
  for (int I = 0; I < Iterations; ++I) {
    double T2 = T * T, T3 = T2 * T, T5 = T2 * T3, T7 = T2 * T5;
    T = (35 * T - 35 * T3 + 21 * T5 - 5 * T7) / 16;
  }
  return 0.5 * X * (1 + T);
}

/// \p Relus + 1 identity gemms over a D-wide input, each but the last
/// followed by a ReLU: gemm gL writes "yL", ReLU "rL" reads it.
onnx::Model identityModel(int64_t D, int Relus) {
  onnx::Model M;
  onnx::Graph &G = M.MainGraph;
  G.Inputs.push_back({"x", {1, D}});
  onnx::TensorData Id;
  Id.Shape = {D, D};
  Id.Values.assign(D * D, 0.0f);
  for (int64_t I = 0; I < D; ++I)
    Id.Values[I * D + I] = 1.0f;
  G.Initializers.emplace("w", Id);
  std::string In = "x";
  for (int Layer = 0; Layer <= Relus; ++Layer) {
    bool Last = Layer == Relus;
    std::string Y = Last ? "out" : "y" + std::to_string(Layer);
    onnx::Node N;
    N.Kind = onnx::OpKind::OK_Gemm;
    N.Name = "g" + std::to_string(Layer);
    N.Inputs = {In, "w"};
    N.Outputs = {Y};
    N.Attributes["transB"] = onnx::Attribute{{1}, {}};
    G.Nodes.push_back(std::move(N));
    if (!Last) {
      onnx::Node Relu;
      Relu.Kind = onnx::OpKind::OK_Relu;
      Relu.Name = In = "r" + std::to_string(Layer);
      Relu.Inputs = {Y};
      Relu.Outputs = {In};
      G.Nodes.push_back(std::move(Relu));
    }
  }
  G.Outputs.push_back({"out", {1, D}});
  return M;
}

std::vector<nn::Tensor> calibration(int64_t D) {
  Rng R(9);
  std::vector<nn::Tensor> Calib(2);
  for (auto &T : Calib) {
    T.Shape = {1, D};
    T.Values.resize(D);
    for (auto &V : T.Values)
      V = static_cast<float>(R.uniformReal(-0.9, 0.9));
  }
  return Calib;
}

TEST(ReluApproxTest, CompositeConvergesToSign) {
  // Away from zero, more iterations mean a better relu.
  for (double X : {-0.9, -0.5, -0.2, 0.2, 0.5, 0.9}) {
    double True = X > 0 ? X : 0.0;
    double E1 = std::fabs(compositeRelu(X, 1) - True);
    double E3 = std::fabs(compositeRelu(X, 3) - True);
    EXPECT_LE(E3, E1 + 1e-12) << "x=" << X;
    EXPECT_LT(E3, 0.01) << "x=" << X;
  }
}

TEST(ReluApproxTest, ErrorConcentratesNearZero) {
  double MaxFar = 0, MaxNear = 0;
  for (double X = -1.0; X <= 1.0; X += 0.001) {
    double Err = std::fabs(compositeRelu(X, 2) - (X > 0 ? X : 0.0));
    if (std::fabs(X) > 0.15)
      MaxFar = std::fmax(MaxFar, Err);
    else
      MaxNear = std::fmax(MaxNear, Err);
  }
  EXPECT_LT(MaxFar, 0.03);
  EXPECT_GT(MaxNear, MaxFar); // the hard region is around the kink
}

TEST(ReluApproxTest, DepthModelMatchesOptions) {
  EXPECT_EQ(passes::reluDepth(1), 4);
  EXPECT_EQ(passes::reluDepth(2), 7);
  EXPECT_EQ(passes::reluDepth(3), 10);
}

// The depth model is the compiled IR's: the bootstrap before the last
// ReLU refreshes to exactly reluDepth levels plus the primes the trailing
// gemm needs, read from that gemm compiled on its own. Encryption carries
// the leading ReLUs the chain holds, so each step count compiles enough
// ReLUs to leave one bootstrap: at It = 1 a ReLU costs only 4 levels and
// three of them fit.
TEST(ReluApproxTest, CompiledBootstrapTargetMatchesDepthModel) {
  const int64_t D = 8;
  driver::AceCompiler Tail{air::CompileOptions{}};
  auto TailResult = Tail.compile(identityModel(D, 0), calibration(D));
  ASSERT_TRUE(TailResult.ok()) << TailResult.status().message();
  int TailNumQ = static_cast<int>((*TailResult)->State.InputNumQ);
  ASSERT_GT(TailNumQ, 1);

  for (auto [Iterations, Relus] : {std::pair{1, 4}, {2, 3}, {3, 3}}) {
    air::CompileOptions Opt;
    Opt.ReluSignIterations = Iterations;
    driver::AceCompiler Compiler(Opt);
    auto Result = Compiler.compile(identityModel(D, Relus), calibration(D));
    ASSERT_TRUE(Result.ok()) << Result.status().message();
    std::vector<int> Targets;
    for (const auto &N : (*Result)->Program.nodes())
      if (N->Kind == air::NodeKind::NK_CkksBootstrap)
        Targets.push_back(N->BootstrapTarget);
    ASSERT_EQ(Targets.size(), 1u) << "iterations " << Iterations;
    EXPECT_EQ(Targets[0], passes::reluDepth(Iterations) + TailNumQ)
        << "iterations " << Iterations;
  }
}

TEST(ReluApproxTest, ZeroIterationsAreRejected) {
  air::CompileOptions Opt;
  Opt.ReluSignIterations = 0;
  driver::AceCompiler Compiler(Opt);
  auto Result = Compiler.compile(identityModel(8, 1), calibration(8));
  ASSERT_FALSE(Result.ok());
  EXPECT_NE(Result.status().message().find("ReluSignIterations"),
            std::string::npos)
      << Result.status().message();
}

TEST(ReluApproxTest, HomomorphicReluThroughPipeline) {
  // Identity gemms around one ReLU, then around three: compare the
  // encrypted pipeline against true relu slot by slot. Encryption carries
  // the first two ReLUs, so only the third runs behind a bootstrap.
  const int64_t D = 8;
  std::vector<nn::Tensor> Calib = calibration(D);
  for (int Relus : {1, 3}) {
    driver::AceCompiler Compiler(air::CompileOptions{});
    auto Result = Compiler.compile(identityModel(D, Relus), Calib);
    ASSERT_TRUE(Result.ok()) << Result.status().message();
    EXPECT_EQ((*Result)->State.BootstrapCount, Relus == 1 ? 0u : 1u);
    codegen::CkksExecutor Exec((*Result)->Program, (*Result)->State);
    ASSERT_FALSE(Exec.setup());

    auto Logits = Exec.infer(Calib[0]);
    ASSERT_TRUE(Logits.ok());
    for (int64_t I = 0; I < D; ++I) {
      double X = Calib[0].Values[I];
      double True = X > 0 ? X : 0.0;
      // Approximation error dominated by the kink region; generous bound.
      EXPECT_NEAR((*Logits)[I], True, 0.12) << "x=" << X << " relus=" << Relus;
      // The frontend feeds ReLU rL the value yL / S, S the calibrated
      // bound of yL, and the next gemm multiplies S back in. The folded,
      // depth-3-per-step expansion computes the unfolded composite
      // 0.5 u (1 + f(f(f(1.4 u)))) at each u: only CKKS noise separates
      // them (measured 8e-10 with encryption as the only refresh, 4.2e-4
      // behind the bootstrap), so a slipped coefficient fails this bound
      // long before the true-relu one.
      double Want = X;
      for (int L = 0; L < Relus; ++L) {
        double S = (*Result)->State.Bounds.at("y" + std::to_string(L));
        Want = S * compositeRelu(Want / S, 3, 1.4);
      }
      EXPECT_NEAR((*Logits)[I], Want, 2e-3) << "x=" << X << " relus=" << Relus;
    }
  }
}

} // namespace
