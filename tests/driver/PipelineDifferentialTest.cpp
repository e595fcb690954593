//===----------------------------------------------------------------------===//
// Differential tests for the rescale placement switch (docs/compiler.md):
// lazy and eager placement compile different CKKS programs from the same
// model, but decrypt to the same answer, on every zoo model shape at 1
// and 4 threads.
//===----------------------------------------------------------------------===//

#include "codegen/CkksExecutor.h"
#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace ace;

namespace {

/// Lazy placement changes where rescales land, so the two programs round
/// differently; the schedules agree to CKKS noise, not bit-for-bit. The
/// bound covers the precision loss of one extra pending level at
/// LogScale=45 across the zoo models (measured headroom ~10x).
constexpr double kModeTolerance = 0.05;

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
    T.Values.resize(T.elementCount());
    for (auto &V : T.Values)
      V = static_cast<float>(R.uniformReal(-1.0, 1.0));
    Out.push_back(std::move(T));
  }
  return Out;
}

struct ZooModel {
  const char *Name;
  onnx::Model Model;
  std::vector<nn::Tensor> Inputs;
};

std::vector<ZooModel> zooModels() {
  std::vector<ZooModel> Z;
  Z.push_back({"linear_infer", nn::buildLinearInfer(3),
               randomInputs({1, 84}, 2, 17)});
  Z.push_back({"mlp", nn::buildMlp({24, 16, 12, 6}, 31),
               randomInputs({1, 24}, 2, 3)});
  Z.push_back({"lenet", nn::buildLeNet(/*Classes=*/8, 11),
               randomInputs({1, 1, 8, 8}, 2, 13)});
  return Z;
}

/// Compiles and runs one sample under lazy or eager placement, returning
/// the decrypted logits.
std::vector<double> runModel(const ZooModel &Z, bool Lazy, size_t Threads) {
  air::CompileOptions Opt = toyOptions();
  Opt.EnableRescalePlacement = Lazy;
  driver::AceCompiler Compiler(Opt);
  auto R = Compiler.compile(Z.Model, Z.Inputs);
  EXPECT_TRUE(R.ok()) << Z.Name << ": " << R.status().message();
  if (!R.ok())
    return {};
  codegen::CkksExecutor Exec((*R)->Program, (*R)->State);
  EXPECT_FALSE(Exec.setup());
  ThreadPool::instance().setNumThreads(Threads);
  auto Logits = Exec.infer(Z.Inputs[0]);
  ThreadPool::instance().setNumThreads(0);
  EXPECT_TRUE(Logits.ok()) << Z.Name << ": " << Logits.status().message();
  return Logits.ok() ? *Logits : std::vector<double>{};
}

void expectClose(const std::vector<double> &A, const std::vector<double> &B,
                 double Tol, const std::string &What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_NEAR(A[I], B[I], Tol) << What << " logit " << I;
}

TEST(PipelineDifferentialTest, LazyMatchesEagerOnEveryZooModel) {
  for (const ZooModel &Z : zooModels()) {
    for (size_t Threads : {1u, 4u}) {
      std::vector<double> Eager = runModel(Z, /*Lazy=*/false, Threads);
      std::vector<double> Lazy = runModel(Z, /*Lazy=*/true, Threads);
      expectClose(Eager, Lazy, kModeTolerance,
                  std::string(Z.Name) + " @" + std::to_string(Threads) +
                      " threads");
    }
  }
}

TEST(PipelineDifferentialTest, LazyLogitsBitIdenticalAcrossThreadCounts) {
  // Same program, different pool width: the determinism guarantee holds
  // for the lazily placed schedule too (its Cipher3 adds exercise
  // three-component hot loops the eager schedule never runs).
  for (const ZooModel &Z : zooModels()) {
    driver::AceCompiler Compiler(toyOptions());
    auto R = Compiler.compile(Z.Model, Z.Inputs);
    ASSERT_TRUE(R.ok()) << Z.Name << ": " << R.status().message();
    codegen::CkksExecutor Exec((*R)->Program, (*R)->State);
    ASSERT_FALSE(Exec.setup());
    auto Ct = Exec.encryptInput(Z.Inputs[0]);
    ASSERT_TRUE(Ct.ok());

    ThreadPool::instance().setNumThreads(1);
    auto SerialOut = Exec.run(*Ct);
    ASSERT_TRUE(SerialOut.ok()) << Z.Name;
    auto Serial = Exec.decryptLogits(*SerialOut);
    ASSERT_TRUE(Serial.ok());

    ThreadPool::instance().setNumThreads(4);
    auto Out = Exec.run(*Ct);
    ASSERT_TRUE(Out.ok()) << Z.Name;
    auto Logits = Exec.decryptLogits(*Out);
    ASSERT_TRUE(Logits.ok());
    ThreadPool::instance().setNumThreads(0);

    ASSERT_EQ(Logits->size(), Serial->size());
    EXPECT_EQ(std::memcmp(Logits->data(), Serial->data(),
                          Serial->size() * sizeof(double)),
              0)
        << Z.Name << ": lazy logits differ from serial at 4 threads";
  }
}

} // namespace
