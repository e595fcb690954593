//===----------------------------------------------------------------------===//
// Threaded end-to-end test: the full compiled pipeline (MLP with a
// bootstrap, run by CkksExecutor) must decrypt to bit-identical logits
// whether the runtime pool is serial or 8-wide - the user-visible form
// of the determinism guarantee in support/ThreadPool.h.
//===----------------------------------------------------------------------===//

#include "codegen/CkksExecutor.h"
#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace ace;

namespace {

class ThreadedEndToEndTest : public ::testing::Test {
protected:
  void TearDown() override { ThreadPool::instance().setNumThreads(0); }
};

TEST_F(ThreadedEndToEndTest, MlpLogitsBitIdenticalAcrossThreadCounts) {
  onnx::Model Model = nn::buildMlp({16, 12, 12, 12, 8}, 5);
  Rng R(19);
  std::vector<nn::Tensor> Inputs;
  for (int I = 0; I < 4; ++I) {
    nn::Tensor T;
    T.Shape = {1, 16};
    T.Values.resize(16);
    for (auto &V : T.Values)
      V = static_cast<float>(R.uniformReal(-1.0, 1.0));
    Inputs.push_back(std::move(T));
  }

  air::CompileOptions Opt;
  Opt.Seed = 11;
  driver::AceCompiler Compiler(Opt);
  auto Result = Compiler.compile(Model, Inputs);
  ASSERT_TRUE(Result.ok()) << Result.status().message();
  auto &Compiled = **Result;
  // The third ReLU's refresh: the nonlinear path.
  ASSERT_EQ(Compiled.State.BootstrapCount, 1u);

  codegen::CkksExecutor Exec(Compiled.Program, Compiled.State);
  ASSERT_FALSE(Exec.setup());

  // Encrypt ONCE: infer() re-encrypts and would advance the RNG, so the
  // comparison runs every thread count over the same ciphertext.
  auto Ct = Exec.encryptInput(Inputs[0]);
  ASSERT_TRUE(Ct.ok()) << Ct.status().message();

  ThreadPool::instance().setNumThreads(1);
  auto SerialOut = Exec.run(*Ct);
  ASSERT_TRUE(SerialOut.ok()) << SerialOut.status().message();
  auto SerialLogits = Exec.decryptLogits(*SerialOut);
  ASSERT_TRUE(SerialLogits.ok());

  for (size_t Threads : {2u, 8u}) {
    ThreadPool::instance().setNumThreads(Threads);
    auto Out = Exec.run(*Ct);
    ASSERT_TRUE(Out.ok()) << Out.status().message();
    auto Logits = Exec.decryptLogits(*Out);
    ASSERT_TRUE(Logits.ok());
    ASSERT_EQ(Logits->size(), SerialLogits->size());
    EXPECT_EQ(std::memcmp(Logits->data(), SerialLogits->data(),
                          SerialLogits->size() * sizeof(double)),
              0)
        << "logits differ from serial at " << Threads << " threads";
  }
}

} // namespace
