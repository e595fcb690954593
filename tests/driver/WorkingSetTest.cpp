//===----------------------------------------------------------------------===//
// Working-set test: a run holds only the ciphertexts still to be read.
// Over one run of the contract MLP after a warm-up, the limb pool's in-use
// high-water mark must rise by less than half the bytes of the
// ciphertext values the program defines; an executor that keeps every
// value until run() returns raises it by more than all of them.
//===----------------------------------------------------------------------===//

#include "codegen/CkksExecutor.h"
#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "support/LimbPool.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

using namespace ace;

namespace {

class WorkingSetTest : public ::testing::Test {
protected:
  void TearDown() override { ThreadPool::instance().setNumThreads(0); }
};

/// Bytes of every ciphertext value of \p F at its compiled level:
/// polynomials x active primes x N x 8.
size_t valueBytes(const air::IrFunction &F, size_t RingDegree) {
  size_t Bytes = 0;
  for (const auto &N : F.nodes()) {
    size_t Polys = N->Type == air::TypeKind::TK_Cipher    ? 2
                   : N->Type == air::TypeKind::TK_Cipher3 ? 3
                                                          : 0;
    if (Polys)
      Bytes += Polys * static_cast<size_t>(N->CkksLevel + 1) * RingDegree *
               sizeof(uint64_t);
  }
  return Bytes;
}

TEST_F(WorkingSetTest, RunHoldsOnlyTheValuesStillToBeRead) {
  LimbPool &Pool = LimbPool::instance();
  if (!Pool.enabled())
    GTEST_SKIP() << "limb pool bypassed (ACE_LIMB_POOL=off)";
  onnx::Model Model = nn::buildMlp({64, 48, 32, 10}, 7);
  Rng R(7);
  std::vector<nn::Tensor> Calib(2);
  for (auto &T : Calib) {
    T.Shape = {1, 64};
    T.Values.resize(64);
    for (auto &V : T.Values)
      V = static_cast<float>(R.uniformReal(-1.0, 1.0));
  }
  driver::AceCompiler Compiler(air::CompileOptions{});
  auto Result = Compiler.compile(Model, Calib);
  ASSERT_TRUE(Result.ok()) << Result.status().message();
  auto &Compiled = **Result;
  // Encryption carries both ReLUs: the run is the program's own nodes.
  ASSERT_EQ(Compiled.State.BootstrapCount, 0u);

  ThreadPool::instance().setNumThreads(1);
  codegen::CkksExecutor Exec(Compiled.Program, Compiled.State);
  ASSERT_FALSE(Exec.setup());
  auto Ct = Exec.encryptInput(Calib[0]);
  ASSERT_TRUE(Ct.ok()) << Ct.status().message();
  // The warm-up fills the executor's plaintext cache, so the measured
  // run allocates only ciphertexts and temporaries.
  ASSERT_TRUE(Exec.run(*Ct).ok());

  Pool.resetCounters();
  size_t Before = Pool.stats().PeakInUseBytes;
  auto Out = Exec.run(*Ct);
  ASSERT_TRUE(Out.ok()) << Out.status().message();
  size_t Rise = Pool.stats().PeakInUseBytes - Before;

  size_t Values =
      valueBytes(Compiled.Program, Compiled.State.SelectedParams.RingDegree);
  EXPECT_LT(Rise, Values / 2)
      << "one run raised the pool's in-use mark by " << Rise
      << " bytes; the program's ciphertext values hold " << Values;
}

} // namespace
