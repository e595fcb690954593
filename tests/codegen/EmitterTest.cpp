//===----------------------------------------------------------------------===//
// Code-emitter tests: the generated C program references the CApi
// correctly and externalizes every constant (paper Sec. 3.4).
//===----------------------------------------------------------------------===//

#include "codegen/CodeEmitter.h"
#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <fstream>

using namespace ace;

namespace {

std::unique_ptr<driver::CompileResult> compileLinear() {
  onnx::Model M = nn::buildLinearInfer(3);
  Rng R(7);
  std::vector<nn::Tensor> Calib(2);
  for (auto &T : Calib) {
    T.Shape = {1, 84};
    T.Values.resize(84);
    for (auto &V : T.Values)
      V = static_cast<float>(R.uniformReal(-1, 1));
  }
  driver::AceCompiler Compiler(air::CompileOptions{});
  auto Result = Compiler.compile(M, Calib);
  EXPECT_TRUE(Result.ok());
  return Result.take();
}

TEST(EmitterTest, GeneratesWellFormedC) {
  auto R = compileLinear();
  auto P = codegen::emitC(R->Program, R->State, "w.bin");
  EXPECT_NE(P.CSource.find("#include \"fhe/CApi.h\""), std::string::npos);
  EXPECT_NE(P.CSource.find("ace_create("), std::string::npos);
  EXPECT_NE(P.CSource.find("ace_keygen("), std::string::npos);
  EXPECT_NE(P.CSource.find("ace_encrypt("), std::string::npos);
  EXPECT_NE(P.CSource.find("ace_mul_plain("), std::string::npos);
  EXPECT_NE(P.CSource.find("ace_rotate("), std::string::npos);
  EXPECT_NE(P.CSource.find("ace_decrypt("), std::string::npos);
  // Weights externalized (paper Sec. 3.4): source stays small while the
  // blob carries all constants.
  EXPECT_GT(P.Weights.size(), 1000u);
  EXPECT_GT(P.ConstCount, 10u);
  EXPECT_LT(P.CSource.size(), 200000u);
}

TEST(EmitterTest, KeygenUsesSqrtScaleRotationKeySet) {
  // The BSGS matvec lowering keeps the emitted program's rotation-key
  // set at babies + giants (~2*sqrt(capacity)) instead of one key per
  // nonzero diagonal. For the 84-wide gemv (capacity 128, BS 16) that is
  // at most 15 babies + 8 giants; the naive diagonal form needed ~90.
  auto R = compileLinear();
  ASSERT_FALSE(R->State.RotationSteps.empty());
  EXPECT_LE(R->State.RotationSteps.size(), 24u);

  auto P = codegen::emitC(R->Program, R->State, "w.bin");
  size_t Begin = P.CSource.find("steps[] = {0");
  ASSERT_NE(Begin, std::string::npos);
  size_t End = P.CSource.find('}', Begin);
  ASSERT_NE(End, std::string::npos);
  // The steps array holds a leading sentinel plus one entry per key.
  size_t Keys = 0;
  for (size_t I = Begin; I < End; ++I)
    if (P.CSource[I] == ',')
      ++Keys;
  EXPECT_EQ(Keys, R->State.RotationSteps.size());
  EXPECT_LE(Keys, 24u);
}

TEST(EmitterTest, WritesSourceAndWeights) {
  auto R = compileLinear();
  auto P = codegen::emitC(R->Program, R->State, "/tmp/ace_emit.weights");
  ASSERT_TRUE(codegen::writeProgram(P, "/tmp/ace_emit").ok());
  std::ifstream C("/tmp/ace_emit.c");
  EXPECT_TRUE(C.good());
  std::ifstream W("/tmp/ace_emit.weights", std::ios::binary);
  ASSERT_TRUE(W.good());
  W.seekg(0, std::ios::end);
  EXPECT_EQ(static_cast<size_t>(W.tellg()),
            P.Weights.size() * sizeof(double));
}

} // namespace
