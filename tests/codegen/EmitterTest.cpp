//===----------------------------------------------------------------------===//
// Code-emitter tests: the generated C program references the CApi
// correctly, externalizes every constant (paper Sec. 3.4), frees every
// ciphertext handle once after its last use, and computes with the IR's
// doubles bit for bit.
//===----------------------------------------------------------------------===//

#include "codegen/CodeEmitter.h"
#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace ace;

namespace {

std::unique_ptr<driver::CompileResult>
compileModel(const onnx::Model &M, int64_t Width) {
  Rng R(7);
  std::vector<nn::Tensor> Calib(2);
  for (auto &T : Calib) {
    T.Shape = {1, Width};
    T.Values.resize(static_cast<size_t>(Width));
    for (auto &V : T.Values)
      V = static_cast<float>(R.uniformReal(-1, 1));
  }
  driver::AceCompiler Compiler(air::CompileOptions{});
  auto Result = Compiler.compile(M, Calib);
  EXPECT_TRUE(Result.ok());
  return Result.take();
}

std::unique_ptr<driver::CompileResult> compileLinear() {
  return compileModel(nn::buildLinearInfer(3), 84);
}

/// The three-ReLU MLP: its ReLUs scale and shift by compiled constants,
/// its relinearizations alias their products' handles, and the third ReLU
/// is bootstrapped.
std::unique_ptr<driver::CompileResult> compileMlp() {
  return compileModel(nn::buildMlp({16, 12, 12, 12, 8}, 5), 16);
}

/// The ids of the `v<id>` names \p Line mentions.
std::vector<int> namesIn(const std::string &Line) {
  std::vector<int> Ids;
  auto IsWord = [](char C) { return std::isalnum(C) || C == '_'; };
  for (size_t I = 0; I + 1 < Line.size(); ++I) {
    if (Line[I] != 'v' || (I > 0 && IsWord(Line[I - 1])) ||
        !std::isdigit(Line[I + 1]))
      continue;
    size_t End = I + 1;
    while (End < Line.size() && std::isdigit(Line[End]))
      ++End;
    if (End == Line.size() || !IsWord(Line[End]))
      Ids.push_back(std::stoi(Line.substr(I + 1, End - I - 1)));
    I = End;
  }
  return Ids;
}

/// Every ciphertext handle \p Source assigns is freed exactly once, on a
/// line after every use of it under any name (a relin's `vR = vM;` shares
/// vM's handle), and the cleanup path after `cleanup:` names every handle
/// and no alias. Returns the number of handles.
size_t expectEveryHandleFreedOnceAfterLastUse(const std::string &Source) {
  std::map<int, int> HandleOf; // variable -> the variable owning its handle
  std::map<int, int> LastUse;  // handle -> last line using it
  std::map<int, std::vector<int>> Frees;
  std::istringstream In(Source);
  int LineNo = 0;
  std::string Line;
  for (; std::getline(In, Line) && Line != "cleanup:"; ++LineNo) {
    int V = -1, Alias = -1;
    char Next = 0;
    if (std::sscanf(Line.c_str(), " ace_ct_free(v%d);", &V) == 1) {
      auto It = HandleOf.find(V);
      EXPECT_NE(It, HandleOf.end()) << "frees an unassigned handle: " << Line;
      if (It != HandleOf.end())
        Frees[It->second].push_back(LineNo);
      continue;
    }
    // Declarations, and resets after a free, are not uses.
    if (std::sscanf(Line.c_str(), " AceFheCiphertext *v%d = NULL%c", &V,
                    &Next) == 2 ||
        std::sscanf(Line.c_str(), " v%d = NULL%c", &V, &Next) == 2)
      continue;
    if (std::sscanf(Line.c_str(), " v%d = v%d;", &V, &Alias) == 2)
      HandleOf[V] = HandleOf.at(Alias);
    else if (std::sscanf(Line.c_str(), " v%d = ace_%c", &V, &Next) == 2)
      HandleOf[V] = V;
    for (int Name : namesIn(Line)) {
      auto H = HandleOf.find(Name);
      if (H != HandleOf.end())
        LastUse[H->second] = LineNo;
    }
  }
  std::set<int> Handles, Cleaned;
  for (const auto &[V, H] : HandleOf) {
    if (V != H)
      continue;
    Handles.insert(H);
    const std::vector<int> &Lines = Frees[H];
    EXPECT_EQ(Lines.size(), 1u) << "v" << H << " is freed " << Lines.size()
                                << " times";
    if (!Lines.empty()) {
      EXPECT_GT(Lines.front(), LastUse[H])
          << "v" << H << " is used after it is freed";
    }
  }
  while (std::getline(In, Line))
    for (int Name : namesIn(Line))
      Cleaned.insert(Name);
  EXPECT_EQ(Cleaned, Handles)
      << "the cleanup path must free every handle and no alias";
  return Handles.size();
}

/// The text between \p Before and the next ')' in \p Line, or "" when
/// \p Before does not occur.
std::string literalAfter(const std::string &Line, const std::string &Before) {
  size_t Begin = Line.find(Before);
  if (Begin == std::string::npos)
    return "";
  Begin += Before.size();
  return Line.substr(Begin, Line.find(')', Begin) - Begin);
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

TEST(EmitterTest, FreesEveryHandleOnceAfterItsLastUse) {
  auto Linear = compileLinear();
  auto P = codegen::emitC(Linear->Program, Linear->State, "w.bin");
  EXPECT_EQ(expectEveryHandleFreedOnceAfterLastUse(P.CSource), 215u);

  auto Mlp = compileMlp();
  auto Q = codegen::emitC(Mlp->Program, Mlp->State, "w.bin");
  ASSERT_NE(Q.CSource.find("ace_bootstrap("), std::string::npos);
  ASSERT_NE(Q.CSource.find("ace_mul(ctx"), std::string::npos);
  // 371 handles, and 39 relin aliases (13 per ReLU) that own none.
  EXPECT_EQ(expectEveryHandleFreedOnceAfterLastUse(Q.CSource), 371u);
}

TEST(EmitterTest, WritesEveryDoubleAtRoundTripPrecision) {
  auto R = compileMlp();
  auto P = codegen::emitC(R->Program, R->State, "w.bin");
  std::map<int, const air::IrNode *> ById;
  for (const auto &N : R->Program.nodes())
    ById[N->Id] = N.get();
  auto Bits = [](double V) { return std::bit_cast<uint64_t>(V); };
  auto Parse = [&](const std::string &Literal) {
    char *End = nullptr;
    double V = std::strtod(Literal.c_str(), &End);
    EXPECT_TRUE(!Literal.empty() && *End == '\0')
        << "not a number: '" << Literal << "'";
    return Bits(V);
  };

  size_t Scalars = 0, Logits = 0, Inputs = 0;
  std::istringstream In(P.CSource);
  for (std::string Line; std::getline(In, Line);) {
    int V = -1;
    if (Line.find("_const(ctx, ") != std::string::npos &&
        std::sscanf(Line.c_str(), " v%d =", &V) == 1) {
      // The scalar is the call's last argument.
      EXPECT_EQ(Parse(literalAfter(Line.substr(Line.rfind(", ")), ", ")),
                Bits(ById.at(V)->Scalar))
          << Line;
      ++Scalars;
    } else if (Line.find("printf(\"logit[") != std::string::npos) {
      EXPECT_EQ(Parse(literalAfter(Line, "] * ")),
                Bits(R->State.OutputDataScale))
          << Line;
      ++Logits;
    } else if (Line.find("divide by ") != std::string::npos) {
      EXPECT_EQ(Parse(literalAfter(Line, "divide by ")),
                Bits(R->State.InputDataScale))
          << Line;
      ++Inputs;
    }
  }
  EXPECT_GT(Scalars, 10u);
  EXPECT_EQ(Logits, static_cast<size_t>(R->State.OutputCount));
  EXPECT_EQ(Inputs, 1u);
}

} // namespace
