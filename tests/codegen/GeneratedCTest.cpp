//===----------------------------------------------------------------------===//
// Full code-generation integration test: emit C for the Figure 4 model,
// compile it with the system C compiler against the runtime library, run
// the binary, and check that it prints logits matching the biases (the
// generated harness uses a zero input). Skipped when no compiler or the
// static libraries are not where the build puts them.
//===----------------------------------------------------------------------===//

#include "codegen/CodeEmitter.h"
#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

using namespace ace;

namespace {

bool fileExists(const std::string &Path) {
  std::ifstream F(Path);
  return F.good();
}

/// The "logit[k] = v" lines a generated program printed to \p Path.
std::vector<std::string> logitLines(const std::string &Path) {
  std::ifstream Out(Path);
  std::vector<std::string> Lines;
  for (std::string Line; std::getline(Out, Line);)
    if (Line.rfind("logit[", 0) == 0)
      Lines.push_back(Line);
  return Lines;
}

TEST(GeneratedCTest, CompilesAndRuns) {
  if (std::system("which cc > /dev/null 2>&1") != 0 ||
      std::system("which c++ > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "no system compiler";
  // Locate the build tree relative to wherever ctest runs us.
  std::string Prefix;
  bool Found = false;
  for (const char *Candidate : {"build/", "", "../", "../../"}) {
    if (fileExists(std::string(Candidate) + "src/fhe/libace_fhe.a")) {
      Prefix = Candidate;
      Found = true;
      break;
    }
  }
  if (!Found)
    GTEST_SKIP() << "runtime archives not found";
  std::string FheLib = Prefix + "src/fhe/libace_fhe.a";
  std::string SupLib = Prefix + "src/support/libace_support.a";

  onnx::Model M = nn::buildLinearInfer(3);
  Rng R(7);
  std::vector<nn::Tensor> Calib(1);
  Calib[0].Shape = {1, 84};
  Calib[0].Values.resize(84);
  for (auto &V : Calib[0].Values)
    V = static_cast<float>(R.uniformReal(-1, 1));

  driver::AceCompiler Compiler(air::CompileOptions{});
  auto Result = Compiler.compile(M, Calib);
  ASSERT_TRUE(Result.ok());

  auto P = codegen::emitC((*Result)->Program, (*Result)->State,
                          "/tmp/ace_gen.weights");
  ASSERT_TRUE(codegen::writeProgram(P, "/tmp/ace_gen").ok());

  std::string IncludeDir;
  for (const char *Candidate : {"src", "../src", "../../src"})
    if (fileExists(std::string(Candidate) + "/fhe/CApi.h"))
      IncludeDir = Candidate;
  if (IncludeDir.empty())
    GTEST_SKIP() << "source headers not found";
  std::string Cmd = "cc -c -I" + IncludeDir +
                    " /tmp/ace_gen.c -o /tmp/ace_gen.o 2> /tmp/ace_gen.err"
                    " && c++ /tmp/ace_gen.o " +
                    FheLib + " " + SupLib +
                    " -o /tmp/ace_gen_bin 2>> /tmp/ace_gen.err";
  ASSERT_EQ(std::system(Cmd.c_str()), 0) << "generated C failed to build";
  ASSERT_EQ(std::system("/tmp/ace_gen_bin > /tmp/ace_gen.out"), 0);

  // Zero input -> logits equal the biases, up to encryption noise.
  const auto &Bias = M.MainGraph.Initializers.at("output.b");
  std::vector<std::string> Logits = logitLines("/tmp/ace_gen.out");
  for (const std::string &Line : Logits) {
    int K = -1;
    double V = 0;
    ASSERT_EQ(std::sscanf(Line.c_str(), "logit[%d] = %lf", &K, &V), 2);
    ASSERT_GE(K, 0);
    ASSERT_LT(K, 10);
    EXPECT_NEAR(V, Bias.Values[K], 1e-3) << Line;
  }
  EXPECT_EQ(Logits.size(), 10u);

  // The runtime alone reads ACE_THREADS: a malformed value warns, runs
  // serially and, by the pool's determinism contract, prints the same
  // logits bit for bit.
  ASSERT_EQ(std::system("ACE_THREADS=-2 /tmp/ace_gen_bin > "
                        "/tmp/ace_gen_threads.out 2> /tmp/ace_gen_threads.err"),
            0);
  EXPECT_EQ(logitLines("/tmp/ace_gen_threads.out"), Logits);
}

} // namespace
