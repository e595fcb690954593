//===----------------------------------------------------------------------===//
// Full code-generation integration test: emit C for the Figure 4 model,
// compile it with the system C compiler against the runtime library, run
// the binary, and check that it prints logits matching the biases (the
// generated harness uses a zero input) and runs the key switches the POLY
// count models. CMake passes the header directory, the runtime archives
// and the build's sanitizer flags in, so the test skips only when no
// system compiler exists; in a sanitizer build the program's exit status
// carries its leak check, so a handle it never frees fails the test, on
// the success path and on the error path a fault injection forces.
//===----------------------------------------------------------------------===//

#include "codegen/CodeEmitter.h"
#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "passes/CkksToPoly.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <sys/wait.h>

using namespace ace;

namespace {

/// The value of counter \p Name in the "FHE op counters:" section of the
/// telemetry report a generated program printed to \p Path; -1 when the
/// report does not list it.
long long reportCounter(const std::string &Path, const std::string &Name) {
  std::ifstream Out(Path);
  bool InCounters = false;
  for (std::string Line; std::getline(Out, Line);) {
    if (Line == "FHE op counters:") {
      InCounters = true;
      continue;
    }
    if (!InCounters)
      continue;
    char Counter[64];
    long long Value = 0;
    if (Line.rfind("  ", 0) != 0 ||
        std::sscanf(Line.c_str(), "%63s %lld", Counter, &Value) != 2)
      break;
    if (Name == Counter)
      return Value;
  }
  return -1;
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

  std::string Cmd = std::string("cc -c " ACE_SANITIZE_FLAGS " -I") +
                    ACE_SRC_DIR +
                    " /tmp/ace_gen.c -o /tmp/ace_gen.o 2> /tmp/ace_gen.err"
                    " && c++ " ACE_SANITIZE_FLAGS " /tmp/ace_gen.o "
                    ACE_FHE_ARCHIVE " " ACE_SUPPORT_ARCHIVE
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

  // The POLY count models this binary: each of its key switches is one
  // fused decomp_modup, and no rotation shares a ModUp with another.
  auto Counted =
      passes::countPolyOps((*Result)->Program, (*Result)->State, true);
  ASSERT_TRUE(Counted.ok()) << Counted.status().message();
  ASSERT_EQ(std::system("ACE_TELEMETRY_REPORT=1 /tmp/ace_gen_bin > "
                        "/tmp/ace_gen_report.out"),
            0);
  EXPECT_EQ(logitLines("/tmp/ace_gen_report.out"), Logits);
  auto FusedDecompModUp = static_cast<long long>(Counted->FusedDecompModUp);
  EXPECT_GT(FusedDecompModUp, 0);
  EXPECT_EQ(reportCounter("/tmp/ace_gen_report.out", "key-switch"),
            FusedDecompModUp);
  EXPECT_EQ(reportCounter("/tmp/ace_gen_report.out", "modup"),
            FusedDecompModUp);
  // A failed check frees whatever the program holds, then exits 1 with
  // the library's diagnostic; a sanitizer build would report any leak.
  int Fault = std::system("ACE_FAULT_INJECT=truncate-chain /tmp/ace_gen_bin "
                          "> /tmp/ace_gen_fault.out 2> /tmp/ace_gen_fault.err");
  ASSERT_TRUE(WIFEXITED(Fault));
  EXPECT_EQ(WEXITSTATUS(Fault), 1);
  std::ifstream ErrFile("/tmp/ace_gen_fault.err");
  std::string Err((std::istreambuf_iterator<char>(ErrFile)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(Err.find("ace error"), std::string::npos) << Err;
  EXPECT_EQ(Err.find("LeakSanitizer"), std::string::npos) << Err;
}

} // namespace
