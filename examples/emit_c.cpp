//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
//
// C code generation walkthrough (paper Sec. 3.4): compile the Figure 4
// model, emit a standalone C program against the ACEfhe C API with the
// weights externalized to a binary side file, and count the emitted
// program's POLY operations, printing the operator-fusion statistics of
// Sec. 4.5.
//
// Run: ./emit_c   (writes linear_infer.c + linear_infer.weights)
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeEmitter.h"
#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "passes/CkksToPoly.h"
#include "support/Rng.h"

#include <cstdio>

using namespace ace;

int main() {
  onnx::Model Model = nn::buildLinearInfer(42);
  Rng R(5);
  std::vector<nn::Tensor> Calib(1);
  Calib[0].Shape = {1, 84};
  Calib[0].Values.resize(84);
  for (auto &V : Calib[0].Values)
    V = static_cast<float>(R.uniformReal(-1, 1));

  driver::AceCompiler Compiler(air::CompileOptions{});
  auto Result = Compiler.compile(Model, Calib);
  if (!Result.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 Result.status().message().c_str());
    return 1;
  }
  auto &RC = **Result;

  // Emit C + external weights (paper: 384 KB source + 215 MB weights for
  // ResNet-20; proportions shrink with the nano models).
  auto Program = codegen::emitC(RC.Program, RC.State,
                                "linear_infer.weights");
  if (Status S = codegen::writeProgram(Program, "linear_infer")) {
    std::fprintf(stderr, "%s\n", S.message().c_str());
    return 1;
  }
  std::printf("emitted linear_infer.c (%zu bytes) + linear_infer.weights "
              "(%zu doubles across %zu constants)\n",
              Program.CSource.size(), Program.Weights.size(),
              Program.ConstCount);

  // POLY operation counts with and without fusion (paper Sec. 4.5).
  for (bool Fusion : {false, true}) {
    auto Counted = passes::countPolyOps(RC.Program, RC.State, Fusion);
    if (!Counted.ok()) {
      std::fprintf(stderr, "%s\n", Counted.status().message().c_str());
      return 1;
    }
    const passes::PolyStats &Stats = *Counted;
    std::printf("POLY IR (%s fusion): %zu rns loops, %zu hw ops "
                "(modmul=%zu modadd=%zu modmuladd=%zu ntt=%zu intt=%zu), "
                "fused decomp_modup=%zu\n",
                Fusion ? "with" : "without", Stats.RnsLoops,
                Stats.totalHwOps(), Stats.HwModMul, Stats.HwModAdd,
                Stats.HwModMulAdd, Stats.HwNtt, Stats.HwIntt,
                Stats.FusedDecompModUp);
  }
  std::printf("emit_c OK\n");
  return 0;
}
