//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
//
// Quickstart: the paper's Figure 4 walkthrough end to end.
//
//   1. Build (or load) the `linear_infer` model - a single 10x84 gemv.
//   2. Compile it through the NN -> VECTOR -> SIHE -> CKKS pipeline and
//      print the IR at every abstraction level (paper Listings 1-4).
//   3. Generate keys, encrypt an input vector, run the encrypted gemv on
//      the server side, decrypt, and compare with cleartext execution.
//
// Run: ./quickstart [--telemetry-report[=json]] [--threads=N]
//                   [--save-ct=FILE] [--load-ct=FILE]
//                   [--metrics-dump=FILE]
//
// --metrics-dump writes the Prometheus text exposition (every counter
// and latency histogram; docs/observability.md) to FILE on exit.
//
// --save-ct writes the encrypted input to FILE over the hardened wire
// format (docs/serialization.md); --load-ct runs inference on a
// ciphertext previously saved that way, demonstrating the paper's
// client/server split where encrypted inputs travel as files.
//
//===----------------------------------------------------------------------===//

#include "codegen/CkksExecutor.h"
#include "driver/AceCompiler.h"
#include "fhe/Serializer.h"
#include "nn/ModelZoo.h"
#include "support/MemTrack.h"
#include "support/MetricsRegistry.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

using namespace ace;

int main(int argc, char **argv) {
  bool Report = false, ReportJson = false;
  int Threads = 0;
  std::string SaveCt, LoadCt, MetricsDump;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--telemetry-report") == 0)
      Report = true;
    else if (std::strcmp(argv[I], "--telemetry-report=json") == 0)
      Report = ReportJson = true;
    else if (std::strncmp(argv[I], "--threads=", 10) == 0)
      Threads = std::atoi(argv[I] + 10);
    else if (std::strncmp(argv[I], "--save-ct=", 10) == 0)
      SaveCt = argv[I] + 10;
    else if (std::strncmp(argv[I], "--load-ct=", 10) == 0)
      LoadCt = argv[I] + 10;
    else if (std::strncmp(argv[I], "--metrics-dump=", 15) == 0)
      MetricsDump = argv[I] + 15;
  }
  if (Threads > 0) // --threads=N overrides the ACE_THREADS default
    ThreadPool::instance().setNumThreads(static_cast<size_t>(Threads));
  if (Report || !MetricsDump.empty())
    telemetry::Telemetry::instance().setEnabled(true);
  // --- 1. The model (paper Fig. 4), round-tripped through a model file.
  onnx::Model Model = nn::buildLinearInfer(/*Seed=*/42);
  if (Status S = onnx::saveModel(Model, "linear_infer.acemodel")) {
    std::fprintf(stderr, "save failed: %s\n", S.message().c_str());
    return 1;
  }
  auto Loaded = onnx::loadModel("linear_infer.acemodel");
  if (!Loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 Loaded.status().message().c_str());
    return 1;
  }
  std::printf("loaded %s: %lld parameters\n",
              Loaded->MainGraph.Name.c_str(),
              static_cast<long long>(Loaded->parameterCount()));

  // --- 2. Compile, keeping the per-phase IR dumps.
  Rng R(7);
  std::vector<nn::Tensor> Calibration;
  for (int I = 0; I < 3; ++I) {
    nn::Tensor T;
    T.Shape = {1, 84};
    T.Values.resize(84);
    for (auto &V : T.Values)
      V = static_cast<float>(R.uniformReal(-1, 1));
    Calibration.push_back(std::move(T));
  }

  air::CompileOptions Opt;
  driver::AceCompiler Compiler(Opt);
  auto Result = Compiler.compile(*Loaded, Calibration, /*KeepDumps=*/true);
  if (!Result.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 Result.status().message().c_str());
    return 1;
  }
  auto &RC = **Result;
  for (const char *Phase : {"NN", "VECTOR", "SIHE", "CKKS"}) {
    std::printf("\n===== %s IR (%zu nodes) =====\n", Phase,
                RC.PhaseNodeCounts[Phase]);
    const std::string &Dump = RC.PhaseDumps[Phase];
    // Print the first lines of each level (full dumps get long).
    size_t Pos = 0;
    for (int Line = 0; Line < 12 && Pos != std::string::npos; ++Line) {
      size_t End = Dump.find('\n', Pos);
      std::printf("%s\n", Dump.substr(Pos, End - Pos).c_str());
      Pos = End == std::string::npos ? End : End + 1;
    }
    if (Pos != std::string::npos)
      std::printf("  ...\n");
  }
  std::printf("\nselected parameters: N=2^%zu, chain=%d primes "
              "(production selection: N=2^%zu at 128-bit)\n",
              static_cast<size_t>(
                  std::log2(RC.State.SelectedParams.RingDegree)),
              RC.State.SelectedParams.NumRescaleModuli + 1,
              static_cast<size_t>(std::log2(RC.State.SecureRingDegree)));

  // --- 3. Keys, encrypt, evaluate, decrypt.
  codegen::CkksExecutor Exec(RC.Program, RC.State);
  if (Status S = Exec.setup()) {
    std::fprintf(stderr, "setup failed: %s\n", S.message().c_str());
    return 1;
  }
  std::printf("key setup: %.3f s, rotation keys: %zu, key memory: %s\n",
              Exec.setupSeconds(), Exec.rotationKeyCount(),
              formatBytes(Exec.evalKeyBytes()).c_str());

  const nn::Tensor &Image = Calibration[0];
  auto Clear = nn::executeSingle(Loaded->MainGraph, Image);
  auto InputCt = Exec.encryptInput(Image);
  if (!InputCt.ok()) {
    std::fprintf(stderr, "encrypt failed: %s\n",
                 InputCt.status().message().c_str());
    return 1;
  }
  if (!SaveCt.empty()) {
    std::ofstream OS(SaveCt, std::ios::binary | std::ios::trunc);
    Status S = OS ? fhe::wire::save(*InputCt, OS)
                  : Status::ioError("cannot open '" + SaveCt +
                                    "' for writing");
    if (!S.ok()) {
      std::fprintf(stderr, "save-ct failed: %s\n", S.message().c_str());
      return 1;
    }
    std::printf("saved encrypted input to %s (%s)\n", SaveCt.c_str(),
                formatBytes(static_cast<size_t>(OS.tellp())).c_str());
  }
  if (!LoadCt.empty()) {
    std::ifstream IS(LoadCt, std::ios::binary);
    if (!IS) {
      std::fprintf(stderr, "load-ct failed: cannot open '%s'\n",
                   LoadCt.c_str());
      return 1;
    }
    auto Restored = fhe::wire::loadCiphertext(Exec.context(), IS);
    if (!Restored.ok()) {
      std::fprintf(stderr, "load-ct failed: %s\n",
                   Restored.status().message().c_str());
      return 1;
    }
    std::printf("running on ciphertext restored from %s\n", LoadCt.c_str());
    *InputCt = Restored.take();
  }
  auto OutputCt = Exec.run(*InputCt);
  auto Encrypted =
      OutputCt.ok() ? Exec.decryptLogits(*OutputCt)
                    : StatusOr<std::vector<double>>(OutputCt.status());
  if (!Clear.ok() || !Encrypted.ok()) {
    std::fprintf(stderr, "inference failed\n");
    return 1;
  }
  std::printf("\n%-8s %12s %12s\n", "logit", "cleartext", "encrypted");
  for (size_t K = 0; K < Encrypted->size(); ++K)
    std::printf("%-8zu %12.6f %12.6f\n", K,
                static_cast<double>(Clear->Values[K]), (*Encrypted)[K]);
  std::printf("\nquickstart OK\n");
  if (Report)
    driver::printTelemetryReport(std::cout, ReportJson);
  if (!MetricsDump.empty()) {
    Status S =
        metrics::MetricsRegistry::instance().writePrometheusFile(MetricsDump);
    if (!S.ok()) {
      std::fprintf(stderr, "metrics-dump failed: %s\n",
                   S.message().c_str());
      return 1;
    }
    std::printf("metrics exposition written to %s\n", MetricsDump.c_str());
  }
  return 0;
}
