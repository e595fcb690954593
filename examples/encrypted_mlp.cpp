//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
//
// Privacy-preserving MLP inference, in the paper's threat model (Fig. 2):
// the client owns the data and the keys; the untrusted server sees only
// ciphertexts. This example exercises the nonlinear path: the two hidden
// ReLU layers are approximated by composite sign polynomials; the client
// encrypts at the level the first one needs, and the second is preceded
// by an automatically placed bootstrap.
//
// Run: ./encrypted_mlp [--telemetry-report[=json]] [--threads=N]
//                       [--metrics-dump=FILE] [--rescale=MODE]
//   ACE_TRACE=trace.json ./encrypted_mlp   # chrome://tracing span dump
//   --metrics-dump writes the Prometheus exposition on exit
//   --rescale: lazy (default) | eager (the Expert reference placement).
//
//===----------------------------------------------------------------------===//

#include "codegen/CkksExecutor.h"
#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "support/MetricsRegistry.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

using namespace ace;

int main(int argc, char **argv) {
  bool Report = false, ReportJson = false;
  int Threads = 0;
  std::string MetricsDump;
  bool LazyRescale = true;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--telemetry-report") == 0)
      Report = true;
    else if (std::strcmp(argv[I], "--telemetry-report=json") == 0)
      Report = ReportJson = true;
    else if (std::strncmp(argv[I], "--threads=", 10) == 0)
      Threads = std::atoi(argv[I] + 10);
    else if (std::strncmp(argv[I], "--metrics-dump=", 15) == 0)
      MetricsDump = argv[I] + 15;
    else if (std::strncmp(argv[I], "--rescale=", 10) == 0) {
      LazyRescale = std::strcmp(argv[I] + 10, "lazy") == 0;
      if (!LazyRescale && std::strcmp(argv[I] + 10, "eager") != 0) {
        std::fprintf(stderr,
                     "unknown --rescale mode '%s' (want lazy|eager)\n",
                     argv[I] + 10);
        return 2;
      }
    }
  }
  if (Threads > 0) // --threads=N overrides the ACE_THREADS default
    ThreadPool::instance().setNumThreads(static_cast<size_t>(Threads));
  // Telemetry feeds the timing breakdown printed after inference, the
  // optional report, and the metrics dump.
  telemetry::Telemetry &Tel = telemetry::Telemetry::instance();
  Tel.setEnabled(true);
  // A 2-hidden-layer MLP classifying synthetic 24-dim vectors.
  const int Classes = 6;
  onnx::Model Model = nn::buildMlp({24, 16, 12, Classes}, 31);
  nn::Dataset Data = nn::makeSyntheticDataset({1, 24}, Classes,
                                              /*Count=*/12,
                                              /*NoiseSigma=*/0.1, 77);
  // Attach a prototype readout so decisions are meaningful: rerun the
  // feature stack on each prototype and point the last layer at it.
  // (buildMlp already has random weights; accuracy here is over the
  // cluster structure that survives them.)

  air::CompileOptions Opt;
  Opt.EnableRescalePlacement = LazyRescale;
  driver::AceCompiler Compiler(Opt);
  auto Result = Compiler.compile(Model, Data.Images);
  if (!Result.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 Result.status().message().c_str());
    return 1;
  }
  auto &R = **Result;
  // Where the levels go: the input is encrypted at the level its first
  // ReLU needs, and each later ReLU's bootstrap refreshes to its target.
  std::string Targets;
  for (const auto &N : R.Program.nodes())
    if (N->Kind == air::NodeKind::NK_CkksBootstrap)
      Targets += (Targets.empty() ? "" : ",") +
                 std::to_string(N->BootstrapTarget);
  std::printf("compiled mlp: %zu CKKS nodes, %zu bootstraps, depth %d, "
              "%zu rotation steps, input_numq=%zu chain_numq=%d "
              "refresh_numq=[%s]\n",
              R.PhaseNodeCounts["CKKS"], R.State.BootstrapCount,
              R.State.MaxComputeDepth, R.State.RotationSteps.size(),
              R.State.InputNumQ, R.State.SelectedParams.NumRescaleModuli + 1,
              Targets.c_str());
  std::printf("pipeline: rescale=%s ops[rescale=%zu relin=%zu rotate=%zu "
              "ctct=%zu ctpt=%zu]\n",
              LazyRescale ? "lazy" : "eager", R.State.Budget.Rescale,
              R.State.Budget.Relinearize, R.State.Budget.Rotate,
              R.State.Budget.CtCtMul, R.State.Budget.CtPtMul);

  codegen::CkksExecutor Exec(R.Program, R.State);
  if (Status S = Exec.setup()) {
    std::fprintf(stderr, "setup failed: %s\n", S.message().c_str());
    return 1;
  }

  // Client encrypts; server computes; client decrypts.
  size_t Match = 0, Total = 6;
  for (size_t I = 0; I < Total; ++I) {
    auto Clear = nn::executeSingle(Model.MainGraph, Data.Images[I]);
    auto Ct = Exec.encryptInput(Data.Images[I]);
    if (!Ct.ok()) {
      std::fprintf(stderr, "encrypt failed: %s\n",
                   Ct.status().message().c_str());
      return 1;
    }
    auto Out = Exec.run(*Ct);
    if (!Clear.ok() || !Out.ok()) {
      std::fprintf(stderr, "inference failed\n");
      return 1;
    }
    auto LogitsOr = Exec.decryptLogits(*Out);
    if (!LogitsOr.ok()) {
      std::fprintf(stderr, "decrypt failed: %s\n",
                   LogitsOr.status().message().c_str());
      return 1;
    }
    auto &Logits = *LogitsOr;
    size_t ClearTop = nn::argmax(*Clear);
    size_t EncTop = 0;
    for (size_t K = 1; K < Logits.size(); ++K)
      if (Logits[K] > Logits[EncTop])
        EncTop = K;
    Match += ClearTop == EncTop;
    std::printf("sample %zu: cleartext class %zu, encrypted class %zu "
                "(top logit %.4f vs %.4f)\n",
                I, ClearTop, EncTop,
                static_cast<double>(Clear->Values[ClearTop]),
                Logits[EncTop]);
  }
  std::printf("\ndecision agreement: %zu/%zu\n", Match, Total);
  std::printf("timings over %zu runs: ", Total);
  for (int K = 0; K <= static_cast<int>(air::OriginKind::OR_Other); ++K) {
    const char *Region = air::originKindName(static_cast<air::OriginKind>(K));
    if (double Seconds = Tel.phaseSeconds(Region); Seconds > 0)
      std::printf("%s=%.2fs ", Region, Seconds);
  }
  std::printf("\nencrypted_mlp OK\n");
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
  return Match >= Total - 1 ? 0 : 1;
}
