//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the paper-figure benchmark binaries: builds the
/// six evaluation models with their synthetic datasets and compiles them
/// under ACE or Expert options. Each bench binary accepts `--all` to
/// cover every model (the defaults are sized to finish in minutes on one
/// core) and `--models=N` / `--images=N` to scale coverage.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_BENCH_BENCHUTIL_H
#define ACE_BENCH_BENCHUTIL_H

#include "codegen/CkksExecutor.h"
#include "driver/AceCompiler.h"
#include "expert/ExpertBaseline.h"
#include "nn/ModelZoo.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace ace {
namespace bench {

struct BenchModel {
  nn::NanoResNetSpec Spec;
  onnx::Model Model;
  nn::Dataset Data;
};

inline std::vector<BenchModel> buildPaperModels(size_t Count,
                                                uint64_t Seed = 7) {
  std::vector<BenchModel> Out;
  auto Specs = nn::paperModelSpecs();
  if (Count > Specs.size())
    Count = Specs.size();
  for (size_t I = 0; I < Count; ++I) {
    BenchModel M;
    M.Spec = Specs[I];
    M.Data = nn::makeSyntheticDataset(
        {1, M.Spec.InputChannels, M.Spec.InputHW, M.Spec.InputHW},
        static_cast<int>(M.Spec.Classes), 64, 0.12, Seed + I);
    auto ModelOr = nn::buildNanoResNet(M.Spec, M.Data, Seed * 31 + I);
    if (!ModelOr.ok())
      reportFatalError("bench model build failed: " +
                       ModelOr.status().message());
    M.Model = ModelOr.take();
    Out.push_back(std::move(M));
  }
  return Out;
}

inline air::CompileOptions benchOptions(uint64_t Seed = 13) {
  air::CompileOptions Opt;
  Opt.Seed = Seed;
  return Opt;
}

/// Parses `--models=N`, `--images=N`, `--all`, `--threads=N`,
/// `--thread-sweep`, `--pipeline-sweep`, `--json=PATH` style flags. A
/// positive --threads is applied to the process-wide pool immediately
/// (see support/ThreadPool.h); otherwise the ACE_THREADS default stands.
struct BenchArgs {
  size_t Models;
  size_t Images;
  int Threads = 0;
  bool ThreadSweep = false;
  bool PipelineSweep = false;
  std::string JsonPath;
  BenchArgs(int Argc, char **Argv, size_t DefaultModels,
            size_t DefaultImages)
      : Models(DefaultModels), Images(DefaultImages) {
    for (int I = 1; I < Argc; ++I) {
      if (!std::strcmp(Argv[I], "--all"))
        Models = 6;
      else if (!std::strncmp(Argv[I], "--models=", 9))
        Models = std::strtoul(Argv[I] + 9, nullptr, 10);
      else if (!std::strncmp(Argv[I], "--images=", 9))
        Images = std::strtoul(Argv[I] + 9, nullptr, 10);
      else if (!std::strncmp(Argv[I], "--threads=", 10))
        Threads = std::atoi(Argv[I] + 10);
      else if (!std::strcmp(Argv[I], "--thread-sweep"))
        ThreadSweep = true;
      else if (!std::strcmp(Argv[I], "--pipeline-sweep"))
        PipelineSweep = true;
      else if (!std::strncmp(Argv[I], "--json=", 7))
        JsonPath = Argv[I] + 7;
    }
    if (Threads > 0)
      ThreadPool::instance().setNumThreads(static_cast<size_t>(Threads));
  }
};

/// \name Bench JSON metadata
/// Every --json file carries the context needed to compare BENCH_*.json
/// trajectories across PRs: the bench name, worker-thread count, git
/// revision and build type (both baked in at configure time), and the
/// host's core count.
/// @{

#ifndef ACE_GIT_REV
#define ACE_GIT_REV "unknown"
#endif
#ifndef ACE_BUILD_TYPE
#define ACE_BUILD_TYPE "unknown"
#endif

/// The shared `"metadata": {...}` object for bench JSON files.
inline std::string benchMetadataJson(const std::string &BenchName) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "{\"bench\": \"%s\", \"threads\": %zu, \"git_rev\": "
                "\"%s\", \"build_type\": \"%s\", \"host_cores\": %u}",
                BenchName.c_str(), ThreadPool::instance().numThreads(),
                ACE_GIT_REV, ACE_BUILD_TYPE,
                std::thread::hardware_concurrency());
  return Buf;
}

/// Writes `{"metadata": ..., "results": [ResultsJson]}` to Path.
/// ResultsJson must already be valid JSON (an array or object body).
inline void writeBenchJson(const std::string &Path,
                           const std::string &BenchName,
                           const std::string &ResultsJson) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    std::exit(1);
  }
  std::fprintf(F, "{\"metadata\": %s,\n \"results\": %s}\n",
               benchMetadataJson(BenchName).c_str(), ResultsJson.c_str());
  std::fclose(F);
  std::printf("wrote %s\n", Path.c_str());
}

/// @}

inline std::unique_ptr<driver::CompileResult>
compileOrDie(const onnx::Model &Model, const nn::Dataset &Data,
             const air::CompileOptions &Opt) {
  driver::AceCompiler Compiler(Opt);
  std::vector<nn::Tensor> Calib(Data.Images.begin(),
                                Data.Images.begin() +
                                    std::min<size_t>(4, Data.Images.size()));
  auto R = Compiler.compile(Model, Calib);
  if (!R.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", R.status().message().c_str());
    std::exit(1);
  }
  return R.take();
}

} // namespace bench
} // namespace ace

#endif // ACE_BENCH_BENCHUTIL_H
