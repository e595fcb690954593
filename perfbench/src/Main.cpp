//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ace_perfbench: runs one benchmark workload and prints its metrics,
/// one per line with its unit, then a metadata line and, last, one JSON
/// object {"correct", "attempted", "failed", "metrics"}.
///
///   ace_perfbench --workload mlp-infer|mlp-serve --seed N
///                 --seconds S --trace 0|1 [--trace-out PATH]
///                 [--requests N] [--rev TEXT]
///
/// It measures the program's builtin defaults: it refuses to run while
/// any ACE_* environment knob is set, and sets pool width through the
/// API. perfbench/run.py builds it and clears the environment.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "fhe/PolyBackend.h"
#include "support/ThreadPool.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

extern char **environ;

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "ace_perfbench: %s\n"
               "usage: ace_perfbench --workload mlp-infer|mlp-serve "
               "--seed N --seconds S --trace 0|1 "
               "[--trace-out PATH] [--requests N] [--rev TEXT]\n",
               Why);
  return 2;
}

/// Prints a JSON number with all its digits.
std::string number(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

} // namespace

int main(int argc, char **argv) {
  RunOptions Opt;
  std::string Rev = "unknown";
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + Arg).c_str());
    const char *Val = argv[++I];
    if (Arg == "--workload") {
      Opt.Workload = Val;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      Opt.Seed = std::strtoull(Val, nullptr, 10);
      HaveSeed = true;
    } else if (Arg == "--seconds") {
      Opt.Seconds = std::strtod(Val, nullptr);
      HaveSeconds = Opt.Seconds > 0;
    } else if (Arg == "--trace") {
      Opt.Trace = std::strcmp(Val, "0") != 0;
      HaveTrace = true;
    } else if (Arg == "--trace-out") {
      Opt.TracePath = Val;
    } else if (Arg == "--requests") {
      Opt.Requests = std::strtoull(Val, nullptr, 10);
    } else if (Arg == "--rev") {
      Rev = Val;
    } else {
      return usage(("unknown argument " + Arg).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");

  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "ACE_", 4) == 0) {
      std::fprintf(stderr,
                   "ace_perfbench: %s is set; the benchmark measures the "
                   "builtin defaults, so unset every ACE_* knob\n",
                   *E);
      return 2;
    }

  RunResult R;
  if (Opt.Workload == "mlp-infer")
    R = runMlpInfer(Opt);
  else if (Opt.Workload == "mlp-serve")
    R = runMlpServe(Opt);
  else
    return usage(("unknown workload " + Opt.Workload).c_str());

  for (const std::string &Why : R.Failures)
    std::fprintf(stderr, "ace_perfbench: failed: %s\n", Why.c_str());
  if (R.Metrics.empty()) {
    std::fprintf(stderr, "ace_perfbench: %s produced no metrics\n",
                 Opt.Workload.c_str());
    return 1;
  }

  std::printf("workload %s: attempted %llu, succeeded %llu, failed %llu "
              "(decisions differing from the reference within the "
              "precision bound: %llu)\n",
              Opt.Workload.c_str(),
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Attempted - R.Failed),
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.DecisionFlips));
  for (const Metric &M : R.Metrics)
    std::printf("  %-40s %14.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("meta {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
              "\"git_rev\": %s, \"build_type\": %s, \"poly_backend\": %s, "
              "\"pool_width\": %zu, \"nproc\": %u, "
              "\"input_digest\": \"%016llx\"}\n",
              quoted(Opt.Workload).c_str(),
              static_cast<unsigned long long>(Opt.Seed), Opt.Trace ? 1 : 0,
              quoted(Rev).c_str(), quoted(PERFBENCH_BUILD_TYPE).c_str(),
              quoted(ace::fhe::activePolyBackendName()).c_str(),
              ace::ThreadPool::instance().numThreads(),
              std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(R.InputDigest));

  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    Json += (I ? ", " : "") + quoted(M.Name) + ": {\"value\": " +
            number(M.Value) + ", \"unit\": " + quoted(M.Unit) + "}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
