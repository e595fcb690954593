//===----------------------------------------------------------------------===//
// Paper Figure 6: per-image encrypted inference time, ANT-ACE (left)
// versus the Expert hand-tuned baseline (right), broken down into Conv,
// Bootstrap and ReLU. Expected shape: ACE wins on every model; the paper
// reports Conv -31.5%, Bootstrap -63.3%, ReLU -44.6%, 2.24x average.
//
// Defaults cover the two smallest models (single-core friendly); pass
// --all or --models=N for the full sweep. --thread-sweep instead runs
// the MLP end-to-end at 1/2/4/8 worker threads, verifies the decrypted
// logits are bit-identical at every count, and reports the speedup
// (docs/performance.md quotes this table). --pipeline-sweep compiles
// the MLP under lazy and eager (reference) rescale placement
// (docs/compiler.md) and reports the compiled op budgets and measured
// per-image seconds per placement. --json=PATH writes any mode's
// numbers with git-rev/build-type/threads metadata.
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/Telemetry.h"

#include <cstdio>
#include <cstring>

using namespace ace;
using namespace ace::bench;

namespace {

struct RunResult {
  double Conv = 0, Boot = 0, Relu = 0, Pool = 0, Gemm = 0, Other = 0;
  uint64_t CtCtMuls = 0, Rotations = 0, Bootstraps = 0;
  double total() const { return Conv + Boot + Relu + Pool + Gemm + Other; }
};

RunResult runOne(const BenchModel &M, const air::CompileOptions &Opt) {
  // Region breakdown and op counts both come from telemetry: the
  // executor's region spans accumulate per origin-operator phase times,
  // and the evaluator hooks count the FHE ops behind them.
  telemetry::Telemetry &Tel = telemetry::Telemetry::instance();
  Tel.clear();
  auto R = compileOrDie(M.Model, M.Data, Opt);
  codegen::CkksExecutor Exec(R->Program, R->State);
  if (Status S = Exec.setup()) {
    std::fprintf(stderr, "setup failed: %s\n", S.message().c_str());
    std::exit(1);
  }
  telemetry::CounterSnapshot Before = Tel.counters();
  auto Logits = Exec.infer(M.Data.Images[0]);
  if (!Logits.ok()) {
    std::fprintf(stderr, "inference failed: %s\n",
                 Logits.status().message().c_str());
    std::exit(1);
  }
  telemetry::CounterSnapshot Ops = Tel.counters().deltaSince(Before);
  RunResult Out;
  Out.Conv = Tel.phaseSeconds("conv");
  Out.Boot = Tel.phaseSeconds("bootstrap");
  Out.Relu = Tel.phaseSeconds("relu");
  Out.Pool = Tel.phaseSeconds("pool");
  Out.Gemm = Tel.phaseSeconds("gemm");
  Out.Other = Tel.phaseSeconds("add") + Tel.phaseSeconds("other") +
              Tel.phaseSeconds("input");
  Out.CtCtMuls = Ops.get(telemetry::Counter::CtCtMul);
  Out.Rotations = Ops.get(telemetry::Counter::Rotate);
  Out.Bootstraps = Ops.get(telemetry::Counter::Bootstrap);
  return Out;
}

// Runs the 2-hidden-layer MLP end to end at 1/2/4/8 worker threads:
// compile and key-setup once, encrypt the input once, then time run()
// at each thread count and require the decrypted logits to be
// bit-identical to the single-threaded reference (the pool's
// determinism guarantee, see support/ThreadPool.h).
int runThreadSweep(const std::string &JsonPath) {
  const int Classes = 6;
  onnx::Model Model = nn::buildMlp({24, 16, 12, Classes}, 31);
  nn::Dataset Data = nn::makeSyntheticDataset({1, 24}, Classes,
                                              /*Count=*/8,
                                              /*NoiseSigma=*/0.1, 77);
  auto R = compileOrDie(Model, Data, benchOptions());
  codegen::CkksExecutor Exec(R->Program, R->State);
  if (Status S = Exec.setup()) {
    std::fprintf(stderr, "setup failed: %s\n", S.message().c_str());
    return 1;
  }
  // Encrypt once so every thread count evaluates the same ciphertext
  // (infer() re-encrypts and would advance the RNG between runs).
  auto Ct = Exec.encryptInput(Data.Images[0]);
  if (!Ct.ok()) {
    std::fprintf(stderr, "encrypt failed: %s\n",
                 Ct.status().message().c_str());
    return 1;
  }

  std::printf("=== Thread sweep: MLP encrypted inference ===\n");
  std::printf("%8s %10s %9s  %s\n", "threads", "seconds", "speedup",
              "logits");
  std::vector<double> Reference;
  std::string Rows;
  double Serial = 0;
  bool AllIdentical = true;
  for (size_t T : {1, 2, 4, 8}) {
    ThreadPool::instance().setNumThreads(T);
    WallTimer Clock;
    auto Out = Exec.run(*Ct);
    if (!Out.ok()) {
      std::fprintf(stderr, "inference failed at %zu threads: %s\n", T,
                   Out.status().message().c_str());
      return 1;
    }
    double Seconds = Clock.seconds();
    auto LogitsOr = Exec.decryptLogits(*Out);
    if (!LogitsOr.ok()) {
      std::fprintf(stderr, "decrypt failed: %s\n",
                   LogitsOr.status().message().c_str());
      return 1;
    }
    bool Identical = true;
    if (T == 1) {
      Reference = *LogitsOr;
      Serial = Seconds;
    } else {
      Identical =
          LogitsOr->size() == Reference.size() &&
          std::memcmp(LogitsOr->data(), Reference.data(),
                      Reference.size() * sizeof(double)) == 0;
      AllIdentical = AllIdentical && Identical;
    }
    std::printf("%8zu %10.2f %8.2fx  %s\n", T, Seconds,
                Serial / Seconds,
                Identical ? "bit-identical" : "MISMATCH");
    char Row[128];
    std::snprintf(Row, sizeof(Row),
                  "%s{\"threads\": %zu, \"seconds\": %.4f, "
                  "\"bit_identical\": %s}",
                  Rows.empty() ? "" : ",\n  ", T, Seconds,
                  Identical ? "true" : "false");
    Rows += Row;
  }
  ThreadPool::instance().setNumThreads(0); // back to the env default
  if (!JsonPath.empty())
    writeBenchJson(JsonPath, "fig6_thread_sweep", "[" + Rows + "]");
  if (!AllIdentical) {
    std::fprintf(stderr, "determinism violation: logits differ across "
                         "thread counts\n");
    return 1;
  }
  return 0;
}

// Compiles the MLP under eager and lazy rescale placement, then runs one
// encrypted image per placement. The compiled rescale/relin budget is the
// headline (EXPERIMENTS.md quotes it); the measured seconds show the
// runtime saving the removed ops buy.
int runPipelineSweep(const std::string &JsonPath) {
  const int Classes = 6;
  onnx::Model Model = nn::buildMlp({24, 16, 12, Classes}, 31);
  nn::Dataset Data = nn::makeSyntheticDataset({1, 24}, Classes,
                                              /*Count=*/8,
                                              /*NoiseSigma=*/0.1, 77);

  std::printf("=== Pipeline policy sweep: MLP encrypted inference ===\n");
  std::printf("%10s | %8s %8s %8s | %8s %9s\n", "rescale", "rescales",
              "relins", "rotates", "seconds", "vs eager");
  std::string Rows;
  double EagerSeconds = 0;
  for (bool Lazy : {false, true}) {
    const char *Rescale = Lazy ? "lazy" : "eager";
    air::CompileOptions Opt = benchOptions();
    Opt.EnableRescalePlacement = Lazy;
    auto R = compileOrDie(Model, Data, Opt);
    codegen::CkksExecutor Exec(R->Program, R->State);
    if (Status S = Exec.setup()) {
      std::fprintf(stderr, "setup failed: %s\n", S.message().c_str());
      return 1;
    }
    WallTimer Clock;
    auto Logits = Exec.infer(Data.Images[0]);
    if (!Logits.ok()) {
      std::fprintf(stderr, "inference failed under %s: %s\n", Rescale,
                   Logits.status().message().c_str());
      return 1;
    }
    double Seconds = Clock.seconds();
    if (!Lazy)
      EagerSeconds = Seconds;
    const air::CkksOpBudget &B = R->State.Budget;
    std::printf("%10s | %8zu %8zu %8zu | %8.2f %8.2fx\n", Rescale, B.Rescale,
                B.Relinearize, B.Rotate, Seconds, EagerSeconds / Seconds);
    char Row[256];
    std::snprintf(Row, sizeof(Row),
                  "%s{\"pipeline\": {\"rescale\": \"%s\"}, "
                  "\"budget\": {\"rescale\": %zu, \"relin\": %zu, "
                  "\"rotate\": %zu}, \"seconds\": %.4f}",
                  Rows.empty() ? "" : ",\n  ", Rescale, B.Rescale,
                  B.Relinearize, B.Rotate, Seconds);
    Rows += Row;
  }
  if (!JsonPath.empty())
    writeBenchJson(JsonPath, "fig6_pipeline_sweep", "[" + Rows + "]");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  BenchArgs Args(argc, argv, /*DefaultModels=*/2, /*DefaultImages=*/1);
  if (Args.ThreadSweep)
    return runThreadSweep(Args.JsonPath);
  if (Args.PipelineSweep)
    return runPipelineSweep(Args.JsonPath);
  auto Models = buildPaperModels(Args.Models);
  telemetry::Telemetry::instance().setEnabled(true);

  std::printf("=== Figure 6: per-image inference time, ACE vs Expert "
              "(seconds) ===\n");
  std::printf("%-18s %-7s | %8s %8s %8s %8s | %8s\n", "model", "impl",
              "conv", "bootstr", "relu", "rest", "total");
  double SpeedupSum = 0;
  std::string Rows;
  for (auto &M : Models) {
    RunResult Ace = runOne(M, benchOptions());
    RunResult Exp = runOne(M, expert::expertOptions(benchOptions()));
    auto Print = [&](const char *Impl, const RunResult &R) {
      std::printf("%-18s %-7s | %8.2f %8.2f %8.2f %8.2f | %8.2f\n",
                  M.Spec.Name.c_str(), Impl, R.Conv, R.Boot, R.Relu,
                  R.Pool + R.Gemm + R.Other, R.total());
    };
    Print("ace", Ace);
    Print("expert", Exp);
    std::printf("%-18s %-7s | ct-ct-muls %llu vs %llu, rotations %llu vs "
                "%llu, bootstraps %llu vs %llu\n",
                "", "ops",
                static_cast<unsigned long long>(Ace.CtCtMuls),
                static_cast<unsigned long long>(Exp.CtCtMuls),
                static_cast<unsigned long long>(Ace.Rotations),
                static_cast<unsigned long long>(Exp.Rotations),
                static_cast<unsigned long long>(Ace.Bootstraps),
                static_cast<unsigned long long>(Exp.Bootstraps));
    double Speedup = Exp.total() / Ace.total();
    SpeedupSum += Speedup;
    char Row[256];
    std::snprintf(Row, sizeof(Row),
                  "%s{\"model\": \"%s\", \"ace_total\": %.4f, "
                  "\"expert_total\": %.4f, \"ace_bootstrap\": %.4f, "
                  "\"speedup\": %.4f}",
                  Rows.empty() ? "" : ",\n  ", M.Spec.Name.c_str(),
                  Ace.total(), Exp.total(), Ace.Boot, Speedup);
    Rows += Row;
    std::printf("%-18s %-7s | conv %+5.1f%%  bootstrap %+5.1f%%  relu "
                "%+5.1f%%  speedup %.2fx\n",
                "", "delta", 100.0 * (Ace.Conv - Exp.Conv) / Exp.Conv,
                100.0 * (Ace.Boot - Exp.Boot) / Exp.Boot,
                100.0 * (Ace.Relu - Exp.Relu) / Exp.Relu, Speedup);
  }
  std::printf("\naverage speedup: %.2fx (paper: 2.24x; Conv -31.5%%, "
              "Bootstrap -63.3%%, ReLU -44.6%%)\n",
              SpeedupSum / Models.size());
  if (!Args.JsonPath.empty())
    writeBenchJson(Args.JsonPath, "fig6_inference", "[" + Rows + "]");
  return 0;
}
