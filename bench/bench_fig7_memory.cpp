//===----------------------------------------------------------------------===//
// Paper Figure 7: memory usage of ANT-ACE versus the Expert baseline,
// highlighting the CKKS evaluation keys' share. ACE generates only the
// keys the rotation analysis found (paper: 84.8% average reduction);
// the Expert baseline carries the full power-of-two set plus margin
// levels. Each row also measures what one inference adds on top of its
// keys: ciphertexts and encoded plaintexts. Alongside the measured
// toy-parameter bytes, the bench projects the same key counts to the
// paper's production parameters (N = 2^16, ~30 primes), where a single
// key exceeds 1 GB.
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/LimbPool.h"
#include "support/MemTrack.h"
#include "support/Telemetry.h"

#include <cstdio>
#include <malloc.h>

using namespace ace;
using namespace ace::bench;

namespace {

struct MemResult {
  size_t RotationKeys = 0;
  size_t KeyBytes = 0;
  size_t TotalBytes = 0;
  size_t ChainLen = 0;
  size_t RingDegree = 0;
  size_t SetupRssBytes = 0;
  size_t RunRssBytes = 0;
};

/// RSS now, after giving parked limbs and the heap's free pages back, so
/// the growth measured from it cannot reuse memory an earlier step left.
size_t trimmedRssBytes() {
  LimbPool::instance().trim();
  malloc_trim(0);
  return currentRssBytes();
}

MemResult runOne(const BenchModel &M, const air::CompileOptions &Opt) {
  auto R = compileOrDie(M.Model, M.Data, Opt);
  // The row's own RSS growth over setup, then over one inference. Limbs
  // parked by earlier steps and the heap's free pages go back first, so a
  // step cannot reuse them and read low; a process high-water mark would
  // read the largest earlier row instead.
  size_t RssBefore = trimmedRssBytes();
  codegen::CkksExecutor Exec(R->Program, R->State);
  if (Status S = Exec.setup()) {
    std::fprintf(stderr, "setup failed: %s\n", S.message().c_str());
    std::exit(1);
  }
  size_t RssAfter = currentRssBytes();
  auto Ct = Exec.encryptInput(M.Data.Images[0]);
  if (!Ct.ok()) {
    std::fprintf(stderr, "encrypt failed: %s\n",
                 Ct.status().message().c_str());
    std::exit(1);
  }
  size_t RunBefore = trimmedRssBytes();
  auto Result = Exec.run(*Ct);
  if (!Result.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 Result.status().message().c_str());
    std::exit(1);
  }
  size_t RunAfter = currentRssBytes();
  MemResult Out;
  Out.RotationKeys = Exec.rotationKeyCount();
  Out.KeyBytes = Exec.evalKeyBytes();
  Out.TotalBytes = Exec.keyBytes();
  Out.ChainLen =
      static_cast<size_t>(R->State.SelectedParams.NumRescaleModuli) + 1;
  Out.RingDegree = R->State.SelectedParams.RingDegree;
  Out.SetupRssBytes = RssAfter > RssBefore ? RssAfter - RssBefore : 0;
  Out.RunRssBytes = RunAfter > RunBefore ? RunAfter - RunBefore : 0;
  return Out;
}

/// One steady-state measurement leg: \p Runs encrypted inferences over
/// the same ciphertext with the limb pool forced to \p PoolOn, counting
/// fresh heap allocations (pool misses — counted in bypass mode too, so
/// both legs read the same counter) and the peak-RSS growth.
struct SteadyResult {
  double AllocsPerRun = 0.0;
  size_t RssDeltaBytes = 0;
};

SteadyResult steadyStateLeg(codegen::CkksExecutor &Exec,
                            const fhe::Ciphertext &Ct, int Runs,
                            bool PoolOn) {
  LimbPool &Pool = LimbPool::instance();
  bool Saved = Pool.enabled();
  Pool.setEnabled(PoolOn);
  // Warm up: populate the pool's bins (or the allocator's free lists)
  // so the measured window is the long-running server's steady state.
  for (int I = 0; I < 2; ++I) {
    auto Out = Exec.run(Ct);
    if (!Out.ok()) {
      std::fprintf(stderr, "steady-state run failed: %s\n",
                   Out.status().message().c_str());
      std::exit(1);
    }
  }
  telemetry::Telemetry::instance().sampleRss("steady_state_before");
  size_t RssBefore = telemetry::Telemetry::instance().peakRssBytes();
  Pool.resetCounters();
  for (int I = 0; I < Runs; ++I) {
    auto Out = Exec.run(Ct);
    if (!Out.ok()) {
      std::fprintf(stderr, "steady-state run failed: %s\n",
                   Out.status().message().c_str());
      std::exit(1);
    }
  }
  LimbPoolStats S = Pool.stats();
  telemetry::Telemetry::instance().sampleRss("steady_state_after");
  size_t RssAfter = telemetry::Telemetry::instance().peakRssBytes();
  Pool.setEnabled(Saved);
  SteadyResult Out;
  Out.AllocsPerRun =
      static_cast<double>(S.Misses) / static_cast<double>(Runs);
  Out.RssDeltaBytes = RssAfter > RssBefore ? RssAfter - RssBefore : 0;
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  BenchArgs Args(argc, argv, /*DefaultModels=*/3, /*DefaultImages=*/0);
  auto Models = buildPaperModels(Args.Models);
  telemetry::Telemetry::instance().setEnabled(true);

  std::printf("=== Figure 7: key memory, ACE vs Expert ===\n");
  std::printf("%-18s %-7s | %8s %12s %12s %10s %10s | %14s\n", "model",
              "impl", "rotkeys", "eval-keys", "total-mem", "setup-rss",
              "run-rss", "prod-scale-keys");
  std::string Rows;
  for (auto &M : Models) {
    MemResult Ace = runOne(M, benchOptions());
    MemResult Exp = runOne(M, expert::expertOptions(benchOptions()));
    auto Print = [&](const char *Impl, const MemResult &R, size_t ToyN) {
      // Production projection: scale the measured key bytes (which embed
      // the level-aware truncation) by the ring-degree ratio to N=2^16.
      double Scale = 65536.0 / static_cast<double>(ToyN);
      double ProjGiB = static_cast<double>(R.KeyBytes) * Scale /
                       (1024.0 * 1024.0 * 1024.0);
      std::printf("%-18s %-7s | %8zu %12s %12s %10s %10s | %10.1f GiB\n",
                  M.Spec.Name.c_str(), Impl, R.RotationKeys,
                  formatBytes(R.KeyBytes).c_str(),
                  formatBytes(R.TotalBytes).c_str(),
                  formatBytes(R.SetupRssBytes).c_str(),
                  formatBytes(R.RunRssBytes).c_str(), ProjGiB);
    };
    Print("ace", Ace, Ace.RingDegree);
    Print("expert", Exp, Exp.RingDegree);
    std::printf("%-18s %-7s | key-memory reduction: %.1f%%\n", "", "delta",
                100.0 * (1.0 - static_cast<double>(Ace.KeyBytes) /
                                   static_cast<double>(Exp.KeyBytes)));
    char Row[512];
    std::snprintf(Row, sizeof(Row),
                  "{\"model\": \"%s\", \"ace_rotkeys\": %zu, "
                  "\"ace_key_bytes\": %zu, \"ace_run_rss_bytes\": %zu, "
                  "\"expert_rotkeys\": %zu, \"expert_key_bytes\": %zu, "
                  "\"expert_run_rss_bytes\": %zu, \"reduction_pct\": %.2f}",
                  M.Spec.Name.c_str(), Ace.RotationKeys, Ace.KeyBytes,
                  Ace.RunRssBytes, Exp.RotationKeys, Exp.KeyBytes,
                  Exp.RunRssBytes,
                  100.0 * (1.0 - static_cast<double>(Ace.KeyBytes) /
                                     static_cast<double>(Exp.KeyBytes)));
    Rows += std::string(Rows.empty() ? "" : ",\n  ") + Row;
  }
  std::printf("\n(paper: ACE reduces key memory by 84.8%% on average; "
              "ResNet-20 still needs 34.3 GB of evaluation keys)\n");

  // Steady-state allocation churn: the long-running server story. One
  // executor, one ciphertext, many inferences — count fresh heap
  // allocations per run with the limb pool on vs bypassed.
  {
    const int Runs = 8;
    onnx::Model Model = nn::buildMlp({24, 16, 12, 6}, 31);
    nn::Dataset Data = nn::makeSyntheticDataset({1, 24}, 6, /*Count=*/4,
                                                /*NoiseSigma=*/0.1, 77);
    auto R = compileOrDie(Model, Data, benchOptions());
    codegen::CkksExecutor Exec(R->Program, R->State);
    if (Status S = Exec.setup()) {
      std::fprintf(stderr, "setup failed: %s\n", S.message().c_str());
      return 1;
    }
    auto Ct = Exec.encryptInput(Data.Images[0]);
    if (!Ct.ok()) {
      std::fprintf(stderr, "encrypt failed: %s\n",
                   Ct.status().message().c_str());
      return 1;
    }
    SteadyResult Off = steadyStateLeg(Exec, *Ct, Runs, /*PoolOn=*/false);
    SteadyResult On = steadyStateLeg(Exec, *Ct, Runs, /*PoolOn=*/true);
    double Reduction =
        On.AllocsPerRun > 0.0 ? Off.AllocsPerRun / On.AllocsPerRun : 0.0;
    std::printf("\n=== Steady-state limb allocations per inference ===\n");
    std::printf("%-10s %16s %14s\n", "pool", "allocs/run",
                "peak-rss-delta");
    std::printf("%-10s %16.1f %14s\n", "off", Off.AllocsPerRun,
                formatBytes(Off.RssDeltaBytes).c_str());
    std::printf("%-10s %16.1f %14s\n", "on", On.AllocsPerRun,
                formatBytes(On.RssDeltaBytes).c_str());
    if (On.AllocsPerRun > 0.0)
      std::printf("%-10s %15.1fx fewer heap allocations\n", "delta",
                  Reduction);
    else
      std::printf("%-10s zero steady-state heap allocations with pool "
                  "on\n", "delta");
    char Row[384];
    std::snprintf(Row, sizeof(Row),
                  "{\"model\": \"steady_state_mlp\", "
                  "\"pool_off_allocs_per_run\": %.1f, "
                  "\"pool_on_allocs_per_run\": %.1f, "
                  "\"alloc_reduction_x\": %.1f, "
                  "\"pool_off_rss_delta_bytes\": %zu, "
                  "\"pool_on_rss_delta_bytes\": %zu}",
                  Off.AllocsPerRun, On.AllocsPerRun, Reduction,
                  Off.RssDeltaBytes, On.RssDeltaBytes);
    Rows += std::string(Rows.empty() ? "" : ",\n  ") + Row;
  }

  if (!Args.JsonPath.empty())
    writeBenchJson(Args.JsonPath, "fig7_memory", "[" + Rows + "]");
  return 0;
}
