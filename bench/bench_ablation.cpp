//===----------------------------------------------------------------------===//
// Ablation study over the design choices DESIGN.md calls out: each of the
// compiler automations (rotation-key analysis, minimal-level
// bootstrapping, delayed rescale placement) is disabled in isolation on
// nano-resnet-20; the deltas decompose the ACE-vs-Expert gap of Figs. 6-7.
//
// The configurations run round-robin, one encrypted inference each per
// round, and the seconds column is the median over the rounds, so a host
// whose speed drifts during the run slows every row alike instead of the
// rows that happen to run late. Each round's seconds are printed too, and
// beside them the inference's rescale, relinearization, key-switch and
// limb-NTT counts: exact work a drifting host cannot blur.
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/MemTrack.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace ace;
using namespace ace::bench;

namespace {

/// Rounds of the round-robin; every configuration runs once per round.
constexpr int kRounds = 3;

struct Sample {
  double Seconds = 0;
  size_t KeyBytes = 0;
  size_t KeyCount = 0;
  size_t Rotations = 0;
  size_t Rescales = 0;
  size_t Relins = 0;
  size_t KeySwitches = 0;
  size_t Ntts = 0; ///< forward + inverse, one per limb
};

Sample runOne(const BenchModel &M, const driver::CompileResult &R) {
  codegen::CkksExecutor Exec(R.Program, R.State);
  if (Status S = Exec.setup()) {
    std::fprintf(stderr, "setup failed: %s\n", S.message().c_str());
    std::exit(1);
  }
  telemetry::Telemetry &Tel = telemetry::Telemetry::instance();
  telemetry::CounterSnapshot Before = Tel.counters();
  WallTimer Clock;
  auto Logits = Exec.infer(M.Data.Images[0]);
  if (!Logits.ok())
    std::exit(1);
  Sample Out;
  Out.Seconds = Clock.seconds();
  Out.KeyBytes = Exec.evalKeyBytes();
  Out.KeyCount = Exec.rotationKeyCount();
  using telemetry::Counter;
  telemetry::CounterSnapshot Delta = Tel.counters().deltaSince(Before);
  Out.Rotations = Delta.get(Counter::Rotate);
  Out.Rescales = Delta.get(Counter::Rescale);
  Out.Relins = Delta.get(Counter::Relinearize);
  Out.KeySwitches = Delta.get(Counter::KeySwitch);
  Out.Ntts = Delta.get(Counter::NttForward) + Delta.get(Counter::NttInverse);
  return Out;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t H = V.size() / 2;
  return V.size() % 2 ? V[H] : (V[H - 1] + V[H]) / 2;
}

} // namespace

int main(int argc, char **argv) {
  BenchArgs Args(argc, argv, /*DefaultModels=*/1, /*DefaultImages=*/0);
  auto Models = buildPaperModels(1);
  BenchModel &M = Models[0];
  // The op-count columns read telemetry's counters.
  telemetry::Telemetry::instance().setEnabled(true);

  struct Config {
    const char *Name;
    air::CompileOptions Opt;
    std::unique_ptr<driver::CompileResult> Compiled = nullptr;
    std::vector<double> Seconds = {};
    Sample Last = {};
  };
  air::CompileOptions Base = benchOptions();
  std::vector<Config> Configs;
  Configs.push_back({"all-optimizations", Base});
  {
    auto O = Base;
    O.EnableRotationKeyAnalysis = false;
    Configs.push_back({"no-rotation-key-analysis", O});
  }
  {
    auto O = Base;
    O.EnableMinimalBootstrapLevel = false;
    Configs.push_back({"no-minimal-bootstrap", O});
  }
  {
    auto O = Base;
    O.EnableRescalePlacement = false;
    Configs.push_back({"no-delayed-rescale", O});
  }
  Configs.push_back({"expert-(all-off)", expert::expertOptions(Base)});

  for (auto &C : Configs)
    C.Compiled = compileOrDie(M.Model, M.Data, C.Opt);
  for (int Round = 0; Round < kRounds; ++Round)
    for (auto &C : Configs) {
      C.Last = runOne(M, *C.Compiled);
      C.Seconds.push_back(C.Last.Seconds);
    }

  std::printf("=== Ablation on %s: one encrypted inference, median of %d "
              "round-robin rounds ===\n",
              M.Spec.Name.c_str(), kRounds);
  std::printf("%-26s | %8s %-20s | %8s %9s %8s %7s %9s %9s %12s\n",
              "configuration", "seconds", "per round", "rotkeys",
              "rotations", "rescales", "relins", "keyswitch", "limb-ntts",
              "key-memory");
  std::string Rows;
  for (const auto &C : Configs) {
    const Sample &S = C.Last;
    double Seconds = median(C.Seconds);
    std::string Rounds, RoundsJson;
    for (double R : C.Seconds) {
      char Cell[32];
      std::snprintf(Cell, sizeof(Cell), "%.2f", R);
      Rounds += std::string(Rounds.empty() ? "" : " ") + Cell;
      std::snprintf(Cell, sizeof(Cell), "%.4f", R);
      RoundsJson += std::string(RoundsJson.empty() ? "" : ", ") + Cell;
    }
    std::printf("%-26s | %8.2f %-20s | %8zu %9zu %8zu %7zu %9zu %9zu %12s\n",
                C.Name, Seconds, Rounds.c_str(), S.KeyCount, S.Rotations,
                S.Rescales, S.Relins, S.KeySwitches, S.Ntts,
                formatBytes(S.KeyBytes).c_str());
    char Row[512];
    std::snprintf(Row, sizeof(Row),
                  "{\"config\": \"%s\", \"seconds\": %.4f, "
                  "\"rounds\": %d, \"round_seconds\": [%s], "
                  "\"rotkeys\": %zu, \"rotations\": %zu, "
                  "\"rescales\": %zu, \"relins\": %zu, "
                  "\"keyswitches\": %zu, \"ntts\": %zu, "
                  "\"key_bytes\": %zu}",
                  C.Name, Seconds, kRounds, RoundsJson.c_str(), S.KeyCount,
                  S.Rotations, S.Rescales, S.Relins, S.KeySwitches, S.Ntts,
                  S.KeyBytes);
    Rows += std::string(Rows.empty() ? "" : ",\n  ") + Row;
  }
  if (!Args.JsonPath.empty())
    writeBenchJson(Args.JsonPath, "ablation", "[" + Rows + "]");
  return 0;
}
