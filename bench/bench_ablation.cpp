//===----------------------------------------------------------------------===//
// Ablation study over the design choices DESIGN.md calls out: each of the
// compiler automations (rotation-key analysis, minimal-level
// bootstrapping, delayed rescale placement) is disabled in isolation on
// nano-resnet-20; the deltas decompose the ACE-vs-Expert gap of Figs. 6-7.
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/MemTrack.h"
#include "support/Telemetry.h"

#include <cstdio>

using namespace ace;
using namespace ace::bench;

namespace {

struct Sample {
  double Seconds = 0;
  size_t KeyBytes = 0;
  size_t KeyCount = 0;
  size_t Rotations = 0;
};

Sample runOne(const BenchModel &M, const air::CompileOptions &Opt) {
  auto R = compileOrDie(M.Model, M.Data, Opt);
  codegen::CkksExecutor Exec(R->Program, R->State);
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
  Out.Rotations =
      Tel.counters().deltaSince(Before).get(telemetry::Counter::Rotate);
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  BenchArgs Args(argc, argv, /*DefaultModels=*/1, /*DefaultImages=*/0);
  auto Models = buildPaperModels(1);
  BenchModel &M = Models[0];
  // The rotation column reads telemetry's op counters.
  telemetry::Telemetry::instance().setEnabled(true);

  struct Config {
    const char *Name;
    air::CompileOptions Opt;
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
    O.ExpertMarginLevels = 3;
    Configs.push_back({"no-minimal-bootstrap", O});
  }
  {
    auto O = Base;
    O.EnableRescalePlacement = false;
    Configs.push_back({"no-delayed-rescale", O});
  }
  Configs.push_back({"expert-(all-off)", expert::expertOptions(Base)});

  std::printf("=== Ablation on %s: one encrypted inference ===\n",
              M.Spec.Name.c_str());
  std::printf("%-26s | %8s %8s %9s %12s\n", "configuration", "seconds",
              "rotkeys", "rotations", "key-memory");
  std::string Rows;
  for (auto &C : Configs) {
    Sample S = runOne(M, C.Opt);
    std::printf("%-26s | %8.2f %8zu %9zu %12s\n", C.Name, S.Seconds,
                S.KeyCount, S.Rotations, formatBytes(S.KeyBytes).c_str());
    char Row[256];
    std::snprintf(Row, sizeof(Row),
                  "{\"config\": \"%s\", \"seconds\": %.4f, "
                  "\"rotkeys\": %zu, \"rotations\": %zu, "
                  "\"key_bytes\": %zu}",
                  C.Name, S.Seconds, S.KeyCount, S.Rotations, S.KeyBytes);
    Rows += std::string(Rows.empty() ? "" : ",\n  ") + Row;
  }
  if (!Args.JsonPath.empty())
    writeBenchJson(Args.JsonPath, "ablation", "[" + Rows + "]");
  return 0;
}
