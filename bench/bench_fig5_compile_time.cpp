//===----------------------------------------------------------------------===//
// Paper Figure 5: ANT-ACE compile times per model with the percentage
// breakdown across IR phases (NN / VECTOR / SIHE / CKKS / Others).
// Expected shape: compilation takes seconds, with the VECTOR phase
// (cleartext-to-vector transformation, i.e. weight/mask processing)
// dominating - exactly what the paper reports.
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/Telemetry.h"

#include <cstdio>

using namespace ace;
using namespace ace::bench;

int main(int argc, char **argv) {
  BenchArgs Args(argc, argv, /*DefaultModels=*/6, /*DefaultImages=*/0);
  auto Models = buildPaperModels(Args.Models);

  // Phase breakdowns come from the telemetry spans the pass manager
  // opens around every pass.
  telemetry::Telemetry &Tel = telemetry::Telemetry::instance();
  Tel.setEnabled(true);

  std::printf("=== Figure 5: compile time per model (seconds) ===\n");
  std::printf("%-18s %8s | %6s %7s %6s %6s %7s\n", "model", "total",
              "NN%", "VECTOR%", "SIHE%", "CKKS%", "Others%");
  std::string Rows;
  for (auto &M : Models) {
    Tel.clear();
    auto R = compileOrDie(M.Model, M.Data, benchOptions());
    double Known = Tel.phaseSeconds("NN") + Tel.phaseSeconds("VECTOR") +
                   Tel.phaseSeconds("SIHE") + Tel.phaseSeconds("CKKS");
    // "compile" wraps the whole pipeline, so total - phases = Others.
    double Total = Tel.phaseSeconds("compile");
    if (Total <= 0)
      Total = Known;
    auto Pct = [&](const char *Phase) {
      return Total > 0 ? 100.0 * Tel.phaseSeconds(Phase) / Total : 0.0;
    };
    std::printf("%-18s %8.3f | %6.1f %7.1f %6.1f %6.1f %7.1f\n",
                M.Spec.Name.c_str(), Total, Pct("NN"), Pct("VECTOR"),
                Pct("SIHE"), Pct("CKKS"),
                Total > 0 ? 100.0 * (Total - Known) / Total : 0.0);
    std::printf("%-18s          | nodes: NN=%zu VECTOR=%zu SIHE=%zu "
                "CKKS=%zu, bootstraps=%zu\n",
                "", R->PhaseNodeCounts["NN"], R->PhaseNodeCounts["VECTOR"],
                R->PhaseNodeCounts["SIHE"], R->PhaseNodeCounts["CKKS"],
                R->State.BootstrapCount);
    char Row[384];
    std::snprintf(Row, sizeof(Row),
                  "{\"model\": \"%s\", \"total_seconds\": %.4f, "
                  "\"nn_pct\": %.2f, \"vector_pct\": %.2f, "
                  "\"sihe_pct\": %.2f, \"ckks_pct\": %.2f, "
                  "\"bootstraps\": %zu}",
                  M.Spec.Name.c_str(), Total, Pct("NN"), Pct("VECTOR"),
                  Pct("SIHE"), Pct("CKKS"), R->State.BootstrapCount);
    Rows += std::string(Rows.empty() ? "" : ",\n  ") + Row;
  }
  std::printf("\n(paper: seconds per model, VECTOR phase dominant)\n");
  if (!Args.JsonPath.empty())
    writeBenchJson(Args.JsonPath, "fig5_compile_time", "[" + Rows + "]");
  return 0;
}
