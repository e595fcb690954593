//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "driver/AceCompiler.h"

#include "passes/Frontend.h"
#include "passes/NnToVector.h"
#include "passes/SiheToCkks.h"
#include "passes/VectorToSihe.h"

#include <iostream>

using namespace ace;
using namespace ace::driver;
using namespace ace::air;

StatusOr<std::unique_ptr<CompileResult>>
AceCompiler::compile(const onnx::Model &Model,
                     const std::vector<nn::Tensor> &Calibration,
                     bool KeepDumps) {
  telemetry::TraceSpan CompileSpan("compiler", "compile");
  auto Result = std::make_unique<CompileResult>();
  CompileState &State = Result->State;
  State.Options = Options;
  State.Model = &Model;
  IrFunction &F = Result->Program;

  telemetry::Telemetry &Tel = telemetry::Telemetry::instance();

  auto Snapshot = [&](const char *Phase, DialectKind Dialect) -> Status {
    Result->PhaseNodeCounts[Phase] = F.countDialect(Dialect);
    if (KeepDumps)
      Result->PhaseDumps[Phase] = printFunction(F);
    if (telemetry::enabled()) {
      Tel.recordSnapshot(std::string("compile:") + Phase);
      Tel.sampleRss("rss");
    }
    return verifyFunction(F);
  };

  // Frontend (timed as the NN phase of Figure 5).
  {
    telemetry::TraceSpan Span("phase", "NN");
    if (Status S = passes::importModel(Model, Calibration, F, State))
      return S;
    if (Status S = Snapshot("NN", DialectKind::DK_Nn))
      return S;
  }

  PassManager PM;
  PM.add(std::make_unique<passes::NnToVectorPass>());
  if (Status S = PM.run(F, State))
    return S;
  if (Status S = Snapshot("VECTOR", DialectKind::DK_Vector))
    return S;

  PassManager PM2;
  PM2.add(std::make_unique<passes::VectorToSihePass>());
  if (Status S = PM2.run(F, State))
    return S;
  if (Status S = Snapshot("SIHE", DialectKind::DK_Sihe))
    return S;

  PassManager PM3;
  PM3.add(std::make_unique<passes::SiheToCkksPass>());
  if (Status S = PM3.run(F, State))
    return S;
  if (Status S = Snapshot("CKKS", DialectKind::DK_Ckks))
    return S;

  return Result;
}

void ace::driver::printTelemetryReport(std::ostream &OS, bool Json) {
  telemetry::Telemetry::instance().writeReport(OS, Json);
}
