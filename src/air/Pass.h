//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pass infrastructure. Passes transform one IrFunction plus the shared
/// CompileState; the PassManager times each pass under its phase label,
/// which is exactly the per-IR compile-time breakdown of paper Figure 5.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_AIR_PASS_H
#define ACE_AIR_PASS_H

#include "air/Ir.h"
#include "air/Layout.h"
#include "fhe/Context.h"
#include "onnx/Model.h"
#include "support/Telemetry.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace ace {
namespace air {

/// Options steering compilation: only what callers vary. Everything
/// else (the slot layout, scheme parameters, the bootstrap configuration,
/// the Expert margin) is the compiler's own decision.
struct CompileOptions {
  /// Composite sign-approximation iterations for ReLU (paper [36]).
  int ReluSignIterations = 3;
  /// Disable optimizations for ablation studies and the Expert baseline.
  bool EnableRotationKeyAnalysis = true;
  /// False refreshes every bootstrap to the deepest level any ReLU needs,
  /// plus the levels a hand implementation budgets conservatively.
  bool EnableMinimalBootstrapLevel = true;
  /// Rescale/relinearize placement of the SIHE->CKKS lowering
  /// (docs/compiler.md): true places lazily (memoized, at the last
  /// responsible moment); false is the eager reference the Expert
  /// baseline uses, settling and relinearizing at every producer.
  bool EnableRescalePlacement = true;
  /// Seed of the selected parameters' key and encryption randomness.
  uint64_t Seed = 1;
};

/// Static op budget of the lowered CKKS program: node counts by kind,
/// recorded by the SIHE->CKKS lowering. Executed telemetry adds the
/// bootstrap internals on top of these (tests/passes/OpBudgetTest.cpp
/// pins both).
struct CkksOpBudget {
  size_t Rescale = 0;
  size_t Relinearize = 0;
  size_t Rotate = 0;
  size_t ModSwitch = 0;
  size_t CtCtMul = 0;
  size_t CtPtMul = 0;
  size_t Bootstrap = 0;
};

/// State threaded through the whole pipeline.
struct CompileState {
  CompileOptions Options;
  const onnx::Model *Model = nullptr;

  /// Static CKKS op budget of the compiled program.
  CkksOpBudget Budget;

  /// Shapes for every ONNX value (filled by the frontend).
  std::map<std::string, std::vector<int64_t>> Shapes;
  /// Calibrated per-value activation bounds (ReLU scaling).
  std::map<std::string, double> Bounds;

  /// The packing grid chosen by layout selection.
  CipherLayout InputLayout;
  /// Normalization divisor applied by the generated encryptor.
  double InputDataScale = 1.0;
  /// Layout + normalization scale of each IR value (by node id).
  std::map<int, CipherLayout> Layouts;
  /// Scale factor by which the *encrypted* value was divided relative to
  /// the logical NN value (activation normalization).
  std::map<int, double> DataScales;
  /// Output denormalization: logical = encrypted * OutputDataScale.
  double OutputDataScale = 1.0;
  /// Where the logits live after the final layer.
  CipherLayout OutputLayout;
  int64_t OutputCount = 0;

  /// Rotation steps the program uses (rotation-key analysis result).
  std::set<int64_t> RotationSteps;
  /// Deepest level (active primes) each step is used at: keys truncate to
  /// this depth (level-aware key generation).
  std::map<int64_t, size_t> RotationStepMaxNumQ;
  /// Whether relinearization / conjugation keys are needed.
  bool NeedsRelin = false;
  bool NeedsConjugation = false;

  /// Number of active primes fresh inputs are encrypted with: the levels
  /// the program needs before its first bootstrap (all of them when it
  /// has none), since encryption carries the leading ReLUs.
  size_t InputNumQ = 0;
  /// Multiplicative-depth summary (filled by the CKKS lowering).
  int MaxComputeDepth = 0;
  int BootstrapDepth = 0;
  size_t BootstrapCount = 0;

  /// Selected scheme parameters (paper Table 10).
  fhe::CkksParams SelectedParams;
  /// Production-security parameter report (always computed, even when
  /// executing with toy parameters).
  size_t SecureRingDegree = 0;
  int SecureLogQ = 0;
};

/// A compiler pass.
class Pass {
public:
  virtual ~Pass() = default;
  /// Pass name for diagnostics.
  virtual const char *name() const = 0;
  /// Phase label used in the Figure 5 breakdown ("NN", "VECTOR", ...).
  virtual const char *phase() const = 0;
  virtual Status run(IrFunction &F, CompileState &State) = 0;
};

/// Runs passes in order, tracing each one. Every pass gets a telemetry
/// span named after the pass, nested (by start/duration containment)
/// inside a span for its phase label; with telemetry enabled, the phase
/// spans accumulate the Figure 5 breakdown (Telemetry::phaseSeconds).
class PassManager {
public:
  void add(std::unique_ptr<Pass> P) { Passes.push_back(std::move(P)); }

  Status run(IrFunction &F, CompileState &State) {
    for (auto &P : Passes) {
      telemetry::TraceSpan PhaseSpan("phase", P->phase());
      telemetry::TraceSpan PassSpan("pass", P->name());
      if (Status S = P->run(F, State))
        return Status::error(std::string(P->name()) + ": " + S.message());
    }
    return Status::success();
  }

private:
  std::vector<std::unique_ptr<Pass>> Passes;
};

} // namespace air
} // namespace ace

#endif // ACE_AIR_PASS_H
