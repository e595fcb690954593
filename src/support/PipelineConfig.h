//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The packing-strategy knob of the NN->VECTOR lowering (docs/compiler.md).
/// resolvePackingStrategy (support/Env.h) resolves it through the
/// settings' precedence chain:
///
///   explicit CompileOptions value
///     > environment (ACE_PACKING)
///       > builtin default (auto: the per-layer cost model)
///
/// so a test that pins a strategy stays deterministic while the CI matrix
/// can sweep whole test suites through the environment. Rescale placement
/// is not a knob: the SIHE->CKKS lowering always places lazily, and
/// CompileOptions::EnableRescalePlacement=false selects the eager
/// reference the Expert baseline and the ablation measure against.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_SUPPORT_PIPELINE_CONFIG_H
#define ACE_SUPPORT_PIPELINE_CONFIG_H

namespace ace {

/// Matrix-vector packing strategy of the NN->VECTOR lowering.
enum class PackingStrategy {
  /// Per-layer cost model (docs/compiler.md) picks among the concrete
  /// strategies below.
  PS_Auto,
  /// Halevi-Shoup diagonals as an explicit rotate/mask/add chain: one
  /// (hoistable) rotation and one ct-pt multiply per nonzero diagonal,
  /// one rotation key per distinct diagonal.
  PS_Diag,
  /// Baby-step/giant-step mat_diag (O(sqrt n) rotations and keys).
  PS_Bsgs,
  /// Column packing: replicate the input across K padded blocks, one
  /// wide ct-pt multiply, then a rotate-and-add reduction. Costs a slot
  /// grid large enough for K_pad * block and two multiplicative levels;
  /// only eligible on flat (non-spatial) layouts.
  PS_Column,
};

/// Printable strategy name ("bsgs", ...).
const char *packingStrategyName(PackingStrategy Strategy);

/// Parses a strategy spelling (auto, diag, bsgs, column, in any case);
/// returns false on unknown input.
bool parsePackingStrategy(const char *Spec, PackingStrategy &Out);

} // namespace ace

#endif // ACE_SUPPORT_PIPELINE_CONFIG_H
