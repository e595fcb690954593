//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SIHE -> CKKS lowering (paper Sec. 4.4), the automation core:
///
///  - Rescale placement: lazy and memoized, sunk past same-scale
///    additions to the last consumer that needs the plain scale (paper
///    Table 2); CompileOptions::EnableRescalePlacement=false selects the
///    eager reference that rescales right after every multiplication.
///  - Relinearization insertion after ciphertext-ciphertext products,
///    deferred under lazy placement so a sum of products relinearizes
///    once.
///  - Level inference with modswitch insertion for operand alignment.
///  - Minimal-level bootstrap placement: each refresh targets exactly the
///    depth the downstream program needs. The chain is sized for every
///    ReLU bootstrapped, and encryption carries the leading ReLUs that
///    fit in it: the input enters at the level they need.
///  - Rotation-key analysis: the precise set of rotation steps used.
///  - Automatic security parameter selection: the modulus chain follows
///    from the measured depth, N = max(N_security, N_simd) (Table 10).
///
//===----------------------------------------------------------------------===//

#ifndef ACE_PASSES_SIHETOCKKS_H
#define ACE_PASSES_SIHETOCKKS_H

#include "air/Pass.h"

namespace ace {
namespace passes {

class SiheToCkksPass : public air::Pass {
public:
  const char *name() const override { return "sihe-to-ckks"; }
  const char *phase() const override { return "CKKS"; }
  Status run(air::IrFunction &F, air::CompileState &State) override;
};

} // namespace passes
} // namespace ace

#endif // ACE_PASSES_SIHETOCKKS_H
