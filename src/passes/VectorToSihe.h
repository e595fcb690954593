//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// VECTOR -> SIHE lowering (paper Sec. 4.3): ciphertext operations are
/// recognized by type inference from the encrypted inputs, cleartext
/// operands gain SIHE.encode wrappers (paper Listing 3), and ReLU is
/// approximated by the composite odd-polynomial sign method of paper
/// reference [36]: relu(x) = x (1/2 + sign(x)/2) with
/// sign ~ f o f o ... o f (1.4 x), f(t) = (35t - 35t^3 + 21t^5 - 5t^7)/16.
/// Each f costs 3 levels; the 1.4 and the 1/2 fold into the first and
/// last steps' coefficients (docs/compiler.md). Activation normalization
/// guarantees |x| <= 1 entering every ReLU, so the approximation needs
/// no per-site range management.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_PASSES_VECTORTOSIHE_H
#define ACE_PASSES_VECTORTOSIHE_H

#include "air/Pass.h"

namespace ace {
namespace passes {

class VectorToSihePass : public air::Pass {
public:
  const char *name() const override { return "vector-to-sihe"; }
  const char *phase() const override { return "SIHE"; }
  Status run(air::IrFunction &F, air::CompileState &State) override;
};

/// Multiplicative depth of one composite-sign ReLU with \p Iterations
/// f-compositions: 3 per composition plus 1 for the final product with
/// x. The CKKS lowering derives bootstrap targets from the IR itself;
/// ReluApproxTest pins that the two agree.
int reluDepth(int Iterations);

} // namespace passes
} // namespace ace

#endif // ACE_PASSES_VECTORTOSIHE_H
