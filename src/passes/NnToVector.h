//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// NN -> VECTOR lowering (paper Sec. 4.2): selects the packed data layout,
/// turns convolutions into rotate/multiply-mask accumulations across
/// channel shifts and kernel taps, each GEMM into one Halevi-Shoup
/// diagonal mat_diag node (paper Listing 2's roll/mul/add loop, which the
/// SIHE lowering expands baby-step/giant-step), pooling into rotation
/// trees with layout dilation, and absorbs activation-normalization scale
/// ratios into the weight masks. Weight processing is evaluated eagerly at
/// compile time - masks become VECTOR constants, matching how ANT-ACE
/// stores preprocessed weights externally (paper Sec. 3.4).
///
//===----------------------------------------------------------------------===//

#ifndef ACE_PASSES_NNTOVECTOR_H
#define ACE_PASSES_NNTOVECTOR_H

#include "air/Pass.h"

namespace ace {
namespace passes {

class NnToVectorPass : public air::Pass {
public:
  const char *name() const override { return "nn-to-vector"; }
  const char *phase() const override { return "VECTOR"; }
  Status run(air::IrFunction &F, air::CompileState &State) override;
};

} // namespace passes
} // namespace ace

#endif // ACE_PASSES_NNTOVECTOR_H
