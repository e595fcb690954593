//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "Expert" baseline of the paper's evaluation (Sec. 6, Figs. 6-7):
/// a hand-tuned-style encrypted ResNet in the manner of Lee et al. [35].
/// The baseline shares the runtime and the packing strategy (multiplexed
/// convolutions), but lacks the compiler's automation:
///
///  - full power-of-two rotation-key set; arbitrary rotations decompose
///    into multiple key switches (more work, far more key memory),
///  - bootstrapping always refreshes to the chain top plus a
///    conservatively hand-budgeted level margin,
///  - eager rescaling after every multiplication (no delayed placement),
///
/// which is exactly the gap the paper attributes its Conv/Bootstrap/ReLU
/// speedups and its 84.8% key-memory saving to.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_EXPERT_EXPERTBASELINE_H
#define ACE_EXPERT_EXPERTBASELINE_H

#include "air/Pass.h"

namespace ace {
namespace expert {

/// Derives the Expert baseline's options from \p Base: all compiler
/// automations disabled (the bootstrap margin comes with
/// EnableMinimalBootstrapLevel = false).
air::CompileOptions expertOptions(air::CompileOptions Base);

} // namespace expert
} // namespace ace

#endif // ACE_EXPERT_EXPERTBASELINE_H
