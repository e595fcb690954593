//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// POLY-level statistics of a CKKS program (paper Sec. 4.5). The paper
/// lowers every CKKS operation into RNS loops over hw_* polynomial
/// primitives (paper Table 7), with two POLY-level optimizations:
///
///  - operator fusion: multiply-then-accumulate pairs become
///    hw_modmuladd, and decomp+mod_up become one fused traversal
///    (the ACEfhe decomp_modup API of Sec. 4.5);
///  - RNS-loop fusion: adjacent loops with identical compile-time trip
///    counts merge, eliminating intermediate polynomial buffers (the
///    paper's 10 MB -> 512 KB example).
///
/// Execution happens at the CKKS level against the runtime (whose kernels
/// implement exactly these hw_* loops), so no POLY program is built:
/// countPolyOps walks the CKKS program once and adds up the loops and
/// primitives that lowering would produce.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_PASSES_CKKSTOPOLY_H
#define ACE_PASSES_CKKSTOPOLY_H

#include "air/Pass.h"

namespace ace {
namespace passes {

/// Operation counts of a POLY program.
struct PolyStats {
  size_t RnsLoops = 0;
  size_t HwModMul = 0;
  size_t HwModAdd = 0;
  size_t HwModMulAdd = 0;
  size_t HwNtt = 0;
  size_t HwIntt = 0;
  size_t Decomp = 0;
  size_t ModUp = 0;
  size_t ModDown = 0;
  size_t FusedDecompModUp = 0;

  size_t totalHwOps() const {
    return HwModMul + HwModAdd + HwModMulAdd + HwNtt + HwIntt;
  }
};

/// Counts the POLY operations of the CKKS-dialect function \p F, with or
/// without the two fusion optimizations. A new RNS loop opens when the
/// trip count changes or after a barrier (key switches, rescales and
/// bootstraps). The counts model the program codegen::emitC writes, in
/// which every rotation and relinearization pays its own key switch
/// (decomp + mod_up, then mod_down); the in-process CkksExecutor hoists a
/// matvec's baby-step rotations onto one shared ModUp, so it runs fewer
/// ModUps than counted.
StatusOr<PolyStats> countPolyOps(const air::IrFunction &F,
                                 const air::CompileState &State,
                                 bool EnableFusion);

} // namespace passes
} // namespace ace

#endif // ACE_PASSES_CKKSTOPOLY_H
