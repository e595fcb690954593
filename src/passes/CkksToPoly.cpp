//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "passes/CkksToPoly.h"

#include <algorithm>

using namespace ace;
using namespace ace::passes;
using namespace ace::air;

namespace {

/// Adds up POLY operations while tracking the open RNS loop for loop
/// fusion.
struct PolyCounter {
  bool EnableFusion;
  /// The runtime's hybrid key-switching shape for the selected
  /// parameters.
  fhe::KeySwitchShape Shape;
  PolyStats Stats{};
  /// Trip count of the open RNS loop; -1 when none is open.
  int64_t OpenTrip = -1;

  /// Enters an RNS loop with trip count \p Trip, fusing into the open
  /// loop when the trip counts match (compile-time constants, paper
  /// Sec. 4.5).
  void loop(int64_t Trip) {
    if (EnableFusion && OpenTrip == Trip)
      return;
    OpenTrip = Trip;
    ++Stats.RnsLoops;
  }

  /// Ends the fusable region (key switches and domain changes act as
  /// barriers).
  void barrier() { OpenTrip = -1; }

  /// \p Count limb multiply-accumulates: one fused kernel, or a
  /// multiply and an add without fusion.
  void mulAdd(int64_t Count) {
    if (EnableFusion) {
      Stats.HwModMulAdd += Count;
    } else {
      Stats.HwModMul += Count;
      Stats.HwModAdd += Count;
    }
  }

  /// Hybrid key switching at \p L active primes (paper Table 7's
  /// coarse-grained ops, sized by fhe::keySwitchShape): decomp + mod_up
  /// raises each of the ceil(L/alpha) digits to the other active primes
  /// and the K special primes, inner products run against both key
  /// polynomials of every digit, mod_down divides both results by P.
  void keySwitch(int64_t L) {
    barrier();
    if (EnableFusion) {
      ++Stats.FusedDecompModUp; // fused ACEfhe API (paper Sec. 4.5)
    } else {
      ++Stats.Decomp;
      ++Stats.ModUp;
    }
    int64_t Alpha = static_cast<int64_t>(Shape.DigitSize);
    int64_t K = static_cast<int64_t>(Shape.NumSpecial);
    int64_t Digits = static_cast<int64_t>(Shape.digits(L));
    // A digit of S primes converts into the other L - S active primes and
    // the K special primes: one limb product per (source, target) pair,
    // plus the centering multiple's when S > 1, then one NTT per target.
    // Its own limbs are copied.
    int64_t Raised = 0, Products = 0;
    for (int64_t First = 0; First < L; First += Alpha) {
      int64_t S = std::min(Alpha, L - First);
      Raised += L - S + K;
      Products += (S > 1 ? S + 1 : S) * (L - S + K);
    }
    loop(L);
    Stats.HwIntt += L;
    if (Alpha > 1)
      Stats.HwModMul += L; // inverse digit hats
    mulAdd(Products);
    Stats.HwNtt += Raised;
    mulAdd(2 * Digits * (L + K));
    ++Stats.ModDown;
    // Both results: the K special limbs to coefficients, their exact
    // conversion into the L chain primes, NTT, and (acc - t) * P^{-1}.
    loop(L);
    Stats.HwIntt += 2 * K;
    if (K > 1)
      Stats.HwModMul += 2 * K; // inverse special hats
    mulAdd(2 * (K > 1 ? K + 1 : K) * L);
    Stats.HwNtt += 2 * L;
    Stats.HwModMul += 2 * L;
    barrier();
  }
};

} // namespace

StatusOr<PolyStats> ace::passes::countPolyOps(const IrFunction &F,
                                              const CompileState &State,
                                              bool EnableFusion) {
  PolyCounter C{EnableFusion, fhe::keySwitchShape(State.SelectedParams)};

  auto NumQOf = [](const IrNode *N) -> int64_t {
    return N->CkksLevel >= 0 ? N->CkksLevel + 1 : 1;
  };

  for (const auto &NPtr : F.nodes()) {
    const IrNode *N = NPtr.get();
    int64_t L = NumQOf(N);
    switch (N->Kind) {
    case NodeKind::NK_Input:
    case NodeKind::NK_ConstVec:
    case NodeKind::NK_CkksEncode:
    case NodeKind::NK_Return:
    case NodeKind::NK_CkksModSwitch: // drops components; no arithmetic
      break;
    case NodeKind::NK_CkksAdd:
      // Two ciphertext polynomials, element-wise (the paper's
      // ciphertext-addition example of Sec. 4.5).
      C.loop(L);
      C.Stats.HwModAdd += 2 * L;
      break;
    case NodeKind::NK_CkksAddConst:
      C.loop(L);
      C.Stats.HwModAdd += L;
      break;
    case NodeKind::NK_CkksMulConst:
      C.loop(L);
      C.Stats.HwModMul += 2 * L;
      break;
    case NodeKind::NK_CkksRotate:
      // The automorphism is an NTT-domain permutation (c0 directly, c1's
      // raised digits inside the key switch).
      C.keySwitch(L);
      break;
    case NodeKind::NK_CkksMul:
      C.loop(L);
      if (N->Operands[1]->Type == TypeKind::TK_Plain) {
        // ct * pt feeding an accumulation fuses into hw_modmuladd.
        if (EnableFusion)
          C.Stats.HwModMulAdd += 2 * L;
        else
          C.Stats.HwModMul += 2 * L;
      } else {
        C.Stats.HwModMul += 4 * L;
        C.Stats.HwModAdd += L;
      }
      break;
    case NodeKind::NK_CkksRelin:
      C.keySwitch(L);
      break;
    case NodeKind::NK_CkksRescale: {
      int64_t In = NumQOf(N->Operands[0]);
      C.barrier();
      C.loop(In);
      C.Stats.HwIntt += 2;
      C.Stats.HwNtt += 2 * (In - 1);
      C.Stats.HwModMul += 2 * (In - 1);
      C.barrier();
      break;
    }
    case NodeKind::NK_CkksBootstrap:
      // Coarse op: the bootstrap pipeline is itself a CKKS program
      // (matvecs + EvalMod) executed by the runtime.
      C.barrier();
      break;
    default:
      return Status::error(std::string("unexpected CKKS node: ") +
                           nodeKindName(N->Kind));
    }
  }
  return C.Stats;
}
