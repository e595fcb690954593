//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "passes/CkksToPoly.h"

#include <algorithm>
#include <cassert>

using namespace ace;
using namespace ace::passes;
using namespace ace::air;

namespace {

/// Emission helper tracking the open RNS loop for loop fusion.
struct PolyBuilder {
  IrFunction &Out;
  bool EnableFusion;
  PolyStats &Stats;
  /// The runtime's hybrid key-switching shape for the selected
  /// parameters.
  fhe::KeySwitchShape Shape;
  IrNode *OpenLoop = nullptr;
  int64_t OpenTrip = -1;

  /// Returns an RNS loop with trip count \p Trip, fusing into the open
  /// loop when the trip counts match (compile-time constants, paper
  /// Sec. 4.5).
  IrNode *loop(int64_t Trip, OriginKind Origin) {
    if (EnableFusion && OpenLoop && OpenTrip == Trip)
      return OpenLoop;
    IrNode *L = Out.create(NodeKind::NK_PolyRnsLoop, TypeKind::TK_Poly, {},
                           Origin);
    L->Ints = {Trip};
    OpenLoop = L;
    OpenTrip = Trip;
    ++Stats.RnsLoops;
    return L;
  }

  /// Ends the fusable region (key switches and domain changes act as
  /// barriers).
  void barrier() {
    OpenLoop = nullptr;
    OpenTrip = -1;
  }

  IrNode *hw(NodeKind Kind, IrNode *Loop, int64_t Count,
             OriginKind Origin) {
    IrNode *N = Out.create(Kind, TypeKind::TK_Poly, {Loop}, Origin);
    N->Ints = {Count};
    switch (Kind) {
    case NodeKind::NK_HwModMul:
      Stats.HwModMul += Count;
      break;
    case NodeKind::NK_HwModAdd:
      Stats.HwModAdd += Count;
      break;
    case NodeKind::NK_HwModMulAdd:
      Stats.HwModMulAdd += Count;
      break;
    case NodeKind::NK_HwNtt:
      Stats.HwNtt += Count;
      break;
    case NodeKind::NK_HwIntt:
      Stats.HwIntt += Count;
      break;
    default:
      break;
    }
    return N;
  }

  /// \p Count limb multiply-accumulates: one fused kernel, or a
  /// multiply and an add without fusion.
  void mulAdd(IrNode *Loop, int64_t Count, OriginKind Origin) {
    if (EnableFusion) {
      hw(NodeKind::NK_HwModMulAdd, Loop, Count, Origin);
    } else {
      hw(NodeKind::NK_HwModMul, Loop, Count, Origin);
      hw(NodeKind::NK_HwModAdd, Loop, Count, Origin);
    }
  }

  /// Hybrid key switching at \p L active primes (paper Table 7's
  /// coarse-grained ops, sized by fhe::keySwitchShape): decomp + mod_up
  /// raises each of the ceil(L/alpha) digits to the other active primes
  /// and the K special primes, inner products run against both key
  /// polynomials of every digit, mod_down divides both results by P.
  void keySwitch(int64_t L, OriginKind Origin) {
    barrier();
    if (EnableFusion) {
      IrNode *N = Out.create(NodeKind::NK_PolyDecomp, TypeKind::TK_Poly,
                             {}, Origin);
      N->Name = "decomp_modup"; // fused ACEfhe API (paper Sec. 4.5)
      N->Ints = {L};
      ++Stats.FusedDecompModUp;
    } else {
      Out.create(NodeKind::NK_PolyDecomp, TypeKind::TK_Poly, {}, Origin)
          ->Ints = {L};
      Out.create(NodeKind::NK_PolyModUp, TypeKind::TK_Poly, {}, Origin)
          ->Ints = {L};
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
    IrNode *Lp = loop(L, Origin);
    hw(NodeKind::NK_HwIntt, Lp, L, Origin);
    if (Alpha > 1)
      hw(NodeKind::NK_HwModMul, Lp, L, Origin); // inverse digit hats
    mulAdd(Lp, Products, Origin);
    hw(NodeKind::NK_HwNtt, Lp, Raised, Origin);
    mulAdd(Lp, 2 * Digits * (L + K), Origin);
    Out.create(NodeKind::NK_PolyModDown, TypeKind::TK_Poly, {}, Origin)
        ->Ints = {L};
    ++Stats.ModDown;
    // Both results: the K special limbs to coefficients, their exact
    // conversion into the L chain primes, NTT, and (acc - t) * P^{-1}.
    IrNode *Md = loop(L, Origin);
    hw(NodeKind::NK_HwIntt, Md, 2 * K, Origin);
    if (K > 1)
      hw(NodeKind::NK_HwModMul, Md, 2 * K, Origin); // inverse special hats
    mulAdd(Md, 2 * (K > 1 ? K + 1 : K) * L, Origin);
    hw(NodeKind::NK_HwNtt, Md, 2 * L, Origin);
    hw(NodeKind::NK_HwModMul, Md, 2 * L, Origin);
    barrier();
  }
};

} // namespace

Status ace::passes::lowerToPoly(const IrFunction &F,
                                const CompileState &State,
                                bool EnableFusion, IrFunction &Poly,
                                PolyStats *StatsOut) {
  Poly.clear();
  PolyStats Stats;
  PolyBuilder B{Poly, EnableFusion, Stats,
                fhe::keySwitchShape(State.SelectedParams)};

  auto NumQOf = [](const IrNode *N) -> int64_t {
    return N->CkksLevel >= 0 ? N->CkksLevel + 1 : 1;
  };

  for (const auto &NPtr : F.nodes()) {
    const IrNode *N = NPtr.get();
    OriginKind O = N->Origin;
    switch (N->Kind) {
    case NodeKind::NK_Input:
      Poly.addInput(N->Name, TypeKind::TK_Poly);
      break;
    case NodeKind::NK_ConstVec:
    case NodeKind::NK_CkksEncode:
    case NodeKind::NK_Return:
      break;
    case NodeKind::NK_CkksAdd:
    case NodeKind::NK_CkksSub: {
      int64_t L = NumQOf(N);
      // Two ciphertext polynomials, element-wise (the paper's
      // ciphertext-addition example of Sec. 4.5).
      B.hw(NodeKind::NK_HwModAdd, B.loop(L, O), 2 * L, O);
      break;
    }
    case NodeKind::NK_CkksAddConst:
      B.hw(NodeKind::NK_HwModAdd, B.loop(NumQOf(N), O), NumQOf(N), O);
      break;
    case NodeKind::NK_CkksMulConst:
      B.hw(NodeKind::NK_HwModMul, B.loop(NumQOf(N), O), 2 * NumQOf(N), O);
      break;
    case NodeKind::NK_CkksRotate: {
      // The automorphism is an NTT-domain permutation (c0 directly, c1's
      // raised digits inside the key switch).
      int64_t L = NumQOf(N);
      B.barrier();
      Poly.create(NodeKind::NK_PolyAutomorphism, TypeKind::TK_Poly, {}, O)
          ->Ints = {L};
      B.keySwitch(L, O);
      break;
    }
    case NodeKind::NK_CkksMul: {
      int64_t L = NumQOf(N);
      if (N->Operands[1]->Type == TypeKind::TK_Plain) {
        // ct * pt feeding an accumulation fuses into hw_modmuladd.
        if (EnableFusion)
          B.hw(NodeKind::NK_HwModMulAdd, B.loop(L, O), 2 * L, O);
        else {
          B.hw(NodeKind::NK_HwModMul, B.loop(L, O), 2 * L, O);
        }
      } else {
        B.hw(NodeKind::NK_HwModMul, B.loop(L, O), 4 * L, O);
        B.hw(NodeKind::NK_HwModAdd, B.OpenLoop ? B.OpenLoop
                                               : B.loop(L, O),
             L, O);
      }
      break;
    }
    case NodeKind::NK_CkksRelin:
      B.keySwitch(NumQOf(N), O);
      break;
    case NodeKind::NK_CkksRescale: {
      int64_t L = NumQOf(N->Operands[0]);
      B.barrier();
      Poly.create(NodeKind::NK_PolyRescale, TypeKind::TK_Poly, {}, O)
          ->Ints = {L};
      B.hw(NodeKind::NK_HwIntt, B.loop(L, O), 2, O);
      B.hw(NodeKind::NK_HwNtt, B.OpenLoop, 2 * (L - 1), O);
      B.hw(NodeKind::NK_HwModMul, B.OpenLoop, 2 * (L - 1), O);
      B.barrier();
      break;
    }
    case NodeKind::NK_CkksModSwitch:
      break; // drops components; no polynomial arithmetic
    case NodeKind::NK_CkksBootstrap: {
      // Coarse node: the bootstrap pipeline is itself a CKKS program
      // (matvecs + EvalMod) executed by the runtime.
      Poly.create(NodeKind::NK_PolyModUp, TypeKind::TK_Poly, {}, O)->Name =
          "bootstrap";
      B.barrier();
      break;
    }
    default:
      return Status::error(std::string("unexpected CKKS node: ") +
                           nodeKindName(N->Kind));
    }
  }
  if (StatsOut)
    *StatsOut = Stats;
  return Status::success();
}
