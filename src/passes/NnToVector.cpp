//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "passes/NnToVector.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace ace;
using namespace ace::passes;
using namespace ace::air;

namespace {

size_t nextPow2(size_t X) {
  size_t P = 1;
  while (P < X)
    P <<= 1;
  return P;
}

/// Builder state for the rewritten function.
struct Lowering {
  IrFunction &Out;
  CompileState &State;
  /// Old NN node -> new VECTOR node.
  std::map<const IrNode *, IrNode *> Map;
  /// Layout and normalization scale per new node.
  std::map<const IrNode *, CipherLayout> Layouts;
  std::map<const IrNode *, double> Scales;

  IrNode *constVec(std::vector<double> Mask, OriginKind Origin) {
    IrNode *C = Out.create(NodeKind::NK_ConstVec, TypeKind::TK_Vector, {},
                           Origin);
    C->Data = std::move(Mask);
    return C;
  }

  IrNode *roll(IrNode *X, int64_t Steps, OriginKind Origin) {
    if (Steps == 0)
      return X;
    IrNode *R = Out.create(NodeKind::NK_VecRoll, TypeKind::TK_Cipher, {X},
                           Origin);
    R->Ints = {Steps};
    return R;
  }

  IrNode *mulMask(IrNode *X, std::vector<double> Mask, OriginKind Origin) {
    return Out.create(NodeKind::NK_VecMul, TypeKind::TK_Cipher,
                      {X, constVec(std::move(Mask), Origin)}, Origin);
  }

  IrNode *addMask(IrNode *X, std::vector<double> Mask, OriginKind Origin) {
    return Out.create(NodeKind::NK_VecAdd, TypeKind::TK_Cipher,
                      {X, constVec(std::move(Mask), Origin)}, Origin);
  }

  IrNode *add(IrNode *A, IrNode *B, OriginKind Origin) {
    return Out.create(NodeKind::NK_VecAdd, TypeKind::TK_Cipher, {A, B},
                      Origin);
  }
};

/// True when any mask entry is nonzero.
bool anyNonZero(const std::vector<double> &Mask) {
  for (double V : Mask)
    if (V != 0.0)
      return true;
  return false;
}

/// Lowers a convolution: for every channel shift d and kernel tap
/// (ky, kx), one rotation of the input times a weight mask, accumulated.
IrNode *lowerConv(Lowering &L, const IrNode *N) {
  IrNode *X = L.Map.at(N->Operands[0]);
  const IrNode *W = N->Operands[1];
  const IrNode *B = N->Operands.size() > 2 ? N->Operands[2] : nullptr;
  const CipherLayout In = L.Layouts.at(X);

  int64_t SH = N->Ints[0], SW = N->Ints[1], PT = N->Ints[2], PL = N->Ints[3];
  int64_t CI = N->Ints[5], H = N->Ints[6], WW = N->Ints[7];
  int64_t CO = W->Ints[0], KH = W->Ints[2], KW = W->Ints[3];
  assert(W->Ints[1] == CI && "conv weight channel mismatch");
  assert(In.C == static_cast<size_t>(CI) && In.H == static_cast<size_t>(H) &&
         In.W == static_cast<size_t>(WW) && "layout does not match conv");

  CipherLayout OutL = In.afterStride(SH);
  OutL.C = CO;
  OutL.H = (H + 2 * PT - KH) / SH + 1;
  OutL.W = (WW + 2 * PL - KW) / SW + 1;

  double SIn = L.Scales.at(X);
  double SOut = std::fmax(L.State.Bounds.count(N->Name)
                              ? L.State.Bounds.at(N->Name)
                              : SIn,
                          1e-6);
  double Ratio = SIn / SOut;
  size_t Slots = In.slotCount();
  int64_t CS = static_cast<int64_t>(In.channelStride());

  IrNode *Acc = nullptr;
  for (int64_t D = 0; D < static_cast<int64_t>(In.C0); ++D) {
    for (int64_t Ky = 0; Ky < KH; ++Ky) {
      for (int64_t Kx = 0; Kx < KW; ++Kx) {
        std::vector<double> Mask(Slots, 0.0);
        for (int64_t Co = 0; Co < CO; ++Co) {
          int64_t Ci = (Co + D) % static_cast<int64_t>(In.C0);
          if (Ci >= CI)
            continue;
          double WVal =
              W->Data[((Co * CI + Ci) * KH + Ky) * KW + Kx] * Ratio;
          if (WVal == 0.0)
            continue;
          for (size_t Oh = 0; Oh < OutL.H; ++Oh) {
            int64_t Ih = static_cast<int64_t>(Oh) * SH + Ky - PT;
            if (Ih < 0 || Ih >= H)
              continue;
            for (size_t Ow = 0; Ow < OutL.W; ++Ow) {
              int64_t Iw = static_cast<int64_t>(Ow) * SW + Kx - PL;
              if (Iw < 0 || Iw >= WW)
                continue;
              Mask[OutL.slotOf(Co, Oh, Ow)] = WVal;
            }
          }
        }
        if (!anyNonZero(Mask))
          continue;
        // Rotation bringing input slot (ci, ih, iw) onto output slot
        // (co, oh, ow); constant across positions (see Layout docs).
        int64_t Steps =
            D * CS +
            (Ky - PT) * static_cast<int64_t>(In.StrideH * In.W0) +
            (Kx - PL) * static_cast<int64_t>(In.StrideW);
        Steps = ((Steps % static_cast<int64_t>(Slots)) +
                 static_cast<int64_t>(Slots)) %
                static_cast<int64_t>(Slots);
        IrNode *Term = L.mulMask(L.roll(X, Steps, OriginKind::OR_Conv),
                                 std::move(Mask), OriginKind::OR_Conv);
        Acc = Acc ? L.add(Acc, Term, OriginKind::OR_Conv) : Term;
      }
    }
  }
  assert(Acc && "convolution lowered to nothing");

  if (B) {
    std::vector<double> Bias(Slots, 0.0);
    for (int64_t Co = 0; Co < CO; ++Co) {
      double BVal = B->Data[Co] / SOut;
      for (size_t Oh = 0; Oh < OutL.H; ++Oh)
        for (size_t Ow = 0; Ow < OutL.W; ++Ow)
          Bias[OutL.slotOf(Co, Oh, Ow)] = BVal;
    }
    Acc = L.addMask(Acc, std::move(Bias), OriginKind::OR_Conv);
  }

  L.Layouts[Acc] = OutL;
  L.Scales[Acc] = SOut;
  return Acc;
}

/// Lowers GEMM over the element stride of the current layout (paper
/// Listing 2) as one mat_diag node over the nonzero weight diagonals; the
/// SIHE lowering expands it into the baby-step/giant-step rotation plan
/// whose baby rotations are hoisted at runtime.
IrNode *lowerGemm(Lowering &L, const IrNode *N) {
  IrNode *X = L.Map.at(N->Operands[0]);
  const IrNode *W = N->Operands[1];
  const IrNode *B = N->Operands.size() > 2 ? N->Operands[2] : nullptr;
  const CipherLayout In = L.Layouts.at(X);

  int64_t K = W->Ints[0], C = W->Ints[1];
  // Elements live either at channel bases (after pooling) or strided
  // along W (pure vector models).
  bool ChannelMode = In.C0 > 1;
  int64_t Stride = ChannelMode ? static_cast<int64_t>(In.channelStride())
                               : static_cast<int64_t>(In.StrideW);
  int64_t Capacity = ChannelMode ? static_cast<int64_t>(In.C0)
                                 : static_cast<int64_t>(In.W0 / In.StrideW);
  size_t Slots = In.slotCount();
  assert(C <= Capacity && K <= Capacity && "gemm exceeds layout capacity");

  double SIn = L.Scales.at(X);
  double SOut = std::fmax(L.State.Bounds.count(N->Name)
                              ? L.State.Bounds.at(N->Name)
                              : SIn,
                          1e-6);
  double Ratio = SIn / SOut;

  // Diagonal D holds W[ko][(ko + D) mod Capacity] at output slot ko; the
  // masks of the nonzero diagonals are stacked in diagonal order.
  std::vector<int64_t> DiagIndices;
  std::vector<double> StackedMasks;
  for (int64_t D = 0; D < Capacity; ++D) {
    std::vector<double> Diag(Slots, 0.0);
    bool Any = false;
    for (int64_t Ko = 0; Ko < K; ++Ko) {
      int64_t Ci = (Ko + D) % Capacity;
      if (Ci >= C)
        continue;
      double V = W->Data[Ko * C + Ci] * Ratio;
      if (V != 0.0) {
        Diag[Ko * Stride] = V;
        Any = true;
      }
    }
    if (!Any)
      continue;
    DiagIndices.push_back(D);
    StackedMasks.insert(StackedMasks.end(), Diag.begin(), Diag.end());
  }
  assert(!DiagIndices.empty() && "gemm lowered to nothing");

  IrNode *Masks = L.constVec(std::move(StackedMasks), OriginKind::OR_Gemm);
  IrNode *Acc = L.Out.create(NodeKind::NK_VecMatDiag, TypeKind::TK_Cipher,
                             {X, Masks}, OriginKind::OR_Gemm);
  Acc->Ints = {Stride, Capacity, static_cast<int64_t>(DiagIndices.size())};
  Acc->Ints.insert(Acc->Ints.end(), DiagIndices.begin(), DiagIndices.end());

  if (B) {
    std::vector<double> Bias(Slots, 0.0);
    for (int64_t Ko = 0; Ko < K; ++Ko)
      Bias[Ko * Stride] = B->Data[Ko] / SOut;
    Acc = L.addMask(Acc, std::move(Bias), OriginKind::OR_Gemm);
  }

  CipherLayout OutL = In;
  OutL.C = ChannelMode ? K : 1;
  if (!ChannelMode)
    OutL.W = K;
  L.Layouts[Acc] = OutL;
  L.Scales[Acc] = SOut;
  return Acc;
}

/// Sum over the spatial extent by rotation doubling; result lands at
/// (h, w) = (0, 0) of every channel.
IrNode *lowerGlobalAvgPool(Lowering &L, const IrNode *N) {
  IrNode *X = L.Map.at(N->Operands[0]);
  CipherLayout In = L.Layouts.at(X);
  assert((In.H & (In.H - 1)) == 0 && (In.W & (In.W - 1)) == 0 &&
         "global pooling requires power-of-two spatial dims");

  IrNode *Acc = X;
  for (size_t Step = 1; Step < In.H; Step <<= 1)
    Acc = L.add(Acc,
                L.roll(Acc, static_cast<int64_t>(Step * In.StrideH * In.W0),
                       OriginKind::OR_Pool),
                OriginKind::OR_Pool);
  for (size_t Step = 1; Step < In.W; Step <<= 1)
    Acc = L.add(Acc,
                L.roll(Acc, static_cast<int64_t>(Step * In.StrideW),
                       OriginKind::OR_Pool),
                OriginKind::OR_Pool);

  // Mask channel bases with the 1/(H*W) average factor.
  double SIn = L.Scales.at(X);
  std::vector<double> Mask(In.slotCount(), 0.0);
  for (size_t Cc = 0; Cc < In.C; ++Cc)
    Mask[Cc * In.channelStride()] = 1.0 / static_cast<double>(In.H * In.W);
  Acc = L.mulMask(Acc, std::move(Mask), OriginKind::OR_Pool);

  CipherLayout OutL = In;
  OutL.H = OutL.W = 1;
  L.Layouts[Acc] = OutL;
  L.Scales[Acc] = SIn;
  return Acc;
}

/// 2x2 stride-2 average pool: neighbor sum + mask; the layout dilates.
IrNode *lowerAvgPool(Lowering &L, const IrNode *N) {
  IrNode *X = L.Map.at(N->Operands[0]);
  CipherLayout In = L.Layouts.at(X);
  assert(N->Ints[0] == 2 && N->Ints[1] == 2 && N->Ints[2] == 2 &&
         N->Ints[3] == 2 && "only 2x2 stride-2 average pooling is lowered");

  IrNode *Acc = X;
  Acc = L.add(Acc, L.roll(X, static_cast<int64_t>(In.StrideW),
                          OriginKind::OR_Pool),
              OriginKind::OR_Pool);
  IrNode *RowBelow = L.roll(X, static_cast<int64_t>(In.StrideH * In.W0),
                            OriginKind::OR_Pool);
  IrNode *RowBelowRight =
      L.roll(X, static_cast<int64_t>(In.StrideH * In.W0 + In.StrideW),
             OriginKind::OR_Pool);
  Acc = L.add(Acc, L.add(RowBelow, RowBelowRight, OriginKind::OR_Pool),
              OriginKind::OR_Pool);

  CipherLayout OutL = In.afterStride(2);
  std::vector<double> Mask(In.slotCount(), 0.0);
  for (size_t Cc = 0; Cc < OutL.C; ++Cc)
    for (size_t Oh = 0; Oh < OutL.H; ++Oh)
      for (size_t Ow = 0; Ow < OutL.W; ++Ow)
        Mask[OutL.slotOf(Cc, Oh, Ow)] = 0.25;
  Acc = L.mulMask(Acc, std::move(Mask), OriginKind::OR_Pool);

  L.Layouts[Acc] = OutL;
  L.Scales[Acc] = L.Scales.at(X);
  return Acc;
}

} // namespace

Status NnToVectorPass::run(IrFunction &F, CompileState &State) {
  // Layout selection: one padded grid covering every tensor in the model.
  size_t MaxC = 1, MaxH = 1, MaxW = 1, MaxFlat = 1;
  bool Spatial = false;
  for (const auto &[Name, Shape] : State.Shapes) {
    if (Shape.size() == 4) {
      Spatial = true;
      MaxC = std::max<size_t>(MaxC, Shape[1]);
      MaxH = std::max<size_t>(MaxH, Shape[2]);
      MaxW = std::max<size_t>(MaxW, Shape[3]);
    } else if (Shape.size() == 2) {
      MaxFlat = std::max<size_t>(MaxFlat, Shape[1]);
    }
  }
  CipherLayout Grid;
  if (Spatial) {
    // Flat values (pooled features, logits) live at channel bases, so the
    // channel capacity must cover them too.
    Grid.C0 = nextPow2(std::max(MaxC, MaxFlat));
    Grid.H0 = nextPow2(MaxH);
    Grid.W0 = nextPow2(MaxW);
  } else {
    Grid.C0 = Grid.H0 = 1;
    Grid.W0 = nextPow2(std::max(MaxW, MaxFlat));
  }

  // Rebuild the function in the VECTOR dialect.
  IrFunction NewF(F.name());
  Lowering L{NewF, State, {}, {}, {}};

  IrNode *Result = nullptr;
  for (const auto &NPtr : F.nodes()) {
    const IrNode *N = NPtr.get();
    switch (N->Kind) {
    case NodeKind::NK_Input: {
      IrNode *In = NewF.addInput(N->Name, TypeKind::TK_Cipher);
      const auto &Shape = State.Shapes.at(N->Name);
      CipherLayout Lay = Grid;
      if (Shape.size() == 4) {
        Lay.C = Shape[1];
        Lay.H = Shape[2];
        Lay.W = Shape[3];
      } else {
        Lay.C = Lay.H = 1;
        Lay.W = Shape.back();
      }
      L.Map[N] = In;
      L.Layouts[In] = Lay;
      L.Scales[In] = std::fmax(
          State.Bounds.count(N->Name) ? State.Bounds.at(N->Name) : 1.0,
          1e-6);
      State.InputLayout = Lay;
      State.InputDataScale = L.Scales[In];
      break;
    }
    case NodeKind::NK_ConstVec:
      break; // weights are consumed eagerly by their users
    case NodeKind::NK_NnConv:
      L.Map[N] = lowerConv(L, N);
      break;
    case NodeKind::NK_NnGemm:
      L.Map[N] = lowerGemm(L, N);
      break;
    case NodeKind::NK_NnRelu: {
      IrNode *X = L.Map.at(N->Operands[0]);
      IrNode *R = NewF.create(NodeKind::NK_VecRelu, TypeKind::TK_Cipher,
                              {X}, OriginKind::OR_Relu);
      R->RefreshBefore = true;
      L.Map[N] = R;
      L.Layouts[R] = L.Layouts.at(X);
      L.Scales[R] = L.Scales.at(X);
      break;
    }
    case NodeKind::NK_NnAdd: {
      IrNode *A = L.Map.at(N->Operands[0]);
      IrNode *B = L.Map.at(N->Operands[1]);
      assert(L.Layouts.at(A).sameGrid(L.Layouts.at(B)) &&
             "residual operands with mismatched layouts");
      assert(std::fabs(L.Scales.at(A) - L.Scales.at(B)) <
                 1e-9 * L.Scales.at(A) &&
             "scale resolution failed to equalize residual operands");
      IrNode *S = L.add(A, B, OriginKind::OR_Add);
      L.Map[N] = S;
      L.Layouts[S] = L.Layouts.at(A);
      // The resolved output scale equals the operand scale by
      // construction, but the sum can exceed it transiently; the
      // calibration headroom covers this.
      L.Scales[S] = std::fmax(
          State.Bounds.count(N->Name) ? State.Bounds.at(N->Name)
                                      : L.Scales.at(A),
          L.Scales.at(A));
      break;
    }
    case NodeKind::NK_NnAvgPool:
      L.Map[N] = lowerAvgPool(L, N);
      break;
    case NodeKind::NK_NnGlobalAvgPool:
      L.Map[N] = lowerGlobalAvgPool(L, N);
      break;
    case NodeKind::NK_NnFlatten:
    case NodeKind::NK_NnReshape: {
      // Pure bookkeeping on the packed layout.
      IrNode *X = L.Map.at(N->Operands[0]);
      L.Map[N] = X;
      break;
    }
    case NodeKind::NK_NnStridedSlice: {
      // Slots are already strided; a masked select suffices.
      IrNode *X = L.Map.at(N->Operands[0]);
      const CipherLayout In = L.Layouts.at(X);
      int64_t Start = N->Ints[0], Size = N->Ints[1], Stride = N->Ints[2];
      std::vector<double> Mask(In.slotCount(), 0.0);
      for (int64_t I = 0; I < Size; ++I)
        Mask[Start + I * Stride] = 1.0;
      IrNode *M = L.mulMask(X, std::move(Mask), OriginKind::OR_Other);
      L.Map[N] = M;
      L.Layouts[M] = In;
      L.Scales[M] = L.Scales.at(X);
      break;
    }
    case NodeKind::NK_Return:
      Result = L.Map.at(N->Operands[0]);
      break;
    default:
      return Status::error(std::string("unexpected node in NN lowering: ") +
                           nodeKindName(N->Kind));
    }
  }
  if (!Result)
    return Status::error("NN function has no return value");
  NewF.setReturn(Result);

  // Record output metadata for the generated decryptor.
  State.OutputLayout = L.Layouts.at(Result);
  State.OutputDataScale = L.Scales.at(Result);
  const auto &OutShape =
      State.Shapes.at(State.Model->MainGraph.Outputs[0].Name);
  State.OutputCount = OutShape.back();

  // Persist per-node layouts for later passes (keyed by node id).
  NewF.renumber();
  for (const auto &[Node, Lay] : L.Layouts)
    State.Layouts[Node->Id] = Lay;
  for (const auto &[Node, Sc] : L.Scales)
    State.DataScales[Node->Id] = Sc;

  F = std::move(NewF);
  return Status::success();
}
