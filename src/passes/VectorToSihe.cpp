//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "passes/VectorToSihe.h"

#include <cassert>
#include <cmath>

using namespace ace;
using namespace ace::passes;
using namespace ace::air;

int ace::passes::reluDepth(int Iterations) {
  // Each composite step: t^2 beside the scalar products c_k t (1), then
  // (c1 t) t^2, (c3 t) t^2 and t^4 (2), then t^4 (c2 t + c3 t^3) (3).
  // The final x (1/2 + p/2): 1.
  return 3 * Iterations + 1;
}

namespace {

struct SiheBuilder {
  IrFunction &Out;

  IrNode *mul(IrNode *A, IrNode *B, OriginKind O) {
    return Out.create(NodeKind::NK_SiheMul, TypeKind::TK_Cipher, {A, B}, O);
  }
  IrNode *add(IrNode *A, IrNode *B, OriginKind O) {
    return Out.create(NodeKind::NK_SiheAdd, TypeKind::TK_Cipher, {A, B}, O);
  }
  IrNode *mulConst(IrNode *A, double C, OriginKind O) {
    IrNode *N = Out.create(NodeKind::NK_SiheMulConst, TypeKind::TK_Cipher,
                           {A}, O);
    N->Scalar = C;
    return N;
  }
  IrNode *addConst(IrNode *A, double C, OriginKind O) {
    IrNode *N = Out.create(NodeKind::NK_SiheAddConst, TypeKind::TK_Cipher,
                           {A}, O);
    N->Scalar = C;
    return N;
  }
};

/// Odd coefficients of one composite step,
/// f(t) = (35 t - 35 t^3 + 21 t^5 - 5 t^7) / 16.
constexpr double StepCoeffs[4] = {35.0 / 16.0, -35.0 / 16.0, 21.0 / 16.0,
                                  -5.0 / 16.0};

/// Amplifies the sign input: typical activations sit well below the
/// calibrated layer maximum, where the composite converges slowly (f
/// multiplies small arguments by only ~2.19 per step). A 1.4x pre-scale
/// stays inside f's stability region |t| <= ~1.6 (the calibration
/// headroom bounds |x| <= 1) while pulling small values toward the
/// converged plateau one step sooner.
constexpr double SignPrescale = 1.4;

/// One step c0 t + c1 t^3 + c2 t^5 + c3 t^7, evaluated as
/// (c0 t + (c1 t) t^2) + t^4 (c2 t + (c3 t) t^2): the scalar products
/// run beside t^2, so the step costs 3 levels. t^2 is the step's first
/// reader of t and carries \p RefreshT.
IrNode *compositeStep(SiheBuilder &B, IrNode *T, const double (&C)[4],
                      bool RefreshT) {
  const OriginKind O = OriginKind::OR_Relu;
  IrNode *T2 = B.mul(T, T, O);
  T2->RefreshBefore = RefreshT;
  IrNode *C0T = B.mulConst(T, C[0], O);
  IrNode *C1T = B.mulConst(T, C[1], O);
  IrNode *C2T = B.mulConst(T, C[2], O);
  IrNode *C3T = B.mulConst(T, C[3], O);
  IrNode *Lo = B.add(C0T, B.mul(C1T, T2, O), O);
  IrNode *Hi = B.add(C2T, B.mul(C3T, T2, O), O);
  IrNode *T4 = B.mul(T2, T2, O);
  return B.add(Lo, B.mul(T4, Hi, O), O);
}

/// Expands relu(x) = x (1/2 + p(x)/2) with p the composite sign
/// approximation f o ... o f (1.4 x). The pre-scale folds into the first
/// step's coefficients (c_k = a_k 1.4^(2k+1) on powers of x) and the 1/2
/// into the last step's, so neither costs a level of its own. The first
/// node, x^2, reads x first and is tagged RefreshBefore: it marks the
/// ReLU's refresh point, where the CKKS lowering bootstraps x only when
/// another ReLU lies upstream; otherwise encryption is the refresh (paper
/// Sec. 4.4).
IrNode *expandRelu(SiheBuilder &B, IrNode *X, int Iterations) {
  IrNode *T = X;
  for (int Iter = 0; Iter < Iterations; ++Iter) {
    double C[4];
    for (int K = 0; K < 4; ++K) {
      C[K] = StepCoeffs[K];
      if (Iter == 0)
        C[K] *= std::pow(SignPrescale, 2 * K + 1);
      if (Iter == Iterations - 1)
        C[K] *= 0.5;
    }
    T = compositeStep(B, T, C, /*RefreshT=*/Iter == 0);
  }
  IrNode *Gate = B.addConst(T, 0.5, OriginKind::OR_Relu);
  return B.mul(X, Gate, OriginKind::OR_Relu);
}

} // namespace

Status VectorToSihePass::run(IrFunction &F, CompileState &State) {
  if (State.Options.ReluSignIterations < 1)
    return Status::error("ReluSignIterations must be at least 1, got " +
                         std::to_string(State.Options.ReluSignIterations));
  IrFunction NewF(F.name());
  SiheBuilder B{NewF};
  std::map<const IrNode *, IrNode *> Map;
  std::map<int, CipherLayout> NewLayouts;
  std::map<int, double> NewScales;

  IrNode *Result = nullptr;
  for (const auto &NPtr : F.nodes()) {
    const IrNode *N = NPtr.get();
    IrNode *Lowered = nullptr;
    switch (N->Kind) {
    case NodeKind::NK_Input:
      Lowered = NewF.addInput(N->Name, TypeKind::TK_Cipher);
      break;
    case NodeKind::NK_ConstVec: {
      // Cleartext data feeding a homomorphic op: wrap in SIHE.encode
      // (paper Listing 3); the constant itself stays a VECTOR value.
      IrNode *C = NewF.create(NodeKind::NK_ConstVec, TypeKind::TK_Vector,
                              {}, N->Origin);
      C->Data = N->Data;
      C->Name = N->Name;
      Lowered = NewF.create(NodeKind::NK_SiheEncode, TypeKind::TK_Plain,
                            {C}, N->Origin);
      break;
    }
    case NodeKind::NK_VecRoll: {
      Lowered = NewF.create(NodeKind::NK_SiheRotate, TypeKind::TK_Cipher,
                            {Map.at(N->Operands[0])}, N->Origin);
      Lowered->Ints = N->Ints;
      break;
    }
    case NodeKind::NK_VecMul: {
      IrNode *A = Map.at(N->Operands[0]);
      IrNode *C = Map.at(N->Operands[1]);
      assert(A->Type == TypeKind::TK_Cipher &&
             "type inference: first mul operand must be encrypted");
      Lowered = B.mul(A, C, N->Origin);
      break;
    }
    case NodeKind::NK_VecAdd: {
      IrNode *A = Map.at(N->Operands[0]);
      IrNode *C = Map.at(N->Operands[1]);
      Lowered = B.add(A, C, N->Origin);
      break;
    }
    case NodeKind::NK_VecMatDiag: {
      // Baby-step/giant-step expansion of the diagonal matvec
      // (Halevi-Shoup with the BSGS split): diagonal d = I*BS + J becomes
      //   rot(x, d*S) = rot(rot(x, J*S), I*BS*S)
      // so each giant group I accumulates mask-weighted baby rotations and
      // pays one giant rotation. The masks are pre-rotated by the giant
      // amount at compile time: mask o rot(z, g) == rot(prerot(mask) o z, g)
      // with prerot(m)[t] = m[(t - g) mod Slots]. All baby rotations share
      // the operand ciphertext, so the executor serves them from a single
      // hoisted digit decomposition, and the rotation-key working set is
      // (BS - 1) babies + one key per giant group: O(sqrt(Capacity))
      // instead of one key per diagonal.
      IrNode *X = Map.at(N->Operands[0]);
      const IrNode *MasksNode = N->Operands[1];
      const OriginKind O = N->Origin;
      int64_t Stride = N->Ints[0];
      int64_t Capacity = N->Ints[1];
      size_t NumDiags = static_cast<size_t>(N->Ints[2]);
      assert(NumDiags > 0 && MasksNode->Data.size() % NumDiags == 0 &&
             "malformed mat_diag masks");
      size_t Slots = MasksNode->Data.size() / NumDiags;
      int64_t SlotsI = static_cast<int64_t>(Slots);

      int64_t BS = 1;
      while (BS * BS < Capacity)
        BS <<= 1;

      // Giant index -> (diagonal, mask row) members.
      std::map<int64_t, std::vector<std::pair<int64_t, size_t>>> Giants;
      for (size_t Row = 0; Row < NumDiags; ++Row) {
        int64_t D = N->Ints[3 + Row];
        Giants[D / BS].emplace_back(D, Row);
      }

      // Emit each distinct baby rotation of X once, up front.
      std::map<int64_t, IrNode *> Babies;
      Babies[0] = X;
      for (const auto &G : Giants)
        for (const auto &Member : G.second) {
          int64_t Steps = ((Member.first % BS) * Stride) % SlotsI;
          if (Babies.count(Steps))
            continue;
          IrNode *R = NewF.create(NodeKind::NK_SiheRotate,
                                  TypeKind::TK_Cipher, {X}, O);
          R->Ints = {Steps};
          Babies[Steps] = R;
        }

      IrNode *Acc = nullptr;
      for (const auto &G : Giants) {
        size_t GSteps =
            static_cast<size_t>(((G.first * BS) * Stride) % SlotsI);
        IrNode *Inner = nullptr;
        for (const auto &Member : G.second) {
          std::vector<double> PreRot(Slots);
          const double *Row = MasksNode->Data.data() + Member.second * Slots;
          for (size_t T = 0; T < Slots; ++T)
            PreRot[T] = Row[(T + Slots - GSteps) % Slots];
          IrNode *C = NewF.create(NodeKind::NK_ConstVec, TypeKind::TK_Vector,
                                  {}, O);
          C->Data = std::move(PreRot);
          IrNode *P = NewF.create(NodeKind::NK_SiheEncode,
                                  TypeKind::TK_Plain, {C}, O);
          int64_t BabySteps = ((Member.first % BS) * Stride) % SlotsI;
          IrNode *Term = B.mul(Babies.at(BabySteps), P, O);
          Inner = Inner ? B.add(Inner, Term, O) : Term;
        }
        if (GSteps != 0) {
          IrNode *R = NewF.create(NodeKind::NK_SiheRotate,
                                  TypeKind::TK_Cipher, {Inner}, O);
          R->Ints = {static_cast<int64_t>(GSteps)};
          Inner = R;
        }
        Acc = Acc ? B.add(Acc, Inner, O) : Inner;
      }
      Lowered = Acc;
      break;
    }
    case NodeKind::NK_VecRelu:
      Lowered = expandRelu(B, Map.at(N->Operands[0]),
                           State.Options.ReluSignIterations);
      break;
    case NodeKind::NK_Return:
      Result = Map.at(N->Operands[0]);
      continue;
    default:
      return Status::error(
          std::string("unexpected node in VECTOR lowering: ") +
          nodeKindName(N->Kind));
    }
    Map[N] = Lowered;
    // Propagate layout/scale bookkeeping to the new ids.
    auto LayIt = State.Layouts.find(N->Id);
    if (LayIt != State.Layouts.end())
      NewLayouts[Lowered->Id] = LayIt->second;
    auto ScIt = State.DataScales.find(N->Id);
    if (ScIt != State.DataScales.end())
      NewScales[Lowered->Id] = ScIt->second;
  }
  if (!Result)
    return Status::error("VECTOR function has no return value");
  NewF.setReturn(Result);
  NewF.renumber();

  State.Layouts = std::move(NewLayouts);
  State.DataScales = std::move(NewScales);
  F = std::move(NewF);
  return Status::success();
}
