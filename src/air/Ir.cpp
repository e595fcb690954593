//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "air/Ir.h"

#include "support/Crc32c.h"

#include <cassert>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <sstream>

using namespace ace;
using namespace ace::air;

DialectKind ace::air::dialectOf(NodeKind Kind) {
  switch (Kind) {
  case NodeKind::NK_Input:
  case NodeKind::NK_ConstVec:
  case NodeKind::NK_Return:
    return DialectKind::DK_Common;
  case NodeKind::NK_NnConv:
  case NodeKind::NK_NnGemm:
  case NodeKind::NK_NnRelu:
  case NodeKind::NK_NnAvgPool:
  case NodeKind::NK_NnGlobalAvgPool:
  case NodeKind::NK_NnFlatten:
  case NodeKind::NK_NnReshape:
  case NodeKind::NK_NnAdd:
  case NodeKind::NK_NnStridedSlice:
    return DialectKind::DK_Nn;
  case NodeKind::NK_VecAdd:
  case NodeKind::NK_VecMul:
  case NodeKind::NK_VecRoll:
  case NodeKind::NK_VecRelu:
  case NodeKind::NK_VecMatDiag:
    return DialectKind::DK_Vector;
  case NodeKind::NK_SiheRotate:
  case NodeKind::NK_SiheAdd:
  case NodeKind::NK_SiheMul:
  case NodeKind::NK_SiheEncode:
  case NodeKind::NK_SiheAddConst:
  case NodeKind::NK_SiheMulConst:
    return DialectKind::DK_Sihe;
  case NodeKind::NK_CkksRotate:
  case NodeKind::NK_CkksAdd:
  case NodeKind::NK_CkksMul:
  case NodeKind::NK_CkksEncode:
  case NodeKind::NK_CkksAddConst:
  case NodeKind::NK_CkksMulConst:
  case NodeKind::NK_CkksRelin:
  case NodeKind::NK_CkksRescale:
  case NodeKind::NK_CkksModSwitch:
  case NodeKind::NK_CkksBootstrap:
    return DialectKind::DK_Ckks;
  }
  return DialectKind::DK_Common;
}

const char *ace::air::nodeKindName(NodeKind Kind) {
  switch (Kind) {
  case NodeKind::NK_Input:
    return "input";
  case NodeKind::NK_ConstVec:
    return "const";
  case NodeKind::NK_Return:
    return "retv";
  case NodeKind::NK_NnConv:
    return "NN.conv";
  case NodeKind::NK_NnGemm:
    return "NN.gemm";
  case NodeKind::NK_NnRelu:
    return "NN.relu";
  case NodeKind::NK_NnAvgPool:
    return "NN.average_pool";
  case NodeKind::NK_NnGlobalAvgPool:
    return "NN.global_average_pool";
  case NodeKind::NK_NnFlatten:
    return "NN.flatten";
  case NodeKind::NK_NnReshape:
    return "NN.reshape";
  case NodeKind::NK_NnAdd:
    return "NN.add";
  case NodeKind::NK_NnStridedSlice:
    return "NN.strided_slice";
  case NodeKind::NK_VecAdd:
    return "VECTOR.add";
  case NodeKind::NK_VecMul:
    return "VECTOR.mul";
  case NodeKind::NK_VecRoll:
    return "VECTOR.roll";
  case NodeKind::NK_VecRelu:
    return "VECTOR.relu";
  case NodeKind::NK_VecMatDiag:
    return "VECTOR.mat_diag";
  case NodeKind::NK_SiheRotate:
    return "SIHE.rotate";
  case NodeKind::NK_SiheAdd:
    return "SIHE.add";
  case NodeKind::NK_SiheMul:
    return "SIHE.mul";
  case NodeKind::NK_SiheEncode:
    return "SIHE.encode";
  case NodeKind::NK_SiheAddConst:
    return "SIHE.add_const";
  case NodeKind::NK_SiheMulConst:
    return "SIHE.mul_const";
  case NodeKind::NK_CkksRotate:
    return "CKKS.rotate";
  case NodeKind::NK_CkksAdd:
    return "CKKS.add";
  case NodeKind::NK_CkksMul:
    return "CKKS.mul";
  case NodeKind::NK_CkksEncode:
    return "CKKS.encode";
  case NodeKind::NK_CkksAddConst:
    return "CKKS.add_const";
  case NodeKind::NK_CkksMulConst:
    return "CKKS.mul_const";
  case NodeKind::NK_CkksRelin:
    return "CKKS.relin";
  case NodeKind::NK_CkksRescale:
    return "CKKS.rescale";
  case NodeKind::NK_CkksModSwitch:
    return "CKKS.modswitch";
  case NodeKind::NK_CkksBootstrap:
    return "CKKS.bootstrap";
  }
  return "unknown";
}

const char *ace::air::typeKindName(TypeKind Kind) {
  switch (Kind) {
  case TypeKind::TK_Tensor:
    return "Tensor";
  case TypeKind::TK_Vector:
    return "Vector";
  case TypeKind::TK_Plain:
    return "Plain";
  case TypeKind::TK_Cipher:
    return "Cipher";
  case TypeKind::TK_Cipher3:
    return "Cipher3";
  case TypeKind::TK_None:
    return "None";
  }
  return "?";
}

const char *ace::air::originKindName(OriginKind Kind) {
  switch (Kind) {
  case OriginKind::OR_Input:
    return "input";
  case OriginKind::OR_Conv:
    return "conv";
  case OriginKind::OR_Relu:
    return "relu";
  case OriginKind::OR_Bootstrap:
    return "bootstrap";
  case OriginKind::OR_Pool:
    return "pool";
  case OriginKind::OR_Gemm:
    return "gemm";
  case OriginKind::OR_Add:
    return "add";
  case OriginKind::OR_Other:
    return "other";
  }
  return "?";
}

IrNode *IrFunction::create(NodeKind Kind, TypeKind Type,
                           std::vector<IrNode *> Operands,
                           OriginKind Origin) {
  auto Node = std::make_unique<IrNode>(Kind, Type);
  Node->Operands = std::move(Operands);
  Node->Origin = Origin;
  Node->Id = NextId++;
  IrNode *Raw = Node.get();
  Nodes.push_back(std::move(Node));
  return Raw;
}

IrNode *IrFunction::addInput(const std::string &InputName, TypeKind Type) {
  IrNode *Node = create(NodeKind::NK_Input, Type, {}, OriginKind::OR_Input);
  Node->Name = InputName;
  Inputs.push_back(Node);
  return Node;
}

void IrFunction::setReturn(IrNode *Value) {
  assert(Value && "null return value");
  if (!ReturnNode)
    ReturnNode = create(NodeKind::NK_Return, TypeKind::TK_None, {Value});
  else
    ReturnNode->Operands = {Value};
}

size_t IrFunction::countDialect(DialectKind Dialect) const {
  size_t Count = 0;
  for (const auto &N : Nodes)
    Count += dialectOf(N->Kind) == Dialect;
  return Count;
}

void IrFunction::renumber() {
  int Id = 0;
  for (auto &N : Nodes)
    N->Id = Id++;
  NextId = Id;
}

std::string ace::air::printFunction(const IrFunction &F) {
  std::ostringstream Out;
  // Round-trip precision: a dump changes whenever a scalar or scale does.
  Out.precision(std::numeric_limits<double>::max_digits10);
  Out << "func " << F.name() << "(";
  for (size_t I = 0; I < F.inputs().size(); ++I) {
    if (I)
      Out << ", ";
    Out << typeKindName(F.inputs()[I]->Type) << " %" << F.inputs()[I]->Id
        << " \"" << F.inputs()[I]->Name << "\"";
  }
  Out << ") {\n";
  for (const auto &N : F.nodes()) {
    if (N->Kind == NodeKind::NK_Input)
      continue;
    Out << "  %" << N->Id << " : " << typeKindName(N->Type) << " = "
        << nodeKindName(N->Kind);
    for (const IrNode *Op : N->Operands)
      Out << " %" << Op->Id;
    if (!N->Ints.empty()) {
      Out << " [";
      for (size_t I = 0; I < N->Ints.size(); ++I)
        Out << (I ? " " : "") << N->Ints[I];
      Out << "]";
    }
    if (N->Scalar != 0.0)
      Out << " scalar=" << N->Scalar;
    if (!N->Data.empty()) {
      // The checksum covers every constant's bytes, so a dump changes
      // whenever a weight does.
      char Crc[9];
      std::snprintf(Crc, sizeof(Crc), "%08x",
                    crc32c(N->Data.data(), N->Data.size() * sizeof(double)));
      Out << " data<" << N->Data.size() << " crc32c=" << Crc << ">";
    }
    if (N->CkksLevel >= 0)
      Out << " level=" << N->CkksLevel << " scale=" << N->CkksScale;
    if (!N->Name.empty())
      Out << " \"" << N->Name << "\"";
    Out << "\n";
  }
  Out << "}\n";
  return Out.str();
}

Status
ace::air::verifyFunction(const IrFunction &F,
                         const std::vector<DialectKind> &AllowedDialects) {
  std::set<const IrNode *> Seen;
  bool SawReturn = false;
  for (const auto &N : F.nodes()) {
    // SSA: operands precede their users.
    for (const IrNode *Op : N->Operands)
      if (!Seen.count(Op))
        return Status::error("node %" + std::to_string(N->Id) + " (" +
                             nodeKindName(N->Kind) +
                             ") uses a value defined later");
    Seen.insert(N.get());

    if (!AllowedDialects.empty()) {
      DialectKind D = dialectOf(N->Kind);
      bool Allowed = D == DialectKind::DK_Common;
      for (DialectKind A : AllowedDialects)
        Allowed |= A == D;
      if (!Allowed)
        return Status::error("node %" + std::to_string(N->Id) + " (" +
                             nodeKindName(N->Kind) +
                             ") outside the allowed dialects");
    }

    // Kind-specific signature checks (paper Tables 3-6).
    auto Expect = [&](bool Cond, const char *Message) {
      return Cond ? Status::success()
                  : Status::error("node %" + std::to_string(N->Id) + " (" +
                                  nodeKindName(N->Kind) + "): " + Message);
    };
    Status S = Status::success();
    switch (N->Kind) {
    case NodeKind::NK_SiheRotate:
    case NodeKind::NK_CkksRotate:
      S = Expect(N->Operands.size() == 1 &&
                     N->Operands[0]->Type == TypeKind::TK_Cipher &&
                     N->Type == TypeKind::TK_Cipher,
                 "rotate requires Cipher -> Cipher");
      break;
    case NodeKind::NK_SiheMul:
      S = Expect(N->Operands.size() == 2 &&
                     N->Operands[0]->Type == TypeKind::TK_Cipher &&
                     (N->Operands[1]->Type == TypeKind::TK_Cipher ||
                      N->Operands[1]->Type == TypeKind::TK_Plain),
                 "mul requires Cipher x (Cipher|Plain)");
      break;
    case NodeKind::NK_CkksMul:
      // ct*ct yields Cipher3 (paper Table 6); ct*pt keeps the operand's
      // degree (the lazy pipeline multiplies plaintexts into deferred
      // Cipher3 values, see docs/compiler.md).
      if (N->Operands.size() == 2 &&
          N->Operands[1]->Type == TypeKind::TK_Cipher)
        S = Expect(N->Operands[0]->Type == TypeKind::TK_Cipher &&
                       N->Type == TypeKind::TK_Cipher3,
                   "ciphertext product must be Cipher x Cipher -> Cipher3");
      else
        S = Expect(N->Operands.size() == 2 &&
                       N->Operands[1]->Type == TypeKind::TK_Plain &&
                       N->Type == N->Operands[0]->Type &&
                       (N->Type == TypeKind::TK_Cipher ||
                        N->Type == TypeKind::TK_Cipher3),
                   "plaintext product must keep the ciphertext operand's "
                   "degree");
      break;
    case NodeKind::NK_CkksAdd:
      // Additions carry the widest operand degree so a deferred (fused)
      // relinearization downstream sees a Cipher3-typed value.
      if (N->Operands.size() == 2 &&
          N->Operands[1]->Type != TypeKind::TK_Plain) {
        bool AnyC3 = N->Operands[0]->Type == TypeKind::TK_Cipher3 ||
                     N->Operands[1]->Type == TypeKind::TK_Cipher3;
        S = Expect(N->Type == (AnyC3 ? TypeKind::TK_Cipher3
                                     : TypeKind::TK_Cipher),
                   "add must carry the widest operand degree");
      } else {
        S = Expect(N->Operands.size() == 2 &&
                       N->Type == N->Operands[0]->Type,
                   "plaintext add must keep the ciphertext operand's "
                   "degree");
      }
      break;
    case NodeKind::NK_CkksMulConst:
    case NodeKind::NK_CkksAddConst:
      S = Expect(N->Operands.size() == 1 &&
                     N->Type == N->Operands[0]->Type &&
                     (N->Type == TypeKind::TK_Cipher ||
                      N->Type == TypeKind::TK_Cipher3),
                 "scalar ops must keep the ciphertext operand's degree");
      break;
    case NodeKind::NK_CkksRelin:
      S = Expect(N->Operands.size() == 1 &&
                     N->Operands[0]->Type == TypeKind::TK_Cipher3 &&
                     N->Type == TypeKind::TK_Cipher,
                 "relin requires Cipher3 -> Cipher");
      break;
    case NodeKind::NK_SiheEncode:
    case NodeKind::NK_CkksEncode:
      S = Expect(N->Type == TypeKind::TK_Plain,
                 "encode must produce Plain");
      break;
    case NodeKind::NK_CkksRescale:
    case NodeKind::NK_CkksModSwitch:
    case NodeKind::NK_CkksBootstrap:
      S = Expect(N->Operands.size() == 1 &&
                     (N->Operands[0]->Type == TypeKind::TK_Cipher ||
                      N->Operands[0]->Type == TypeKind::TK_Cipher3) &&
                     N->Type == N->Operands[0]->Type,
                 "scale management preserves the operand type");
      break;
    case NodeKind::NK_VecMatDiag:
      // Ints = {Stride, Capacity, NumDiags, d_0..d_{NumDiags-1}}; the
      // mask operand stacks one Slots-length row per listed diagonal.
      S = Expect(N->Operands.size() == 2 &&
                     N->Operands[0]->Type == TypeKind::TK_Cipher &&
                     N->Operands[1]->Type == TypeKind::TK_Vector &&
                     N->Type == TypeKind::TK_Cipher &&
                     N->Ints.size() >= 3 &&
                     N->Ints.size() ==
                         3 + static_cast<size_t>(N->Ints[2]) &&
                     N->Ints[2] > 0 &&
                     !N->Operands[1]->Data.empty() &&
                     N->Operands[1]->Data.size() %
                             static_cast<size_t>(N->Ints[2]) ==
                         0,
                 "mat_diag requires Cipher x Vector -> Cipher with "
                 "{stride, capacity, count, diagonals...} attributes");
      break;
    case NodeKind::NK_Return:
      SawReturn = true;
      break;
    default:
      break;
    }
    if (S)
      return S;
  }
  if (F.returnValue() && !SawReturn)
    return Status::error("function has a return value but no return node");
  return Status::success();
}
