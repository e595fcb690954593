//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-level IR at the heart of the compiler (paper Secs. 3.2, 4).
/// One node class carries the four dialects the passes build - NN, VECTOR,
/// SIHE, CKKS (paper Tables 3-6) - discriminated by NodeKind, LLVM-style;
/// the POLY level (Table 7) is counted, not built (passes/CkksToPoly.h).
/// A function is a topologically ordered list of SSA nodes; lowering
/// passes rewrite functions from one dialect into the next while several
/// dialects may coexist mid-pipeline (e.g. SIHE.encode wrapping a VECTOR
/// constant, as in paper Listing 3). Every node keeps an OriginKind tag
/// naming the NN operator it descends from, which powers the Figure 6
/// per-operator time breakdown.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_AIR_IR_H
#define ACE_AIR_IR_H

#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ace {
namespace air {

/// Dialect (abstraction level) of a node (paper Table 2).
enum class DialectKind {
  DK_Common, ///< inputs, constants, returns
  DK_Nn,
  DK_Vector,
  DK_Sihe,
  DK_Ckks,
};

/// All node kinds across the four dialects.
enum class NodeKind {
  // Common.
  NK_Input,      ///< encrypted function argument (Cipher)
  NK_ConstVec,   ///< cleartext constant vector (compile-time data)
  NK_Return,     ///< function result marker

  // NN dialect (paper Table 3); operands are tensors.
  NK_NnConv,
  NK_NnGemm,
  NK_NnRelu,
  NK_NnAvgPool,
  NK_NnGlobalAvgPool,
  NK_NnFlatten,
  NK_NnReshape,
  NK_NnAdd,
  NK_NnStridedSlice,

  // VECTOR dialect (paper Table 4).
  NK_VecAdd,
  NK_VecMul,
  NK_VecRoll,
  NK_VecRelu, ///< nonlinearity kept abstract until the SIHE level
  /// Diagonal-form matrix-vector product: operand 0 is the input vector
  /// (Cipher), operand 1 a ConstVec holding the stacked diagonal masks
  /// (NumDiags x Slots doubles). Ints = {Stride, Capacity, NumDiags,
  /// d_0..d_{NumDiags-1}} where each d_k indexes a nonzero diagonal and
  /// diagonal d contributes mask[t] * x[(t + d*Stride) mod Slots]. Kept
  /// whole through the VECTOR level so the SIHE lowering can expand it
  /// into a baby-step/giant-step rotation plan (O(sqrt n) rotation keys,
  /// hoisted baby rotations) instead of one rotation per diagonal.
  NK_VecMatDiag,

  // SIHE dialect (paper Table 5) - scheme-independent homomorphic ops.
  NK_SiheRotate,
  NK_SiheAdd,
  NK_SiheMul,
  NK_SiheEncode,
  NK_SiheAddConst, ///< fold-in of scalar constants
  NK_SiheMulConst,

  // CKKS dialect (paper Table 6).
  NK_CkksRotate,
  NK_CkksAdd,
  NK_CkksMul, ///< ct*ct -> Cipher3, ct*pt -> Cipher
  NK_CkksEncode,
  NK_CkksAddConst,
  NK_CkksMulConst,
  NK_CkksRelin,
  NK_CkksRescale,
  NK_CkksModSwitch,
  NK_CkksBootstrap,
};

/// The dialect a kind belongs to.
DialectKind dialectOf(NodeKind Kind);

/// Printable mnemonic ("CKKS.mul", "VECTOR.roll", ...).
const char *nodeKindName(NodeKind Kind);

/// Value types (paper Tables 3-6: Tensor, Vector, Plain, Cipher,
/// Cipher3).
enum class TypeKind {
  TK_Tensor,
  TK_Vector,
  TK_Plain,
  TK_Cipher,
  TK_Cipher3,
  TK_None,
};

const char *typeKindName(TypeKind Kind);

/// NN operator a node descends from; drives the Figure 6 breakdown.
enum class OriginKind {
  OR_Input,
  OR_Conv,
  OR_Relu,
  OR_Bootstrap,
  OR_Pool,
  OR_Gemm,
  OR_Add,
  OR_Other,
};

const char *originKindName(OriginKind Kind);

class IrFunction;

/// One SSA node: kind, type, operands, and kind-specific attributes.
class IrNode {
public:
  NodeKind Kind;
  TypeKind Type = TypeKind::TK_None;
  std::vector<IrNode *> Operands;
  OriginKind Origin = OriginKind::OR_Other;
  /// Sequential id, also the printed name (%id).
  int Id = 0;
  /// Optional symbolic name (e.g. "image", "fc.weight").
  std::string Name;

  /// \name Kind-specific attributes.
  /// @{
  /// Integer payload: rotation steps, slice params, kernel geometry, ...
  std::vector<int64_t> Ints;
  /// Constant data for NK_ConstVec / NK_SiheEncode'd weights.
  std::vector<double> Data;
  /// Scalar payload for *Const nodes; also the target scale of
  /// downscale/upscale.
  double Scalar = 0.0;
  /// CKKS bookkeeping (filled by the SIHE->CKKS lowering): the scale this
  /// value carries and its level (active primes - 1).
  double CkksScale = 0.0;
  int CkksLevel = -1;
  /// Bootstrap target level (NK_CkksBootstrap).
  int BootstrapTarget = -1;
  /// Bootstrap-placement marker: the CKKS lowering refreshes operand 0
  /// before evaluating this node (set on the head of each ReLU
  /// approximation region; paper Sec. 4.4 positions bootstrapping before
  /// ReLU).
  bool RefreshBefore = false;
  /// @}

  /// Rotation step helper (NK_VecRoll / NK_SiheRotate / NK_CkksRotate).
  int64_t rotationSteps() const { return Ints.empty() ? 0 : Ints[0]; }

  IrNode(NodeKind Kind, TypeKind Type) : Kind(Kind), Type(Type) {}
};

/// A compiled function: SSA nodes in topological program order.
class IrFunction {
public:
  explicit IrFunction(std::string Name) : Name(std::move(Name)) {}

  const std::string &name() const { return Name; }

  /// Creates a node appended to the program order.
  IrNode *create(NodeKind Kind, TypeKind Type,
                 std::vector<IrNode *> Operands = {},
                 OriginKind Origin = OriginKind::OR_Other);

  /// All nodes in program order.
  const std::vector<std::unique_ptr<IrNode>> &nodes() const { return Nodes; }

  /// The function result (operand of the NK_Return node).
  IrNode *returnValue() const { return ReturnNode; }
  void setReturn(IrNode *Value);

  /// Function inputs in declaration order.
  const std::vector<IrNode *> &inputs() const { return Inputs; }
  IrNode *addInput(const std::string &Name, TypeKind Type);

  /// Counts nodes of each dialect (drives the Table 8-style statistics
  /// and phase assertions).
  size_t countDialect(DialectKind Dialect) const;

  /// Renumbers node ids to program order.
  void renumber();

private:
  std::string Name;
  std::vector<std::unique_ptr<IrNode>> Nodes;
  std::vector<IrNode *> Inputs;
  IrNode *ReturnNode = nullptr;
  int NextId = 0;
};

/// Renders a function in the paper's textual style.
std::string printFunction(const IrFunction &F);

/// Structural verification: operand types versus each kind's signature,
/// SSA dominance (operands appear earlier), and - when \p AllowedDialects
/// is non-empty - dialect confinement. Returns a diagnostic on failure.
Status verifyFunction(const IrFunction &F,
                      const std::vector<DialectKind> &AllowedDialects = {});

} // namespace air
} // namespace ace

#endif // ACE_AIR_IR_H
