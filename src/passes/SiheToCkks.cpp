//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "passes/SiheToCkks.h"

#include "fhe/Bootstrapper.h"
#include "fhe/Security.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace ace;
using namespace ace::passes;
using namespace ace::air;

namespace {

/// log2 of the scale Delta and of the output modulus q_0 (paper Table 10
/// uses 56 and 60 at production; the execution chain keeps 10 bits of
/// headroom above Delta).
constexpr int kLogScale = 45;
constexpr int kLogFirstModulus = 55;
/// Extra chain levels the Expert placement budgets, as a hand
/// implementation does, when minimal-level bootstrapping is off.
constexpr int kExpertLevelMargin = 3;

size_t nextPow2(size_t X) {
  size_t P = 1;
  while (P < X)
    P <<= 1;
  return P;
}

/// Rescale cost of a node in the backward depth analysis.
int levelCost(const IrNode *N) {
  return (N->Kind == NodeKind::NK_SiheMul ||
          N->Kind == NodeKind::NK_SiheMulConst)
             ? 1
             : 0;
}

/// Levels each value must carry, given the refresh points.
struct LevelNeeds {
  /// Levels consumed from a value up to the next refresh on every path.
  std::map<const IrNode *, int> Need;
  /// A refreshed value's levels: the max over its post-refresh uses.
  std::map<const IrNode *, int> RefreshNeed;

  int of(const IrNode *N) const {
    auto It = Need.find(N);
    return It == Need.end() ? 0 : It->second;
  }
  int inputNeed(const IrFunction &F) const {
    int Max = 0;
    for (const IrNode *In : F.inputs())
      Max = std::max(Max, of(In));
    return Max;
  }
  /// The highest bootstrap target, the base prime included.
  int maxTarget() const {
    int Max = 2;
    for (const auto &[Value, Levels] : RefreshNeed)
      Max = std::max(Max, Levels + 1);
    return Max;
  }
};

/// Backward need analysis. \p RefreshId maps each bootstrapped value to
/// the id of its first refreshing reader; that reader and every later
/// one read the refreshed value.
LevelNeeds analyzeNeeds(const IrFunction &F,
                        const std::map<const IrNode *, int> &RefreshId) {
  const std::vector<std::unique_ptr<IrNode>> &Nodes = F.nodes();
  auto ReadsRefreshed = [&](const IrNode *X, const IrNode *N) {
    auto R = RefreshId.find(X);
    return R != RefreshId.end() && R->second <= N->Id;
  };
  LevelNeeds L;
  if (F.returnValue())
    L.Need[F.returnValue()] = 1; // settling the final pending rescale
  for (auto It = Nodes.rbegin(); It != Nodes.rend(); ++It) {
    const IrNode *N = It->get();
    int Out = L.of(N) + levelCost(N);
    for (const IrNode *X : N->Operands) {
      auto [NIt, Inserted] =
          (ReadsRefreshed(X, N) ? L.RefreshNeed : L.Need).emplace(X, Out);
      if (!Inserted)
        NIt->second = std::max(NIt->second, Out);
    }
  }
  return L;
}

/// Forward rebuild state. The placement legality rules this builder
/// implements are documented in docs/compiler.md. Placement is lazy:
/// settles, level drops, and relinearizations are memoized (CSE over
/// scale management), degree-3 products flow through additions / scalar
/// ops / ct-pt multiplies, and canonical form (scale Delta, degree 2) is
/// demanded only at rotations, ct-ct multiply operands, bootstrap inputs,
/// and the return value.
///
/// The eager reference (CompileOptions::EnableRescalePlacement=false)
/// runs the same builder but relinearizes and rescales right after every
/// producer, so every mapped value is canonical and canonical() is the
/// identity on it; its level drops stay unmemoized.
struct CkksBuilder {
  IrFunction &Out;
  CompileState &State;
  bool Eager;
  std::map<const IrNode *, IrNode *> Map;
  std::map<IrNode *, size_t> NumQ;
  std::map<IrNode *, bool> Pending; ///< scale Delta*q, rescale postponed
  std::map<IrNode *, int> Degree;   ///< ciphertext components (2 or 3)
  /// Memoization: each value settles / relinearizes (and, when lazy,
  /// drops to a given level) at most once, however many consumers
  /// demand it.
  std::map<IrNode *, IrNode *> SettleCache;
  std::map<std::pair<IrNode *, size_t>, IrNode *> DropCache;
  std::map<IrNode *, IrNode *> RelinCache;

  int degreeOf(IrNode *V) {
    auto It = Degree.find(V);
    return It == Degree.end() ? 2 : It->second;
  }

  IrNode *makeRescale(IrNode *V) {
    assert(NumQ[V] >= 2 && "rescale would drop the base modulus");
    IrNode *R = Out.create(NodeKind::NK_CkksRescale, V->Type, {V},
                           V->Origin);
    NumQ[R] = NumQ[V] - 1;
    Pending[R] = false;
    Degree[R] = degreeOf(V);
    R->CkksLevel = static_cast<int>(NumQ[R]) - 1;
    return R;
  }

  /// Emits the postponed rescale, once per value.
  IrNode *settle(IrNode *V) {
    IrNode *S = V;
    if (Pending[V]) {
      auto [It, Inserted] = SettleCache.try_emplace(V, nullptr);
      if (Inserted)
        It->second = makeRescale(V);
      S = It->second;
    }
    // Canonical forwarding: once some consumer has relinearized this
    // settled value, every later consumer takes the degree-2 form —
    // same scale, lower degree, and downstream sums stop re-carrying
    // (and re-relinearizing) the third component.
    auto RIt = RelinCache.find(S);
    return RIt != RelinCache.end() ? RIt->second : S;
  }

  /// Mod-switches \p V down to \p Target active primes.
  IrNode *dropTo(IrNode *V, size_t Target) {
    if (NumQ[V] == Target)
      return V;
    assert(NumQ[V] > Target && "cannot raise a level without bootstrapping");
    if (Eager)
      return makeDrop(V, Target);
    auto [It, Inserted] = DropCache.try_emplace({V, Target}, nullptr);
    if (Inserted)
      It->second = makeDrop(V, Target);
    return It->second;
  }

  IrNode *makeDrop(IrNode *V, size_t Target) {
    IrNode *M = Out.create(NodeKind::NK_CkksModSwitch, V->Type, {V},
                           V->Origin);
    M->Ints = {static_cast<int64_t>(Target)};
    NumQ[M] = Target;
    Pending[M] = Pending[V];
    Degree[M] = degreeOf(V);
    M->CkksLevel = static_cast<int>(Target) - 1;
    return M;
  }

  /// Reduces a degree-3 product back to two components. Memoized.
  IrNode *relin(IrNode *V) {
    if (degreeOf(V) == 2)
      return V;
    auto [It, Inserted] = RelinCache.try_emplace(V, nullptr);
    if (!Inserted)
      return It->second;
    IrNode *R = Out.create(NodeKind::NK_CkksRelin, TypeKind::TK_Cipher, {V},
                           V->Origin);
    NumQ[R] = NumQ[V];
    Pending[R] = Pending[V];
    Degree[R] = 2;
    R->CkksLevel = static_cast<int>(NumQ[R]) - 1;
    It->second = R;
    return R;
  }

  /// Canonical form: scale Delta, degree 2. Settling first relinearizes
  /// at the lower level, which shortens the key-switch.
  IrNode *canonical(IrNode *V) { return relin(settle(V)); }

  /// A multiply's result: eager placement relinearizes and rescales it
  /// on the spot; lazy placement leaves it pending for its consumers.
  IrNode *produced(IrNode *V) {
    if (!Eager)
      return V;
    IrNode *R = relin(V);
    R->CkksScale = V->CkksScale; // the relinearized product is still pending
    return settle(R);
  }

  IrNode *finish(IrNode *N, size_t Q, bool IsPending, int Deg = 2) {
    NumQ[N] = Q;
    Pending[N] = IsPending;
    Degree[N] = Deg;
    N->CkksLevel = static_cast<int>(Q) - 1;
    N->CkksScale = IsPending ? 2.0 : 1.0; // symbolic: Delta^2 vs Delta
    return N;
  }
};

} // namespace

Status SiheToCkksPass::run(IrFunction &F, CompileState &State) {
  const std::vector<std::unique_ptr<IrNode>> &Nodes = F.nodes();

  // --- Refresh points -----------------------------------------------------
  // Each ReLU's value carries RefreshBefore on its first reader. Every
  // ReLU starts out bootstrapped; encryption then carries the leading
  // ones the chain holds (docs/compiler.md, "Where the bootstrap goes").
  std::map<const IrNode *, int> RefreshId;
  std::vector<const IrNode *> Relus; ///< refreshed values, program order
  for (const auto &N : Nodes)
    if (N->RefreshBefore && RefreshId.emplace(N->Operands[0], N->Id).second)
      Relus.push_back(N->Operands[0]);

  size_t Slots = State.InputLayout.slotCount();
  size_t RingDegree = std::max<size_t>(2 * nextPow2(Slots), 128);
  bool Minimal = State.Options.EnableMinimalBootstrapLevel;
  int Margin = Minimal ? 0 : kExpertLevelMargin;
  int BootDepth = fhe::estimateBootstrapDepth(
      RingDegree, Slots, fhe::BootstrapConfig{}, kLogScale, kLogFirstModulus);
  LevelNeeds Levels = analyzeNeeds(F, RefreshId);
  // The chain with every ReLU bootstrapped: the highest refresh target
  // plus the bootstrap's own depth.
  int Chain = Levels.maxTarget() + Margin + BootDepth;
  // Walk the ReLUs in program order and drop each refresh while the
  // input, encrypted with the levels up to the next kept refresh, still
  // fits in that chain.
  for (const IrNode *X : Relus) {
    std::map<const IrNode *, int> Fewer = RefreshId;
    Fewer.erase(X);
    LevelNeeds Trial = analyzeNeeds(F, Fewer);
    if (Trial.inputNeed(F) + 1 + Margin > Chain)
      break;
    RefreshId = std::move(Fewer);
    Levels = std::move(Trial);
  }

  // --- Forward rebuild ----------------------------------------------------
  IrFunction NewF(F.name());
  bool Eager = !State.Options.EnableRescalePlacement;
  CkksBuilder B{NewF, State, Eager, {}, {}, {}, {}, {}, {}, {}};
  std::map<const IrNode *, IrNode *> Refreshed;

  int MaxBootTarget = 0;
  size_t InputNumQ = 0;
  IrNode *Result = nullptr;

  for (const auto &NPtr : Nodes) {
    const IrNode *N = NPtr.get();

    // Minimal-level bootstrap insertion (paper Sec. 4.4).
    if (N->RefreshBefore && RefreshId.count(N->Operands[0])) {
      const IrNode *XOld = N->Operands[0];
      if (!Refreshed.count(XOld)) {
        // Bootstrapping demands canonical form (degree 2, scale Delta).
        IrNode *X = B.canonical(B.Map.at(XOld));
        // Expert-style placement refreshes to the deepest level any
        // bootstrapped ReLU needs, plus the hand-budgeted margin (paper
        // Sec. 4.4 contrasts this with minimal-level placement).
        int Target = Minimal ? Levels.RefreshNeed.at(XOld) + 1
                             : Levels.maxTarget() + Margin;
        IrNode *Boot = NewF.create(NodeKind::NK_CkksBootstrap, X->Type, {X},
                                   OriginKind::OR_Bootstrap);
        Boot->BootstrapTarget = Target;
        B.finish(Boot, static_cast<size_t>(Target), /*IsPending=*/false);
        Refreshed[XOld] = Boot;
        B.Map[XOld] = Boot;
        MaxBootTarget = std::max(MaxBootTarget, Target);
        ++State.BootstrapCount;
      }
    }

    IrNode *Lowered = nullptr;
    switch (N->Kind) {
    case NodeKind::NK_Input: {
      Lowered = NewF.addInput(N->Name, TypeKind::TK_Cipher);
      InputNumQ = static_cast<size_t>(Levels.of(N) + 1 + Margin);
      B.finish(Lowered, InputNumQ, false);
      break;
    }
    case NodeKind::NK_ConstVec: {
      Lowered = NewF.create(NodeKind::NK_ConstVec, TypeKind::TK_Vector, {},
                            N->Origin);
      Lowered->Data = N->Data;
      Lowered->Name = N->Name;
      break;
    }
    case NodeKind::NK_SiheEncode: {
      Lowered = NewF.create(NodeKind::NK_CkksEncode, TypeKind::TK_Plain,
                            {B.Map.at(N->Operands[0])}, N->Origin);
      break;
    }
    case NodeKind::NK_SiheRotate: {
      // Rotation key-switches a degree-2 ciphertext: a canonical-form
      // demand point. The memoized settle hoists one rescale above a
      // rotation fan-out (e.g. the BSGS baby steps) instead of
      // re-settling per rotation, and rotating at the settled (lower)
      // level truncates the key.
      IrNode *X = B.canonical(B.Map.at(N->Operands[0]));
      Lowered = NewF.create(NodeKind::NK_CkksRotate, TypeKind::TK_Cipher,
                            {X}, N->Origin);
      Lowered->Ints = N->Ints;
      B.finish(Lowered, B.NumQ[X], B.Pending[X]);
      int64_t Slots =
          static_cast<int64_t>(State.InputLayout.slotCount());
      int64_t Step = ((N->rotationSteps() % Slots) + Slots) % Slots;
      if (Step != 0) {
        State.RotationSteps.insert(Step);
        auto [It, Inserted] =
            State.RotationStepMaxNumQ.emplace(Step, B.NumQ[X]);
        if (!Inserted)
          It->second = std::max(It->second, B.NumQ[X]);
      }
      break;
    }
    case NodeKind::NK_SiheMul: {
      IrNode *A = B.Map.at(N->Operands[0]);
      IrNode *C = B.Map.at(N->Operands[1]);
      if (C->Type == TypeKind::TK_Plain) {
        // A pending Delta*q scale would make the product doubly pending;
        // settle first. A degree-3 operand passes through (plaintext
        // products touch every component independently).
        A = B.settle(A);
        Lowered = NewF.create(NodeKind::NK_CkksMul, A->Type, {A, C},
                              N->Origin);
        B.finish(Lowered, B.NumQ[A], /*IsPending=*/true, B.degreeOf(A));
      } else {
        // Ciphertext products need canonical degree-2 operands at the
        // plain scale; the relinearization of the product itself is
        // deferred until a consumer demands canonical form, so a sum of
        // products relinearizes once.
        A = B.canonical(A);
        C = B.canonical(C);
        size_t Target = std::min(B.NumQ[A], B.NumQ[C]);
        A = B.dropTo(A, Target);
        C = B.dropTo(C, Target);
        Lowered = NewF.create(NodeKind::NK_CkksMul, TypeKind::TK_Cipher3,
                              {A, C}, N->Origin);
        B.finish(Lowered, Target, true, /*Deg=*/3);
        State.NeedsRelin = true;
      }
      Lowered = B.produced(Lowered);
      break;
    }
    case NodeKind::NK_SiheMulConst: {
      IrNode *A = B.settle(B.Map.at(N->Operands[0]));
      Lowered = NewF.create(NodeKind::NK_CkksMulConst, A->Type, {A},
                            N->Origin);
      Lowered->Scalar = N->Scalar;
      B.finish(Lowered, B.NumQ[A], true, B.degreeOf(A));
      Lowered = B.produced(Lowered);
      break;
    }
    case NodeKind::NK_SiheAddConst: {
      // Constants are added at the ciphertext scale; settle a pending
      // Delta^2 scale first so the integer constant stays within range
      // (the runtime encodes |value * Scale| < 2^62).
      IrNode *A = B.settle(B.Map.at(N->Operands[0]));
      Lowered = NewF.create(NodeKind::NK_CkksAddConst, A->Type, {A},
                            N->Origin);
      Lowered->Scalar = N->Scalar;
      B.finish(Lowered, B.NumQ[A], B.Pending[A], B.degreeOf(A));
      break;
    }
    case NodeKind::NK_SiheAdd: {
      IrNode *A = B.Map.at(N->Operands[0]);
      IrNode *C = B.Map.at(N->Operands[1]);
      if (C->Type == TypeKind::TK_Plain) {
        // Plaintexts are encoded at the ciphertext scale; a pending
        // Delta^2 scale would overflow the encoder, so settle first.
        A = B.settle(A);
        Lowered = NewF.create(NodeKind::NK_CkksAdd, A->Type, {A, C},
                              N->Origin);
        B.finish(Lowered, B.NumQ[A], B.Pending[A], B.degreeOf(A));
      } else {
        // Pending operands add directly: the rescale primes are balanced
        // around 2^LogScale, so two pending values agree on scale within
        // the runtime tolerance even at different levels. A settled and
        // a pending operand differ by a factor ~Delta and must not mix.
        if (B.Pending[A] != B.Pending[C]) {
          A = B.settle(A);
          C = B.settle(C);
        }
        size_t Target = std::min(B.NumQ[A], B.NumQ[C]);
        A = B.dropTo(A, Target);
        C = B.dropTo(C, Target);
        int Deg = std::max(B.degreeOf(A), B.degreeOf(C));
        Lowered = NewF.create(NodeKind::NK_CkksAdd,
                              Deg == 3 ? TypeKind::TK_Cipher3
                                       : TypeKind::TK_Cipher,
                              {A, C}, N->Origin);
        B.finish(Lowered, Target, B.Pending[A], Deg);
      }
      break;
    }
    case NodeKind::NK_Return: {
      // The decryptor expects canonical form.
      Result = B.canonical(B.Map.at(N->Operands[0]));
      continue;
    }
    default:
      return Status::error(std::string("unexpected node in SIHE lowering: ") +
                           nodeKindName(N->Kind));
    }
    B.Map[N] = Lowered;
  }
  if (!Result)
    return Status::error("SIHE function has no return value");
  NewF.setReturn(Result);
  NewF.renumber();

  // --- Static op budget (tests/passes/OpBudgetTest.cpp) ------------------
  State.Budget = CkksOpBudget{};
  for (const auto &NPtr : NewF.nodes()) {
    switch (NPtr->Kind) {
    case NodeKind::NK_CkksRescale:
      ++State.Budget.Rescale;
      break;
    case NodeKind::NK_CkksRelin:
      ++State.Budget.Relinearize;
      break;
    case NodeKind::NK_CkksRotate:
      ++State.Budget.Rotate;
      break;
    case NodeKind::NK_CkksModSwitch:
      ++State.Budget.ModSwitch;
      break;
    case NodeKind::NK_CkksBootstrap:
      ++State.Budget.Bootstrap;
      break;
    case NodeKind::NK_CkksMulConst:
      ++State.Budget.CtPtMul; // scalar products execute as ct-pt muls
      break;
    case NodeKind::NK_CkksMul:
      if (NPtr->Operands[1]->Type == TypeKind::TK_Plain)
        ++State.Budget.CtPtMul;
      else
        ++State.Budget.CtCtMul;
      break;
    default:
      break;
    }
  }

  // --- Automatic parameter selection (paper Table 10) --------------------
  bool HasBootstrap = State.BootstrapCount > 0;

  int MaxNeed = 0;
  for (const auto &[Node, Value] : Levels.Need)
    MaxNeed = std::max(MaxNeed, Value);
  State.MaxComputeDepth = MaxNeed;

  // Execution parameters run fast on one core: the smallest ring that
  // holds the slots. The 128-bit production ring is reported below.
  fhe::CkksParams P;
  P.RingDegree = RingDegree;
  P.Slots = Slots;
  P.LogScale = kLogScale;
  P.LogFirstModulus = kLogFirstModulus;
  P.LogSpecialModulus = 60;
  P.SparseSecret = HasBootstrap;
  P.Seed = State.Options.Seed;

  size_t ChainNumQ = InputNumQ;
  if (HasBootstrap) {
    State.BootstrapDepth = BootDepth;
    ChainNumQ = std::max<size_t>(InputNumQ, MaxBootTarget + BootDepth);
  }
  P.NumRescaleModuli = static_cast<int>(ChainNumQ) - 1;
  State.SelectedParams = P;

  // Production-security report (Table 10). It charges a production
  // bootstrapper's depth (hand-tuned EvalMod as in Lee et al. [35]), not
  // the execution pipeline's, which is sized for the small execution
  // ring. The compiled ReLU is the one production runs, so the bootstrap
  // targets stand.
  {
    constexpr int ProductionBootstrapDepth = 14;
    size_t ProdChain =
        HasBootstrap
            ? std::max<size_t>(InputNumQ,
                               MaxBootTarget + ProductionBootstrapDepth)
            : InputNumQ;
    int LogQP = 60 + static_cast<int>(ProdChain - 1) * 56 + 60;
    size_t NSec =
        fhe::minRingDegreeFor(LogQP, fhe::SecurityLevelKind::SL_128);
    State.SecureRingDegree = std::max(NSec, 2 * nextPow2(Slots));
    State.SecureLogQ = LogQP;
  }

  State.NeedsConjugation = HasBootstrap;
  State.InputNumQ = InputNumQ;
  F = std::move(NewF);
  return Status::success();
}
