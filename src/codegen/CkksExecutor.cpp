//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "codegen/CkksExecutor.h"

#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

using namespace ace;
using namespace ace::codegen;
using namespace ace::air;
using fhe::Ciphertext;
using fhe::Plaintext;

CkksExecutor::CkksExecutor(const IrFunction &F, const CompileState &State)
    : F(F), State(State),
      Uses(computeLastUses(F, State.Options.EnableRotationKeyAnalysis)) {}

CkksExecutor::~CkksExecutor() = default;

Status CkksExecutor::setup(uint64_t SeedOverride) {
  telemetry::TraceSpan Span("executor", "setup");
  WallTimer Clock;
  fhe::CkksParams P = State.SelectedParams;
  if (SeedOverride != 0)
    P.Seed = SeedOverride;
  if (!P.valid())
    return Status::error("invalid selected parameters");
  teardown();
  Ctx = std::make_unique<fhe::Context>(P);
  Enc = std::make_unique<fhe::Encoder>(*Ctx);
  Gen = std::make_unique<fhe::KeyGenerator>(*Ctx);
  Pub = Gen->makePublicKey();
  KeyCache = std::make_unique<fhe::RotationKeyCache>(*Ctx, *Gen);
  Eval = std::make_unique<fhe::Evaluator>(*Ctx, *Enc, Keys, *KeyCache);
  if (Status S = makeKeys(); !S.ok()) {
    teardown();
    return S;
  }
  Encrypt = std::make_unique<fhe::Encryptor>(*Ctx, Pub);
  Decrypt = std::make_unique<fhe::Decryptor>(*Ctx, Gen->secretKey());

  SetupSeconds = Clock.seconds();
  if (telemetry::enabled()) {
    telemetry::Telemetry::instance().recordSnapshot("executor:setup");
    telemetry::Telemetry::instance().sampleRss("rss");
  }
  return Status::success();
}

void CkksExecutor::teardown() {
  Boot.reset();
  Eval.reset();
  Encrypt.reset();
  Decrypt.reset();
  KeyCache.reset();
  Keys = fhe::EvalKeys();
  PlainCache.clear();
}

Status CkksExecutor::makeKeys() {
  // Eager executors generate each key as it is declared, so its material
  // depends only on the seed and this order. The pins hold every key
  // until setup returns: a key set over budget fails instead of evicting
  // its own keys to fit.
  std::vector<std::shared_ptr<const fhe::SwitchKey>> Pins;
  auto Declared = [&](uint64_t Galois) {
    return LazyRotationKeys ? Status::success()
                            : Eval->materializeGaloisKey(Galois, 0, Pins);
  };

  // Key generation restricted to the analyzed requirements (paper RQ2's
  // memory win over generating every power-of-two key). The Expert
  // baseline instead generates the full power-of-two key set, as hand
  // implementations and FHE libraries do by default.
  // Bootstrap keys first: its rotations run at the raised levels and need
  // full-depth keys, even when the same step also appears in the program
  // (declareRotation keeps the widest truncation when they overlap).
  std::vector<int64_t> FullSteps;
  if (State.BootstrapCount > 0) {
    Boot = std::make_unique<fhe::Bootstrapper>(*Eval);
    FullSteps = Boot->requiredRotations();
    for (uint64_t Galois : Boot->requiredGaloisElements()) {
      KeyCache->declareGalois(Galois);
      ACE_RETURN_IF_ERROR(Declared(Galois));
    }
  }
  if (State.NeedsRelin) {
    Keys.Relin = Gen->makeRelinKey();
    Keys.HasRelin = true;
  }
  if (State.NeedsConjugation) {
    Keys.Conjugate = Gen->makeConjugationKey();
    Keys.HasConjugate = true;
  }
  if (!State.Options.EnableRotationKeyAnalysis) {
    // Hand implementations generate every key their rotations might use -
    // the exact step set plus the generic power-of-two set (both
    // directions) - at the full margin-padded chain, so each key is also
    // bigger.
    FullSteps.insert(FullSteps.end(), State.RotationSteps.begin(),
                     State.RotationSteps.end());
    for (size_t S = 1; S < Ctx->slots(); S <<= 1) {
      FullSteps.push_back(static_cast<int64_t>(S));
      FullSteps.push_back(static_cast<int64_t>(Ctx->slots() - S));
    }
  }
  for (int64_t Step : FullSteps)
    ACE_RETURN_IF_ERROR(Declared(KeyCache->declareRotation(Step)));
  if (!State.Options.EnableRotationKeyAnalysis)
    return Status::success();
  // Level-aware key generation: each step's key truncates to the deepest
  // level the dataflow analysis saw it used at. Compute rotations sit far
  // below the bootstrap's raised levels, so their keys shrink
  // quadratically.
  for (int64_t Step : State.RotationSteps) {
    auto It = State.RotationStepMaxNumQ.find(Step);
    size_t MaxNumQ = It != State.RotationStepMaxNumQ.end()
                         ? It->second
                         : Ctx->chainLength();
    ACE_RETURN_IF_ERROR(Declared(KeyCache->declareRotation(Step, MaxNumQ)));
  }
  return Status::success();
}

size_t CkksExecutor::evalKeyBytes() const {
  return Keys.byteSize() + (KeyCache ? KeyCache->stats().ResidentBytes : 0);
}

size_t CkksExecutor::keyBytes() const {
  if (!Gen)
    return 0;
  return Gen->secretKey().byteSize() + Pub.byteSize() + evalKeyBytes();
}

size_t CkksExecutor::rotationKeyCount() const {
  return (KeyCache ? KeyCache->stats().DeclaredCount : 0) +
         (Keys.HasConjugate ? 1 : 0);
}

StatusOr<fhe::Ciphertext>
CkksExecutor::encryptInput(const nn::Tensor &Input) {
  if (!Encrypt)
    return Status::invalidArgument("executor: setup() not run");
  telemetry::TraceSpan Span("executor", "encrypt");
  const CipherLayout &L = State.InputLayout;
  std::vector<double> Slots(L.slotCount(), 0.0);
  double Inv = 1.0 / State.InputDataScale;
  if (Input.Shape.size() == 4) {
    size_t C = Input.Shape[1], H = Input.Shape[2], W = Input.Shape[3];
    if (Input.Values.size() < C * H * W)
      return Status::invalidArgument(
          "executor: input tensor holds " +
          std::to_string(Input.Values.size()) + " values but its shape " +
          std::to_string(C) + "x" + std::to_string(H) + "x" +
          std::to_string(W) + " needs " + std::to_string(C * H * W));
    // Channels map to disjoint slot sets (the layout is injective), so
    // the packing loop is parallel per channel.
    parallelFor(0, C, [&](size_t Cc) {
      for (size_t Hh = 0; Hh < H; ++Hh)
        for (size_t Ww = 0; Ww < W; ++Ww)
          Slots[L.slotOf(Cc, Hh, Ww)] =
              Input.Values[(Cc * H + Hh) * W + Ww] * Inv;
    });
  } else {
    for (size_t I = 0; I < Input.Values.size(); ++I)
      Slots[L.slotOf(0, 0, I)] = Input.Values[I] * Inv;
  }
  return Encrypt->checkedEncryptValues(*Enc, Slots, State.InputNumQ);
}

const Plaintext &CkksExecutor::encodedConst(const IrNode *ConstNode,
                                            const Ciphertext &For,
                                            bool ForMul) {
  double Scale = ForMul ? Eval->mulPlainScale(For) : For.Scale;
  auto Key = std::make_tuple(ConstNode->Id, For.numQ(),
                             static_cast<int64_t>(std::llround(
                                 std::log2(Scale) * 4096.0)));
  auto It = PlainCache.find(Key);
  if (It != PlainCache.end())
    return It->second;
  Plaintext P = Enc->encodeReal(ConstNode->Data, Scale, For.numQ());
  return PlainCache.emplace(Key, std::move(P)).first->second;
}

StatusOr<fhe::Ciphertext>
CkksExecutor::run(const Ciphertext &Input, const CancellationToken &Token) {
  CancellationScope Scope(Token);
  return run(Input);
}

StatusOr<fhe::Ciphertext> CkksExecutor::run(const Ciphertext &Input) {
  if (!Eval)
    return Status::invalidArgument("executor: setup() not run");
  // A fresh client input is always encrypted at the context scale with
  // the layout's packing; rejecting corrupted inputs here catches faults
  // (e.g. metadata drift) that a purely linear program would otherwise
  // carry through to wrong logits, because plaintext encoding adapts to
  // whatever scale the operand claims.
  ACE_RETURN_IF_ERROR(fhe::validateCiphertext(*Ctx, Input, "run input"));
  if (!fhe::scalesClose(Input.Scale, Ctx->scale()))
    return Status::scaleMismatch(
        fhe::scaleMismatchMessage("executor input", Input.Scale,
                                  Ctx->scale()) +
        "; fresh inputs must be encrypted at the context scale");
  telemetry::TraceSpan RunSpan("executor", "run");
  std::vector<Ciphertext> Values(Uses.LastReader.size());
  auto Value = [&](const IrNode *V) -> const Ciphertext & {
    assert(!Values[V->Id].Polys.empty() && "value read after its release");
    return Values[V->Id];
  };
  // Operand I of N: moved out when N reads it for the last time (at its
  // last operand slot, so x + x copies its first operand), copied
  // otherwise.
  auto Take = [&](const IrNode *N, size_t I) -> Ciphertext {
    const IrNode *Op = N->Operands[I];
    const Ciphertext &V = Value(Op);
    if (Uses.lastReadAt(Op, N) &&
        std::find(N->Operands.begin() + I + 1, N->Operands.end(), Op) ==
            N->Operands.end())
      return std::move(Values[Op->Id]);
    return V;
  };

  auto ConstOperand = [&](const IrNode *N) -> const IrNode * {
    // CkksEncode wraps a ConstVec.
    assert(N->Kind == NodeKind::NK_CkksEncode && "expected encode node");
    return N->Operands[0];
  };

  Ciphertext Result;
  bool HaveResult = false;
  // One region span per contiguous run of nodes with the same origin, so
  // a request records one span per layer stretch rather than per node.
  std::optional<telemetry::TraceSpan> Region;
  OriginKind RegionOrigin = OriginKind::OR_Other;
  for (const auto &NPtr : F.nodes()) {
    const IrNode *N = NPtr.get();
    if (N->Kind == NodeKind::NK_ConstVec ||
        N->Kind == NodeKind::NK_CkksEncode)
      continue; // materialized at use
    // Cooperative cancellation boundary: one poll per IR node, so a
    // cancelled or deadline-expired request costs at most one more CKKS
    // op before unwinding.
    ACE_RETURN_IF_ERROR(checkCancellation("executor"));
    if (!Region || N->Origin != RegionOrigin) {
      Region.reset();
      Region.emplace("region", originKindName(N->Origin));
      RegionOrigin = N->Origin;
    }
    switch (N->Kind) {
    case NodeKind::NK_Input:
      Values[N->Id] = Input;
      break;
    case NodeKind::NK_CkksRotate: {
      // Rotations that share an operand ciphertext (the baby steps of a
      // BSGS matvec) are served as one hoisted batch: one digit
      // decomposition for the whole group instead of one per rotation.
      // SSA guarantees the operand's value never changes, so the batch
      // runs at the first member and later members are already produced.
      if (Uses.servedByBatch(N))
        break;
      const Ciphertext &A = Value(N->Operands[0]);
      int64_t Slots = static_cast<int64_t>(A.Slots);
      if (Slots <= 0)
        return Status::invalidArgument(
            "executor rotate: operand reports " + std::to_string(Slots) +
            " slots");
      int64_t Step = ((N->rotationSteps() % Slots) + Slots) % Slots;
      const std::vector<const IrNode *> &Batch = Uses.BatchMembers[N->Id];
      if (!Batch.empty()) {
        std::vector<int64_t> Steps;
        Steps.reserve(Batch.size());
        for (const IrNode *Member : Batch)
          Steps.push_back(Member->rotationSteps());
        ACE_ASSIGN_OR_RETURN(std::vector<Ciphertext> Outs,
                             Eval->checkedRotateHoisted(A, Steps));
        for (size_t I = 0; I < Outs.size(); ++I)
          Values[Batch[I]->Id] = std::move(Outs[I]);
      } else if (State.Options.EnableRotationKeyAnalysis) {
        ACE_ASSIGN_OR_RETURN(Values[N->Id], Eval->checkedRotate(A, Step));
      } else {
        // Power-of-two key set only: decompose the step bit by bit (the
        // extra key switches are the Expert baseline's rotation cost).
        Ciphertext Cur = Take(N, 0);
        for (int64_t Bit = 1; Bit < Slots; Bit <<= 1) {
          if (Step & Bit) {
            ACE_ASSIGN_OR_RETURN(Cur, Eval->checkedRotate(Cur, Bit));
          }
        }
        Values[N->Id] = std::move(Cur);
      }
      break;
    }
    case NodeKind::NK_CkksMul: {
      const Ciphertext &A = Value(N->Operands[0]);
      if (N->Operands[1]->Type == TypeKind::TK_Plain) {
        ACE_RETURN_IF_ERROR(fhe::validateCiphertext(*Ctx, A, "mulPlain"));
        const Plaintext &P =
            encodedConst(ConstOperand(N->Operands[1]), A, /*ForMul=*/true);
        Ciphertext Prod = Take(N, 0);
        Eval->mulPlainInPlace(Prod, P);
        Values[N->Id] = std::move(Prod);
      } else {
        const Ciphertext &B = Value(N->Operands[1]);
        ACE_RETURN_IF_ERROR(fhe::validateCiphertext(*Ctx, A, "mul"));
        ACE_RETURN_IF_ERROR(fhe::validateCiphertext(*Ctx, B, "mul"));
        if (A.numQ() != B.numQ())
          return Status::levelMismatch(
              "executor mul: lhs at " + std::to_string(A.numQ()) +
              " active primes, rhs at " + std::to_string(B.numQ()) +
              " (the compiler should have inserted a modswitch)");
        if (!fhe::scalesClose(A.Scale, B.Scale))
          return Status::scaleMismatch(
              fhe::scaleMismatchMessage("executor mul", A.Scale, B.Scale));
        Values[N->Id] = Eval->mulNoRelin(A, B);
      }
      break;
    }
    case NodeKind::NK_CkksRelin: {
      ACE_ASSIGN_OR_RETURN(
          Values[N->Id], Eval->checkedRelinearize(Value(N->Operands[0])));
      break;
    }
    case NodeKind::NK_CkksMulConst: {
      const Ciphertext &A = Value(N->Operands[0]);
      ACE_ASSIGN_OR_RETURN(Values[N->Id],
                           Eval->checkedMulScalar(A, N->Scalar, A.Scale));
      break;
    }
    case NodeKind::NK_CkksAddConst: {
      ACE_ASSIGN_OR_RETURN(Values[N->Id],
                           Eval->checkedAddConst(Take(N, 0), N->Scalar));
      break;
    }
    case NodeKind::NK_CkksAdd: {
      Ciphertext A = Take(N, 0);
      if (N->Operands[1]->Type == TypeKind::TK_Plain) {
        ACE_RETURN_IF_ERROR(fhe::validateCiphertext(*Ctx, A, "addPlain"));
        const Plaintext &P = encodedConst(ConstOperand(N->Operands[1]), A,
                                          /*ForMul=*/false);
        Eval->addPlainInPlace(A, P);
        Values[N->Id] = std::move(A);
      } else {
        Ciphertext B = Take(N, 1);
        ACE_RETURN_IF_ERROR(Eval->checkedMatchForAdd(A, B));
        Eval->addInPlace(A, B);
        Values[N->Id] = std::move(A);
      }
      break;
    }
    case NodeKind::NK_CkksRescale: {
      ACE_ASSIGN_OR_RETURN(Values[N->Id], Eval->checkedRescale(Take(N, 0)));
      break;
    }
    case NodeKind::NK_CkksModSwitch: {
      ACE_ASSIGN_OR_RETURN(
          Values[N->Id],
          Eval->checkedModSwitchTo(Take(N, 0),
                                   static_cast<size_t>(N->Ints[0])));
      break;
    }
    case NodeKind::NK_CkksBootstrap: {
      if (!Boot)
        return Status::keyMissing(
            "executor bootstrap: program contains a bootstrap node but "
            "setup() generated no bootstrapping keys");
      ACE_ASSIGN_OR_RETURN(
          Values[N->Id],
          Boot->checkedBootstrap(Value(N->Operands[0]),
                                 static_cast<size_t>(N->BootstrapTarget)));
      break;
    }
    case NodeKind::NK_Return:
      Result = Take(N, 0);
      HaveResult = true;
      break;
    default:
      return Status::error(std::string("executor: unsupported node ") +
                           nodeKindName(N->Kind));
    }
    for (int Id : Uses.Released[N->Id])
      Values[Id] = Ciphertext();
  }
  Region.reset();
  if (!HaveResult)
    return Status::error("executor: program produced no result");
  if (telemetry::enabled()) {
    telemetry::Telemetry::instance().recordSnapshot("executor:run");
    telemetry::Telemetry::instance().sampleRss("rss");
  }
  return Result;
}

StatusOr<std::vector<double>>
CkksExecutor::decryptLogits(const Ciphertext &Output) {
  if (!Decrypt)
    return Status::invalidArgument("executor: setup() not run");
  telemetry::TraceSpan Span("executor", "decrypt");
  ACE_ASSIGN_OR_RETURN(std::vector<double> Slots,
                       Decrypt->checkedDecryptRealValues(*Enc, Output));
  const CipherLayout &L = State.OutputLayout;
  bool ChannelMode = L.C0 > 1;
  std::vector<double> Logits(State.OutputCount);
  for (int64_t K = 0; K < State.OutputCount; ++K) {
    size_t Slot = ChannelMode ? L.slotOf(K, 0, 0) : L.slotOf(0, 0, K);
    if (Slot >= Slots.size())
      return Status::invalidArgument(
          "executor: output layout maps logit " + std::to_string(K) +
          " to slot " + std::to_string(Slot) + " but the ciphertext holds " +
          std::to_string(Slots.size()));
    Logits[K] = Slots[Slot] * State.OutputDataScale;
  }
  return Logits;
}

StatusOr<std::vector<double>> CkksExecutor::infer(const nn::Tensor &Input) {
  ACE_ASSIGN_OR_RETURN(Ciphertext Ct, encryptInput(Input));
  auto Out = run(Ct);
  if (!Out.ok())
    return Out.status();
  return decryptLogits(*Out);
}
