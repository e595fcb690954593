//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "fhe/CApi.h"

#include "fhe/Bootstrapper.h"
#include "fhe/CApiInternal.h"
#include "fhe/Encryptor.h"
#include "fhe/Evaluator.h"
#include "fhe/PolyBackend.h"
#include "fhe/Serializer.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

using namespace ace;
using namespace ace::fhe;

//===----------------------------------------------------------------------===//
// Thread-local error channel
//===----------------------------------------------------------------------===//

namespace {
thread_local AceErrorCode LastErrorCode = ACE_OK;
thread_local std::string LastErrorMessage;

AceErrorCode toCCode(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::Ok:
    return ACE_OK;
  case ErrorCode::InvalidArgument:
    return ACE_ERR_INVALID_ARGUMENT;
  case ErrorCode::LevelMismatch:
    return ACE_ERR_LEVEL_MISMATCH;
  case ErrorCode::ScaleMismatch:
    return ACE_ERR_SCALE_MISMATCH;
  case ErrorCode::KeyMissing:
    return ACE_ERR_KEY_MISSING;
  case ErrorCode::DepthExhausted:
    return ACE_ERR_DEPTH_EXHAUSTED;
  case ErrorCode::ResourceExhausted:
    return ACE_ERR_RESOURCE_EXHAUSTED;
  case ErrorCode::Internal:
    return ACE_ERR_INTERNAL;
  case ErrorCode::DataCorrupt:
    return ACE_ERR_DATA_CORRUPT;
  case ErrorCode::IoError:
    return ACE_ERR_IO;
  case ErrorCode::Cancelled:
    return ACE_ERR_CANCELLED;
  case ErrorCode::DeadlineExceeded:
    return ACE_ERR_DEADLINE_EXCEEDED;
  }
  return ACE_ERR_INTERNAL;
}

void setLastError(const Status &S) {
  LastErrorCode = toCCode(S.code());
  LastErrorMessage = S.message();
}

void setLastError(AceErrorCode Code, std::string Message) {
  LastErrorCode = Code;
  LastErrorMessage = std::move(Message);
}
} // namespace

AceErrorCode ace::capi::toCErrorCode(ErrorCode Code) {
  return toCCode(Code);
}

void ace::capi::setLastStatus(const Status &S) { setLastError(S); }

void ace::capi::setLastErrorCode(AceErrorCode Code, std::string Message) {
  setLastError(Code, std::move(Message));
}

AceErrorCode ace_last_error(void) { return LastErrorCode; }

const char *ace_last_error_message(void) {
  return LastErrorMessage.c_str();
}

void ace_clear_error(void) {
  LastErrorCode = ACE_OK;
  LastErrorMessage.clear();
}

//===----------------------------------------------------------------------===//
// Handles
//===----------------------------------------------------------------------===//

// Handle structs carry a magic tag so use-after-free and garbage pointers
// are detected best-effort instead of corrupting memory.
namespace {
constexpr uint32_t kContextMagic = 0xACEC0DE1u;
constexpr uint32_t kCipherMagic = 0xACEC0DE2u;
constexpr uint32_t kDeadMagic = 0xDEADC0DEu;
} // namespace

/// The C context bundles the whole runtime.
struct AceFheContext {
  uint32_t Magic = kContextMagic;
  std::unique_ptr<Context> Ctx;
  std::unique_ptr<Encoder> Enc;
  std::unique_ptr<KeyGenerator> Gen;
  /// Every rotation/Galois key: declared by ace_keygen, adopted by
  /// ace_key_load.
  std::unique_ptr<RotationKeyCache> Cache;
  PublicKey Pub;
  EvalKeys Keys;
  std::unique_ptr<Evaluator> Eval;
  std::unique_ptr<Bootstrapper> Boot;
  std::unique_ptr<Encryptor> Encrypt;
  std::unique_ptr<Decryptor> Decrypt;
};

struct AceFheCiphertext {
  uint32_t Magic = kCipherMagic;
  Ciphertext Ct;
};

namespace {
bool validContext(const AceFheContext *Ctx, const char *What) {
  if (Ctx && Ctx->Magic == kContextMagic)
    return true;
  setLastError(ACE_ERR_INVALID_ARGUMENT,
               std::string(What) +
                   ": null, freed, or corrupted context handle");
  return false;
}

/// A ciphertext operand must be a live handle whose polynomials are
/// bound to \p C: the evaluator would otherwise run on another Context's
/// polynomials. \p C must already be a valid context.
bool validCipher(const AceFheContext *C, const AceFheCiphertext *Ct,
                 const char *What) {
  if (!Ct || Ct->Magic != kCipherMagic) {
    setLastError(ACE_ERR_INVALID_ARGUMENT,
                 std::string(What) +
                     ": null, freed, or corrupted ciphertext handle");
    return false;
  }
  const std::vector<RnsPoly> &Polys = Ct->Ct.Polys;
  if (!Polys.empty() &&
      std::all_of(Polys.begin(), Polys.end(), [&](const RnsPoly &P) {
        return P.bound() && &P.context() == C->Ctx.get();
      }))
    return true;
  std::string Message =
      std::string(What) + ": ciphertext does not belong to this context";
  if (Ct->Ct.Slots != C->Ctx->slots())
    Message += " (" + std::to_string(Ct->Ct.Slots) +
               " slots; this context has " +
               std::to_string(C->Ctx->slots()) + ")";
  setLastError(ACE_ERR_INVALID_ARGUMENT, Message);
  return false;
}

/// Wraps a checked-evaluator result into a fresh handle, or records the
/// error and returns NULL.
AceFheCiphertext *wrapResult(StatusOr<Ciphertext> Result) {
  if (!Result.ok()) {
    setLastError(Result.status());
    return nullptr;
  }
  return new AceFheCiphertext{kCipherMagic, Result.take()};
}
} // namespace

//===----------------------------------------------------------------------===//
// Context lifecycle
//===----------------------------------------------------------------------===//

AceFheContext *ace_create(size_t RingDegree, size_t Slots, int LogScale,
                          int LogQ0, int NumRescale, int LogSpecial,
                          int SparseSecret, uint64_t Seed) {
  CkksParams P;
  P.RingDegree = RingDegree;
  P.Slots = Slots;
  P.LogScale = LogScale;
  P.LogFirstModulus = LogQ0;
  P.NumRescaleModuli = NumRescale;
  P.LogSpecialModulus = LogSpecial;
  P.SparseSecret = SparseSecret != 0;
  P.Seed = Seed;
  if (!P.valid()) {
    setLastError(ACE_ERR_INVALID_ARGUMENT,
                 "create: invalid parameters: ring degree " +
                     std::to_string(RingDegree) + ", " +
                     std::to_string(Slots) + " slots, log scale " +
                     std::to_string(LogScale) + ", log q0 " +
                     std::to_string(LogQ0) + ", " +
                     std::to_string(NumRescale) +
                     " rescale primes, log special " +
                     std::to_string(LogSpecial));
    return nullptr;
  }
  auto *C = new AceFheContext();
  C->Ctx = std::make_unique<Context>(P);
  C->Enc = std::make_unique<Encoder>(*C->Ctx);
  C->Gen = std::make_unique<KeyGenerator>(*C->Ctx);
  C->Pub = C->Gen->makePublicKey();
  C->Cache = std::make_unique<RotationKeyCache>(*C->Ctx, *C->Gen);
  C->Eval = std::make_unique<Evaluator>(*C->Ctx, *C->Enc, C->Keys, *C->Cache);
  C->Encrypt = std::make_unique<Encryptor>(*C->Ctx, C->Pub);
  C->Decrypt = std::make_unique<Decryptor>(*C->Ctx, C->Gen->secretKey());
  return C;
}

void ace_destroy(AceFheContext *Ctx) {
  if (!Ctx)
    return;
  Ctx->Magic = kDeadMagic;
  delete Ctx;
}

int ace_keygen(AceFheContext *C, const int64_t *Steps,
               const size_t *StepMaxQ, size_t NSteps, int NeedRelin,
               int NeedConj, int Bootstrap) {
  if (!validContext(C, "keygen"))
    return ACE_ERR_INVALID_ARGUMENT;
  if (NSteps > 0 && !Steps) {
    setLastError(ACE_ERR_INVALID_ARGUMENT,
                 "keygen: " + std::to_string(NSteps) +
                     " rotation steps requested but the step array is "
                     "NULL");
    return ACE_ERR_INVALID_ARGUMENT;
  }
  auto MakeRelinConj = [&](bool Relin, bool Conj) {
    if (Relin && !C->Keys.HasRelin) {
      C->Keys.Relin = C->Gen->makeRelinKey();
      C->Keys.HasRelin = true;
    }
    if (Conj && !C->Keys.HasConjugate) {
      C->Keys.Conjugate = C->Gen->makeConjugationKey();
      C->Keys.HasConjugate = true;
    }
  };
  // Each key is generated as it is declared, and held until keygen
  // returns: a key set over the memory budget fails here instead of
  // evicting this call's own keys.
  std::vector<std::shared_ptr<const SwitchKey>> Pins;
  Status S = [&]() -> Status {
    if (Bootstrap) {
      C->Boot = std::make_unique<Bootstrapper>(*C->Eval);
      MakeRelinConj(NeedRelin != 0, /*Conj=*/true);
      for (int64_t Step : C->Boot->requiredRotations())
        ACE_RETURN_IF_ERROR(C->Eval->materializeGaloisKey(
            C->Cache->declareRotation(Step), 0, Pins));
      for (uint64_t Galois : C->Boot->requiredGaloisElements()) {
        C->Cache->declareGalois(Galois);
        ACE_RETURN_IF_ERROR(C->Eval->materializeGaloisKey(Galois, 0, Pins));
      }
    }
    for (size_t I = 0; I < NSteps; ++I)
      ACE_RETURN_IF_ERROR(C->Eval->materializeGaloisKey(
          C->Cache->declareRotation(Steps[I], StepMaxQ ? StepMaxQ[I] : 0), 0,
          Pins));
    MakeRelinConj(NeedRelin != 0, NeedConj != 0);
    return Status::success();
  }();
  if (!S.ok()) {
    setLastError(S);
    return toCCode(S.code());
  }
  return ACE_OK;
}

//===----------------------------------------------------------------------===//
// Encrypt / decrypt
//===----------------------------------------------------------------------===//

AceFheCiphertext *ace_encrypt(AceFheContext *C, const double *Slots,
                              size_t N, size_t NumQ) {
  if (!validContext(C, "encrypt"))
    return nullptr;
  if (N > 0 && !Slots) {
    setLastError(ACE_ERR_INVALID_ARGUMENT,
                 "encrypt: NULL slot array with " + std::to_string(N) +
                     " values");
    return nullptr;
  }
  std::vector<double> V(Slots, Slots + N);
  auto R = C->Encrypt->checkedEncryptValues(*C->Enc, V, NumQ);
  // Postcondition: a fresh encryption is always at the context scale. In a
  // generated program every ciphertext derives from the inputs encrypted
  // here, and downstream plaintext encodes adapt to the operand's recorded
  // scale — so a corrupted input scale would flow through a purely linear
  // pipeline undetected. This boundary is the only place it can be caught.
  if (R.ok() && !scalesClose(R->Scale, C->Ctx->scale())) {
    setLastError(ACE_ERR_SCALE_MISMATCH,
                 scaleMismatchMessage("encrypt", R->Scale, C->Ctx->scale()) +
                     "; a fresh ciphertext must be at the context scale "
                     "(corrupted metadata?)");
    return nullptr;
  }
  return wrapResult(std::move(R));
}

int ace_decrypt(AceFheContext *C, const AceFheCiphertext *Ct, double *Out,
                size_t N) {
  if (!validContext(C, "decrypt") || !validCipher(C, Ct, "decrypt"))
    return ACE_ERR_INVALID_ARGUMENT;
  if (N > 0 && !Out) {
    setLastError(ACE_ERR_INVALID_ARGUMENT,
                 "decrypt: NULL output array with " + std::to_string(N) +
                     " slots requested");
    return ACE_ERR_INVALID_ARGUMENT;
  }
  auto V = C->Decrypt->checkedDecryptRealValues(*C->Enc, Ct->Ct);
  if (!V.ok()) {
    setLastError(V.status());
    return toCCode(V.status().code());
  }
  for (size_t I = 0; I < N && I < V->size(); ++I)
    Out[I] = (*V)[I];
  return ACE_OK;
}

void ace_ct_free(AceFheCiphertext *Ct) {
  if (!Ct)
    return;
  Ct->Magic = kDeadMagic;
  delete Ct;
}

//===----------------------------------------------------------------------===//
// Homomorphic operations
//===----------------------------------------------------------------------===//

AceFheCiphertext *ace_rotate(AceFheContext *C, const AceFheCiphertext *A,
                             int64_t Steps) {
  if (!validContext(C, "rotate") || !validCipher(C, A, "rotate"))
    return nullptr;
  return wrapResult(C->Eval->checkedRotate(A->Ct, Steps));
}

AceFheCiphertext *ace_add(AceFheContext *C, const AceFheCiphertext *A,
                          const AceFheCiphertext *B) {
  if (!validContext(C, "add") || !validCipher(C, A, "add") ||
      !validCipher(C, B, "add"))
    return nullptr;
  return wrapResult(C->Eval->checkedAdd(A->Ct, B->Ct));
}

AceFheCiphertext *ace_sub(AceFheContext *C, const AceFheCiphertext *A,
                          const AceFheCiphertext *B) {
  if (!validContext(C, "sub") || !validCipher(C, A, "sub") ||
      !validCipher(C, B, "sub"))
    return nullptr;
  return wrapResult(C->Eval->checkedSub(A->Ct, B->Ct));
}

AceFheCiphertext *ace_mul(AceFheContext *C, const AceFheCiphertext *A,
                          const AceFheCiphertext *B) {
  if (!validContext(C, "mul") || !validCipher(C, A, "mul") ||
      !validCipher(C, B, "mul"))
    return nullptr;
  return wrapResult(C->Eval->checkedMul(A->Ct, B->Ct));
}

AceFheCiphertext *ace_mul_plain(AceFheContext *C, const AceFheCiphertext *A,
                                const double *Vec, size_t N) {
  if (!validContext(C, "mul_plain") || !validCipher(C, A, "mul_plain"))
    return nullptr;
  if (N > 0 && !Vec) {
    setLastError(ACE_ERR_INVALID_ARGUMENT,
                 "mul_plain: NULL plaintext vector with " +
                     std::to_string(N) + " values");
    return nullptr;
  }
  std::vector<double> V(Vec, Vec + N);
  return wrapResult(C->Eval->checkedMulPlain(A->Ct, V));
}

AceFheCiphertext *ace_add_plain(AceFheContext *C, const AceFheCiphertext *A,
                                const double *Vec, size_t N) {
  if (!validContext(C, "add_plain") || !validCipher(C, A, "add_plain"))
    return nullptr;
  if (N > 0 && !Vec) {
    setLastError(ACE_ERR_INVALID_ARGUMENT,
                 "add_plain: NULL plaintext vector with " +
                     std::to_string(N) + " values");
    return nullptr;
  }
  std::vector<double> V(Vec, Vec + N);
  return wrapResult(C->Eval->checkedAddPlain(A->Ct, V));
}

AceFheCiphertext *ace_mul_const(AceFheContext *C, const AceFheCiphertext *A,
                                double Value) {
  if (!validContext(C, "mul_const") || !validCipher(C, A, "mul_const"))
    return nullptr;
  return wrapResult(
      C->Eval->checkedMulScalar(A->Ct, Value, A->Ct.Scale));
}

AceFheCiphertext *ace_add_const(AceFheContext *C, const AceFheCiphertext *A,
                                double Value) {
  if (!validContext(C, "add_const") || !validCipher(C, A, "add_const"))
    return nullptr;
  return wrapResult(C->Eval->checkedAddConst(A->Ct, Value));
}

AceFheCiphertext *ace_rescale(AceFheContext *C, const AceFheCiphertext *A) {
  if (!validContext(C, "rescale") || !validCipher(C, A, "rescale"))
    return nullptr;
  return wrapResult(C->Eval->checkedRescale(A->Ct));
}

AceFheCiphertext *ace_modswitch_to(AceFheContext *C,
                                   const AceFheCiphertext *A, size_t NumQ) {
  if (!validContext(C, "modswitch") || !validCipher(C, A, "modswitch"))
    return nullptr;
  return wrapResult(C->Eval->checkedModSwitchTo(A->Ct, NumQ));
}

AceFheCiphertext *ace_bootstrap(AceFheContext *C, const AceFheCiphertext *A,
                                size_t Target) {
  if (!validContext(C, "bootstrap") || !validCipher(C, A, "bootstrap"))
    return nullptr;
  if (!C->Boot) {
    setLastError(ACE_ERR_KEY_MISSING,
                 "bootstrap: bootstrapping keys not generated (keygen "
                 "was called without the bootstrap flag)");
    return nullptr;
  }
  return wrapResult(C->Boot->checkedBootstrap(A->Ct, Target));
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {
/// Opens \p Path for binary writing, reporting IoError through the error
/// channel on failure.
bool openForWrite(const char *Path, const char *What, std::ofstream &OS) {
  if (!Path) {
    setLastError(ACE_ERR_INVALID_ARGUMENT, std::string(What) + ": NULL path");
    return false;
  }
  OS.open(Path, std::ios::binary | std::ios::trunc);
  if (!OS) {
    setLastError(ACE_ERR_IO, std::string(What) + ": cannot open '" + Path +
                                 "' for writing");
    return false;
  }
  return true;
}

bool openForRead(const char *Path, const char *What, std::ifstream &IS) {
  if (!Path) {
    setLastError(ACE_ERR_INVALID_ARGUMENT, std::string(What) + ": NULL path");
    return false;
  }
  IS.open(Path, std::ios::binary);
  if (!IS) {
    setLastError(ACE_ERR_IO, std::string(What) + ": cannot open '" + Path +
                                 "' for reading");
    return false;
  }
  return true;
}

} // namespace

int ace_params_save(AceFheContext *C, const char *Path) {
  if (!validContext(C, "params_save"))
    return ACE_ERR_INVALID_ARGUMENT;
  std::ofstream OS;
  if (!openForWrite(Path, "params_save", OS))
    return ace_last_error();
  Status S = wire::save(C->Ctx->params(), OS);
  if (!S.ok()) {
    setLastError(S);
    return toCCode(S.code());
  }
  return ACE_OK;
}

AceFheContext *ace_params_load(const char *Path) {
  std::ifstream IS;
  if (!openForRead(Path, "params_load", IS))
    return nullptr;
  StatusOr<CkksParams> P = wire::loadParams(IS);
  if (!P.ok()) {
    setLastError(P.status());
    return nullptr;
  }
  return ace_create(P->RingDegree, P->Slots, P->LogScale,
                    P->LogFirstModulus, P->NumRescaleModuli,
                    P->LogSpecialModulus, P->SparseSecret ? 1 : 0, P->Seed);
}

int ace_ct_save(AceFheContext *C, const AceFheCiphertext *Ct,
                const char *Path) {
  // A foreign ciphertext would be certified against the wrong parameters
  // by the validation baked into the wire format.
  if (!validContext(C, "ct_save") || !validCipher(C, Ct, "ct_save"))
    return ACE_ERR_INVALID_ARGUMENT;
  std::ofstream OS;
  if (!openForWrite(Path, "ct_save", OS))
    return ace_last_error();
  Status S = wire::save(Ct->Ct, OS);
  if (!S.ok()) {
    setLastError(S);
    return toCCode(S.code());
  }
  return ACE_OK;
}

AceFheCiphertext *ace_ct_load(AceFheContext *C, const char *Path) {
  if (!validContext(C, "ct_load"))
    return nullptr;
  std::ifstream IS;
  if (!openForRead(Path, "ct_load", IS))
    return nullptr;
  StatusOr<Ciphertext> Ct = wire::loadCiphertext(*C->Ctx, IS);
  if (!Ct.ok()) {
    setLastError(Ct.status());
    return nullptr;
  }
  return new AceFheCiphertext{kCipherMagic, Ct.take()};
}

int ace_key_save(AceFheContext *C, const char *Path) {
  if (!validContext(C, "key_save"))
    return ACE_ERR_INVALID_ARGUMENT;
  std::ofstream OS;
  if (!openForWrite(Path, "key_save", OS))
    return ace_last_error();
  // The wire form carries every declared rotation key in the Rotations
  // map, which the context's own key set otherwise leaves empty.
  Status S = C->Cache->exportKeys(C->Keys.Rotations);
  if (S.ok())
    S = wire::save(C->Pub, OS);
  if (S.ok())
    S = wire::save(C->Keys, OS);
  C->Keys.Rotations.clear();
  if (!S.ok()) {
    setLastError(S);
    return toCCode(S.code());
  }
  return ACE_OK;
}

int ace_key_load(AceFheContext *C, const char *Path) {
  if (!validContext(C, "key_load"))
    return ACE_ERR_INVALID_ARGUMENT;
  std::ifstream IS;
  if (!openForRead(Path, "key_load", IS))
    return ace_last_error();
  StatusOr<PublicKey> Pub = wire::loadPublicKey(*C->Ctx, IS);
  if (!Pub.ok()) {
    setLastError(Pub.status());
    return toCCode(Pub.status().code());
  }
  StatusOr<EvalKeys> Keys = wire::loadEvalKeys(*C->Ctx, IS);
  if (!Keys.ok()) {
    setLastError(Keys.status());
    return toCCode(Keys.status().code());
  }
  // Both objects parsed: only now mutate the context. Encryptor holds a
  // reference to Pub and Evaluator to Keys, so in-place assignment
  // retargets them; the loaded rotation keys replace every declaration.
  C->Pub = Pub.take();
  C->Keys = Keys.take();
  C->Cache->adoptKeys(std::move(C->Keys.Rotations));
  C->Keys.Rotations.clear();
  return ACE_OK;
}

//===----------------------------------------------------------------------===//
// Weights
//===----------------------------------------------------------------------===//

double *ace_load_weights(const char *Path, size_t *Count) {
  if (!Path) {
    setLastError(ACE_ERR_INVALID_ARGUMENT,
                 "load_weights: NULL path");
    return nullptr;
  }
  FILE *F = std::fopen(Path, "rb");
  if (!F) {
    setLastError(ACE_ERR_INVALID_ARGUMENT,
                 std::string("load_weights: cannot open '") + Path + "'");
    return nullptr;
  }
  std::fseek(F, 0, SEEK_END);
  long Bytes = std::ftell(F);
  std::fseek(F, 0, SEEK_SET);
  size_t N = static_cast<size_t>(Bytes) / sizeof(double);
  double *Data = static_cast<double *>(std::malloc(N * sizeof(double)));
  if (!Data) {
    std::fclose(F);
    setLastError(ACE_ERR_RESOURCE_EXHAUSTED,
                 "load_weights: cannot allocate " +
                     std::to_string(N * sizeof(double)) + " bytes");
    return nullptr;
  }
  size_t Read = std::fread(Data, sizeof(double), N, F);
  std::fclose(F);
  if (Count)
    *Count = Read;
  return Data;
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

void ace_telemetry_enable(int On) {
  telemetry::Telemetry::instance().setEnabled(On != 0);
}

char *ace_telemetry_report(int AsJson) {
  std::string R =
      telemetry::Telemetry::instance().reportString(AsJson != 0);
  char *Out = static_cast<char *>(std::malloc(R.size() + 1));
  if (!Out) {
    setLastError(ACE_ERR_RESOURCE_EXHAUSTED,
                 "telemetry_report: cannot allocate report buffer");
    return nullptr;
  }
  std::memcpy(Out, R.c_str(), R.size() + 1);
  return Out;
}

//===----------------------------------------------------------------------===//
// Poly-ops kernel backend
//===----------------------------------------------------------------------===//

int ace_set_poly_backend(const char *Name) {
  if (!Name) {
    setLastError(ACE_ERR_INVALID_ARGUMENT,
                 "set_poly_backend: null backend name");
    return ACE_ERR_INVALID_ARGUMENT;
  }
  if (Status S = selectPolyBackend(Name)) {
    setLastError(S);
    return ace_last_error();
  }
  return ACE_OK;
}

const char *ace_poly_backend(void) { return activePolyBackendName(); }
