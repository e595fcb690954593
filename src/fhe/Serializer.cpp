//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
//
// Wire format implementation. Layout notes live in docs/serialization.md;
// the invariants enforced here are:
//
//  * no payload field is interpreted before the CRC over the whole
//    payload has been verified;
//  * no allocation is sized from a wire length field before that field
//    has been checked against the context-derived cap (maxPayloadBytes)
//    or range (prime counts, part counts, rotation counts);
//  * every residue is validated against its modulus, so a loaded
//    polynomial always satisfies the arithmetic layer's preconditions;
//  * a failed parse returns a Status naming the offending field and
//    offset - it never asserts, throws, or leaves partially initialized
//    objects behind.
//
//===----------------------------------------------------------------------===//

#include "fhe/Serializer.h"

#include "support/ByteReader.h"
#include "support/ByteWriter.h"
#include "support/Crc32c.h"
#include "support/FaultInjector.h"
#include "support/Telemetry.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>

using namespace ace;
using namespace ace::fhe;
using namespace ace::fhe::wire;

const char *ace::fhe::wire::objectTagName(ObjectTag Tag) {
  switch (Tag) {
  case ObjectTag::Params:
    return "params";
  case ObjectTag::Plaintext:
    return "plaintext";
  case ObjectTag::Ciphertext:
    return "ciphertext";
  case ObjectTag::PublicKey:
    return "public-key";
  case ObjectTag::SecretKey:
    return "secret-key";
  case ObjectTag::SwitchKey:
    return "switch-key";
  case ObjectTag::EvalKeys:
    return "eval-keys";
  }
  return "unknown";
}

namespace {

//===----------------------------------------------------------------------===//
// Size bounds
//===----------------------------------------------------------------------===//

/// Serialized size bound of one polynomial: prime count (2) + flags (2) +
/// residues over the whole chain plus the special primes.
uint64_t polyMaxBytes(const Context &Ctx) {
  return 4 + static_cast<uint64_t>(Ctx.chainLength() + Ctx.numSpecial()) *
                 Ctx.degree() * 8;
}

/// Serialized size bound of one switch key: part count (4) + one
/// polynomial pair per decomposition digit of the full chain.
uint64_t switchKeyMaxBytes(const Context &Ctx) {
  return 4 + static_cast<uint64_t>(
                 Ctx.keySwitch().digits(Ctx.chainLength())) *
                 2 * polyMaxBytes(Ctx);
}

} // namespace

uint64_t ace::fhe::wire::maxPayloadBytes(ObjectTag Tag, const Context *Ctx) {
  switch (Tag) {
  case ObjectTag::Params:
    return 64;
  case ObjectTag::Plaintext:
    return polyMaxBytes(*Ctx) + 16;
  case ObjectTag::Ciphertext:
    return 1 + 3 * polyMaxBytes(*Ctx) + 16;
  case ObjectTag::PublicKey:
    return 2 * polyMaxBytes(*Ctx);
  case ObjectTag::SecretKey:
    return polyMaxBytes(*Ctx);
  case ObjectTag::SwitchKey:
    return switchKeyMaxBytes(*Ctx);
  case ObjectTag::EvalKeys:
    // Relin + conjugation + at most degree() distinct odd Galois elements
    // below 2N, each with an 8-byte element and a switch key.
    return 2 + 2 * switchKeyMaxBytes(*Ctx) + 4 +
           static_cast<uint64_t>(Ctx->degree()) *
               (8 + switchKeyMaxBytes(*Ctx));
  }
  return 0;
}

namespace {

//===----------------------------------------------------------------------===//
// Payload writers
//===----------------------------------------------------------------------===//

void writePoly(ByteWriter &W, const RnsPoly &P) {
  const Context &Ctx = P.context();
  W.u16(static_cast<uint16_t>(P.numQ()));
  W.u8(static_cast<uint8_t>(P.numSpecial()));
  W.u8(P.isNtt() ? 1 : 0);
  size_t N = Ctx.degree();
  for (size_t I = 0, E = P.numComponents(); I < E; ++I) {
    const uint64_t *Comp = P.component(I);
    if constexpr (std::endian::native == std::endian::little) {
      W.bytes(Comp, N * sizeof(uint64_t));
    } else {
      for (size_t J = 0; J < N; ++J)
        W.u64(Comp[J]);
    }
  }
}

void writeParamsPayload(ByteWriter &W, const CkksParams &P) {
  W.u64(P.RingDegree);
  W.u64(P.Slots);
  W.i32(P.LogScale);
  W.i32(P.LogFirstModulus);
  W.i32(P.NumRescaleModuli);
  W.i32(P.LogSpecialModulus);
  W.u8(P.SparseSecret ? 1 : 0);
  W.u64(P.Seed);
}

void writeSwitchKeyBody(ByteWriter &W, const SwitchKey &K) {
  W.u32(static_cast<uint32_t>(K.Parts.size()));
  for (const auto &Part : K.Parts) {
    writePoly(W, Part.first);
    writePoly(W, Part.second);
  }
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

Status countSerialized(size_t Bytes) {
  if (telemetry::enabled())
    telemetry::Telemetry::instance().count(
        telemetry::Counter::BytesSerialized, Bytes);
  return Status::success();
}

/// Appends header + payload for \p Tag to \p Out. The ChecksumCorrupt
/// fault flips the CRC as it is written, so a subsequent load of these
/// bytes must fail verification cleanly.
Status writeFramed(ObjectTag Tag, const std::vector<uint8_t> &Payload,
                   std::vector<uint8_t> &Out) {
  ByteWriter W(Out);
  W.u32(kMagic);
  W.u16(kFormatVersion);
  W.u8(static_cast<uint8_t>(Tag));
  W.u8(0); // flags, reserved: must be zero in version 1
  W.u64(Payload.size());
  uint32_t Crc = crc32c(Payload.data(), Payload.size());
  FaultInjector &FI = FaultInjector::instance();
  if (FI.enabled() && FI.shouldFire(FaultKind::ChecksumCorrupt))
    Crc ^= 0x5A5A5A5Au;
  W.u32(Crc);
  W.bytes(Payload.data(), Payload.size());
  return countSerialized(kHeaderBytes + Payload.size());
}

/// Writes one framed object to \p OS, honoring the ShortWrite fault by
/// stopping mid-frame (the stream then holds a truncated object and the
/// caller gets an IoError, exactly as with a real interrupted write).
Status writeFramedStream(ObjectTag Tag, const std::vector<uint8_t> &Payload,
                         std::ostream &OS) {
  std::vector<uint8_t> Frame;
  Frame.reserve(kHeaderBytes + Payload.size());
  ACE_RETURN_IF_ERROR(writeFramed(Tag, Payload, Frame));
  size_t WriteBytes = Frame.size();
  FaultInjector &FI = FaultInjector::instance();
  if (FI.enabled() && FI.shouldFire(FaultKind::ShortWrite))
    WriteBytes /= 2;
  OS.write(reinterpret_cast<const char *>(Frame.data()),
           static_cast<std::streamsize>(WriteBytes));
  OS.flush();
  if (!OS || WriteBytes != Frame.size())
    return Status::ioError(std::string("short write: stored ") +
                           std::to_string(WriteBytes) + " of " +
                           std::to_string(Frame.size()) + " bytes of " +
                           objectTagName(Tag) + " object");
  return Status::success();
}

template <typename BuildFn>
Status saveObject(ObjectTag Tag, std::vector<uint8_t> &Out, BuildFn &&Build) {
  telemetry::TraceSpan Span("wire",
                            std::string("save:") + objectTagName(Tag));
  std::vector<uint8_t> Payload;
  ByteWriter W(Payload);
  ACE_RETURN_IF_ERROR(Build(W));
  return writeFramed(Tag, Payload, Out);
}

template <typename BuildFn>
Status saveObject(ObjectTag Tag, std::ostream &OS, BuildFn &&Build) {
  telemetry::TraceSpan Span("wire",
                            std::string("save:") + objectTagName(Tag));
  std::vector<uint8_t> Payload;
  ByteWriter W(Payload);
  ACE_RETURN_IF_ERROR(Build(W));
  return writeFramedStream(Tag, Payload, OS);
}

//===----------------------------------------------------------------------===//
// Header parsing
//===----------------------------------------------------------------------===//

struct Header {
  uint16_t Version = 0;
  ObjectTag Tag = ObjectTag::Params;
  uint64_t PayloadLen = 0;
  uint32_t Crc = 0;
};

Status truncatedAt(const ByteReader &R, const char *Field) {
  return Status::dataCorrupt(std::string("truncated payload: ran out of "
                                         "bytes at offset ") +
                             std::to_string(R.offset()) + " while reading " +
                             Field);
}

/// Parses and fully validates the 20-byte frame header. \p Ctx is null
/// only for Params objects, whose cap needs no context.
Status parseHeader(ByteReader &R, ObjectTag Expected, const Context *Ctx,
                   Header &H) {
  if (R.remaining() < kHeaderBytes)
    return Status::dataCorrupt(
        "truncated header: " + std::to_string(R.remaining()) +
        " bytes, a serialized object starts with a " +
        std::to_string(kHeaderBytes) + "-byte header");
  uint32_t Magic = 0;
  R.u32(Magic);
  if (Magic != kMagic) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "bad magic 0x%08X", Magic);
    return Status::dataCorrupt(std::string(Buf) +
                               ": not an ACE wire-format object");
  }
  R.u16(H.Version);
  if (H.Version == 0 || H.Version > kFormatVersion)
    return Status::dataCorrupt(
        "unsupported format version " + std::to_string(H.Version) +
        " (this build reads versions 1.." +
        std::to_string(kFormatVersion) + ")");
  uint8_t TagByte = 0, Flags = 0;
  R.u8(TagByte);
  R.u8(Flags);
  if (TagByte < static_cast<uint8_t>(ObjectTag::Params) ||
      TagByte > static_cast<uint8_t>(ObjectTag::EvalKeys))
    return Status::dataCorrupt("unknown object tag " +
                               std::to_string(TagByte));
  H.Tag = static_cast<ObjectTag>(TagByte);
  if (H.Tag != Expected)
    return Status::dataCorrupt(std::string("object tag mismatch: found a ") +
                               objectTagName(H.Tag) + " object, expected " +
                               objectTagName(Expected));
  if (Flags != 0)
    return Status::dataCorrupt("unsupported header flags " +
                               std::to_string(Flags) +
                               " (must be zero in version 1)");
  R.u64(H.PayloadLen);
  R.u32(H.Crc);
  uint64_t Cap = maxPayloadBytes(Expected, Ctx);
  if (H.PayloadLen > Cap)
    return Status::resourceExhausted(
        "payload length " + std::to_string(H.PayloadLen) +
        " exceeds the maximum " + std::to_string(Cap) + " for a " +
        objectTagName(Expected) +
        " object under these parameters; refusing to allocate");
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Payload parsers
//===----------------------------------------------------------------------===//

StatusOr<RnsPoly> parsePoly(const Context &Ctx, ByteReader &R,
                            const char *What) {
  uint16_t NumQ = 0;
  uint8_t NumSpecial = 0, NttForm = 0;
  if (!R.u16(NumQ))
    return truncatedAt(R, "polynomial prime count");
  if (!R.u8(NumSpecial) || !R.u8(NttForm))
    return truncatedAt(R, "polynomial flags");
  if (NumQ < 1 || NumQ > Ctx.chainLength())
    return Status::dataCorrupt(
        std::string(What) + ": polynomial declares " +
        std::to_string(NumQ) + " chain primes, context holds 1.." +
        std::to_string(Ctx.chainLength()));
  if (NumSpecial != 0 && NumSpecial != Ctx.numSpecial())
    return Status::dataCorrupt(
        std::string(What) + ": polynomial declares " +
        std::to_string(NumSpecial) +
        " special-prime components, this context's key switching uses " +
        std::to_string(Ctx.numSpecial()) + " (or 0)");
  if (NttForm > 1)
    return Status::dataCorrupt(std::string(What) +
                               ": polynomial flag byte is not 0 or 1");
  RnsPoly P(Ctx, NumQ, NumSpecial != 0, NttForm != 0);
  size_t N = Ctx.degree();
  for (size_t I = 0, E = P.numComponents(); I < E; ++I) {
    uint64_t *Comp = P.component(I);
    if (!R.bytes(Comp, N * sizeof(uint64_t)))
      return truncatedAt(R, "polynomial residues");
    if constexpr (std::endian::native != std::endian::little) {
      for (size_t J = 0; J < N; ++J) {
        uint64_t V = Comp[J];
        uint64_t S = 0;
        for (int B = 0; B < 8; ++B)
          S |= ((V >> (8 * B)) & 0xFF) << (8 * (7 - B));
        Comp[J] = S;
      }
    }
    uint64_t Mod = P.modulus(I);
    for (size_t J = 0; J < N; ++J)
      if (Comp[J] >= Mod)
        return Status::dataCorrupt(
            std::string(What) + ": residue " + std::to_string(Comp[J]) +
            " at coefficient " + std::to_string(J) + " of component " +
            std::to_string(I) + " is not below its modulus " +
            std::to_string(Mod));
  }
  return P;
}

Status parseParamsPayload(ByteReader &R, CkksParams &P) {
  uint64_t RingDegree = 0, Slots = 0;
  if (!R.u64(RingDegree) || !R.u64(Slots) || !R.i32(P.LogScale) ||
      !R.i32(P.LogFirstModulus) || !R.i32(P.NumRescaleModuli) ||
      !R.i32(P.LogSpecialModulus))
    return truncatedAt(R, "parameter fields");
  if (RingDegree > (1ULL << 48) || Slots > (1ULL << 48))
    return Status::dataCorrupt("implausible ring degree " +
                               std::to_string(RingDegree) + " or slot count " +
                               std::to_string(Slots));
  P.RingDegree = static_cast<size_t>(RingDegree);
  P.Slots = static_cast<size_t>(Slots);
  uint8_t Sparse = 0;
  if (!R.u8(Sparse) || !R.u64(P.Seed))
    return truncatedAt(R, "parameter fields");
  if (Sparse > 1)
    return Status::dataCorrupt("sparse-secret flag byte is not 0 or 1");
  P.SparseSecret = Sparse != 0;
  if (!P.valid())
    return Status::dataCorrupt(
        "deserialized parameters fail validation: ring degree " +
        std::to_string(P.RingDegree) + ", " + std::to_string(P.Slots) +
        " slots, log scale " + std::to_string(P.LogScale) + ", log q0 " +
        std::to_string(P.LogFirstModulus) + ", " +
        std::to_string(P.NumRescaleModuli) + " rescale primes, log special " +
        std::to_string(P.LogSpecialModulus));
  return Status::success();
}

/// Shared scale/slot validation for plaintexts and ciphertexts.
Status checkScaleAndSlots(const Context &Ctx, double Scale, uint64_t Slots,
                          const char *What) {
  if (!std::isfinite(Scale) || Scale <= 0.0)
    return Status::dataCorrupt(std::string(What) + ": scale " +
                               std::to_string(Scale) +
                               " is not a finite positive number");
  if (Slots != Ctx.slots())
    return Status::dataCorrupt(
        std::string(What) + ": slot count " + std::to_string(Slots) +
        " does not match the context's " + std::to_string(Ctx.slots()));
  return Status::success();
}

Status parsePlaintextPayload(const Context &Ctx, ByteReader &R,
                             Plaintext &Out) {
  ACE_ASSIGN_OR_RETURN(Out.Poly, parsePoly(Ctx, R, "plaintext"));
  if (Out.Poly.hasSpecial())
    return Status::dataCorrupt(
        "plaintext polynomial carries the key-switching special prime");
  uint64_t Slots = 0;
  if (!R.f64(Out.Scale) || !R.u64(Slots))
    return truncatedAt(R, "plaintext scale/slots");
  ACE_RETURN_IF_ERROR(checkScaleAndSlots(Ctx, Out.Scale, Slots, "plaintext"));
  Out.Slots = Slots;
  return Status::success();
}

Status parseCiphertextPayload(const Context &Ctx, ByteReader &R,
                              Ciphertext &Out) {
  uint8_t PolyCount = 0;
  if (!R.u8(PolyCount))
    return truncatedAt(R, "ciphertext polynomial count");
  if (PolyCount < 2 || PolyCount > 3)
    return Status::dataCorrupt(
        "ciphertext declares " + std::to_string(PolyCount) +
        " polynomial components (expected 2 or 3)");
  Out.Polys.clear();
  Out.Polys.reserve(PolyCount);
  for (uint8_t I = 0; I < PolyCount; ++I) {
    ACE_ASSIGN_OR_RETURN(RnsPoly P, parsePoly(Ctx, R, "ciphertext"));
    if (P.hasSpecial() || !P.isNtt())
      return Status::dataCorrupt(
          "ciphertext polynomial " + std::to_string(I) +
          " is not in plain NTT form (special prime or coefficient "
          "domain)");
    if (I > 0 && P.numQ() != Out.Polys[0].numQ())
      return Status::dataCorrupt(
          "ciphertext component prime counts differ (" +
          std::to_string(P.numQ()) + " vs " +
          std::to_string(Out.Polys[0].numQ()) + ")");
    Out.Polys.push_back(std::move(P));
  }
  uint64_t Slots = 0;
  if (!R.f64(Out.Scale) || !R.u64(Slots))
    return truncatedAt(R, "ciphertext scale/slots");
  ACE_RETURN_IF_ERROR(
      checkScaleAndSlots(Ctx, Out.Scale, Slots, "ciphertext"));
  Out.Slots = Slots;
  // Belt and braces: the runtime's own integrity gate must agree before a
  // wire object is allowed anywhere near the evaluator.
  if (Status S = validateCiphertext(Ctx, Out, "deserialize"))
    return Status::dataCorrupt("deserialized ciphertext fails validation: " +
                               S.message());
  return Status::success();
}

/// Parses one key polynomial and enforces the shared key-material shape:
/// NTT form, full chain when \p FullChain, special prime when
/// \p NeedSpecial.
StatusOr<RnsPoly> parseKeyPoly(const Context &Ctx, ByteReader &R,
                               const char *What, bool NeedSpecial,
                               bool FullChain) {
  ACE_ASSIGN_OR_RETURN(RnsPoly P, parsePoly(Ctx, R, What));
  if (!P.isNtt())
    return Status::dataCorrupt(std::string(What) +
                               ": key polynomial is not in NTT form");
  if (P.hasSpecial() != NeedSpecial)
    return Status::dataCorrupt(std::string(What) +
                               (NeedSpecial
                                    ? ": key polynomial lacks the special "
                                      "prime components"
                                    : ": key polynomial must not carry the "
                                      "special primes"));
  if (FullChain && P.numQ() != Ctx.chainLength())
    return Status::dataCorrupt(
        std::string(What) + ": key polynomial spans " +
        std::to_string(P.numQ()) + " chain primes, expected the full " +
        std::to_string(Ctx.chainLength()));
  return P;
}

Status parseSwitchKeyBody(const Context &Ctx, ByteReader &R,
                          SwitchKey &Out) {
  uint32_t NumParts = 0;
  if (!R.u32(NumParts))
    return truncatedAt(R, "switch-key part count");
  const KeySwitchShape &Shape = Ctx.keySwitch();
  if (NumParts < 1 || NumParts > Shape.digits(Ctx.chainLength()))
    return Status::dataCorrupt(
        "switch key declares " + std::to_string(NumParts) +
        " decomposition digits, context allows 1.." +
        std::to_string(Shape.digits(Ctx.chainLength())));
  Out.Parts.clear();
  Out.Parts.reserve(NumParts);
  for (uint32_t I = 0; I < NumParts; ++I) {
    ACE_ASSIGN_OR_RETURN(RnsPoly B, parseKeyPoly(Ctx, R, "switch-key",
                                                 /*NeedSpecial=*/true,
                                                 /*FullChain=*/false));
    ACE_ASSIGN_OR_RETURN(RnsPoly A, parseKeyPoly(Ctx, R, "switch-key",
                                                 /*NeedSpecial=*/true,
                                                 /*FullChain=*/false));
    if (B.numQ() != A.numQ() ||
        (I > 0 && B.numQ() != Out.Parts[0].first.numQ()))
      return Status::dataCorrupt(
          "switch-key digit " + std::to_string(I) +
          " spans a different prime count than its siblings");
    if (I == 0 && NumParts != Shape.digits(B.numQ()))
      return Status::dataCorrupt(
          "switch key declares " + std::to_string(NumParts) +
          " decomposition digits, but its " + std::to_string(B.numQ()) +
          " chain primes form " + std::to_string(Shape.digits(B.numQ())));
    Out.Parts.emplace_back(std::move(B), std::move(A));
  }
  return Status::success();
}

Status parseEvalKeysPayload(const Context &Ctx, ByteReader &R,
                            EvalKeys &Out) {
  uint8_t HasRelin = 0;
  if (!R.u8(HasRelin))
    return truncatedAt(R, "relin-key flag");
  if (HasRelin > 1)
    return Status::dataCorrupt("relin-key flag byte is not 0 or 1");
  Out.HasRelin = HasRelin != 0;
  if (Out.HasRelin)
    ACE_RETURN_IF_ERROR(parseSwitchKeyBody(Ctx, R, Out.Relin));
  uint8_t HasConj = 0;
  if (!R.u8(HasConj))
    return truncatedAt(R, "conjugation-key flag");
  if (HasConj > 1)
    return Status::dataCorrupt("conjugation-key flag byte is not 0 or 1");
  Out.HasConjugate = HasConj != 0;
  if (Out.HasConjugate)
    ACE_RETURN_IF_ERROR(parseSwitchKeyBody(Ctx, R, Out.Conjugate));
  uint32_t NumRot = 0;
  if (!R.u32(NumRot))
    return truncatedAt(R, "rotation-key count");
  // Galois elements are odd and below 2N, so a valid set holds at most N
  // distinct elements; larger counts are forged.
  if (NumRot > Ctx.degree())
    return Status::dataCorrupt(
        "rotation-key set declares " + std::to_string(NumRot) +
        " keys, at most " + std::to_string(Ctx.degree()) +
        " distinct Galois elements exist");
  Out.Rotations.clear();
  uint64_t PrevGalois = 0;
  for (uint32_t I = 0; I < NumRot; ++I) {
    uint64_t Galois = 0;
    if (!R.u64(Galois))
      return truncatedAt(R, "rotation-key Galois element");
    if ((Galois & 1) == 0 || Galois <= 1 || Galois >= 2 * Ctx.degree())
      return Status::dataCorrupt(
          "rotation-key Galois element " + std::to_string(Galois) +
          " is not an odd value in (1, " +
          std::to_string(2 * Ctx.degree()) + ")");
    if (Galois <= PrevGalois)
      return Status::dataCorrupt(
          "rotation-key Galois elements are not strictly increasing (" +
          std::to_string(Galois) + " after " + std::to_string(PrevGalois) +
          "); duplicates or non-canonical order");
    PrevGalois = Galois;
    SwitchKey Key;
    ACE_RETURN_IF_ERROR(parseSwitchKeyBody(Ctx, R, Key));
    Out.Rotations.emplace(Galois, std::move(Key));
  }
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Load plumbing
//===----------------------------------------------------------------------===//

/// Verifies framing + CRC of a complete in-memory object and hands the
/// payload to \p Parse. Enforces exact consumption on both frame and
/// payload level.
template <typename ParseFn>
Status loadBuffer(ObjectTag Tag, const Context *Ctx, const uint8_t *Data,
                  size_t Size, ParseFn &&Parse) {
  telemetry::TraceSpan Span("wire",
                            std::string("load:") + objectTagName(Tag));
  if (!Data && Size > 0)
    return Status::invalidArgument("load: null buffer with nonzero size");
  ByteReader R(Data, Size);
  Header H;
  ACE_RETURN_IF_ERROR(parseHeader(R, Tag, Ctx, H));
  if (R.remaining() < H.PayloadLen)
    return Status::dataCorrupt(
        "truncated object: header declares a " +
        std::to_string(H.PayloadLen) + "-byte payload, " +
        std::to_string(R.remaining()) + " bytes follow");
  if (R.remaining() > H.PayloadLen)
    return Status::dataCorrupt(
        "trailing bytes: " +
        std::to_string(R.remaining() - H.PayloadLen) +
        " bytes after the declared payload");
  uint32_t Actual = crc32c(R.cursor(), static_cast<size_t>(H.PayloadLen));
  if (Actual != H.Crc) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf),
                  "checksum mismatch: header says 0x%08X, payload hashes "
                  "to 0x%08X",
                  H.Crc, Actual);
    return Status::dataCorrupt(Buf);
  }
  ByteReader Payload(R.cursor(), static_cast<size_t>(H.PayloadLen));
  ACE_RETURN_IF_ERROR(Parse(Payload));
  if (!Payload.atEnd())
    return Status::dataCorrupt(
        "trailing bytes inside payload: " +
        std::to_string(Payload.remaining()) +
        " bytes after the last field");
  if (telemetry::enabled())
    telemetry::Telemetry::instance().count(
        telemetry::Counter::BytesDeserialized,
        kHeaderBytes + static_cast<size_t>(H.PayloadLen));
  return Status::success();
}

/// Reads one framed object from \p IS into \p Frame (header + payload),
/// honoring the ShortRead fault. The caller re-parses the assembled
/// buffer through loadBuffer, so stream and buffer loads share one
/// validation path.
Status readFrame(ObjectTag Tag, const Context *Ctx, std::istream &IS,
                 std::vector<uint8_t> &Frame) {
  Frame.resize(kHeaderBytes);
  IS.read(reinterpret_cast<char *>(Frame.data()), kHeaderBytes);
  size_t Got = static_cast<size_t>(IS.gcount());
  if (IS.bad())
    return Status::ioError("stream read failed while reading the object "
                           "header");
  if (Got < kHeaderBytes) {
    Frame.resize(Got);
    ByteReader R(Frame.data(), Got);
    Header H;
    return parseHeader(R, Tag, Ctx, H); // yields the truncated-header error
  }
  ByteReader R(Frame.data(), kHeaderBytes);
  Header H;
  ACE_RETURN_IF_ERROR(parseHeader(R, Tag, Ctx, H));
  Frame.resize(kHeaderBytes + static_cast<size_t>(H.PayloadLen));
  IS.read(reinterpret_cast<char *>(Frame.data() + kHeaderBytes),
          static_cast<std::streamsize>(H.PayloadLen));
  Got = static_cast<size_t>(IS.gcount());
  if (IS.bad())
    return Status::ioError("stream read failed while reading the object "
                           "payload");
  FaultInjector &FI = FaultInjector::instance();
  if (FI.enabled() && FI.shouldFire(FaultKind::ShortRead))
    Got /= 2;
  if (Got < H.PayloadLen) {
    Frame.resize(kHeaderBytes + Got);
    return Status::dataCorrupt(
        "truncated object: header declares a " +
        std::to_string(H.PayloadLen) + "-byte payload, the stream held " +
        std::to_string(Got) + " bytes");
  }
  return Status::success();
}

template <typename ParseFn>
Status loadStream(ObjectTag Tag, const Context *Ctx, std::istream &IS,
                  ParseFn &&Parse) {
  std::vector<uint8_t> Frame;
  ACE_RETURN_IF_ERROR(readFrame(Tag, Ctx, IS, Frame));
  return loadBuffer(Tag, Ctx, Frame.data(), Frame.size(),
                    std::forward<ParseFn>(Parse));
}

//===----------------------------------------------------------------------===//
// Save-side input validation
//===----------------------------------------------------------------------===//

Status checkBoundPoly(const RnsPoly &P, const char *What) {
  if (!P.bound())
    return Status::invalidArgument(
        std::string(What) +
        ": polynomial is not bound to a context (default-constructed or "
        "moved-from object)");
  return Status::success();
}

Status checkSaveableCiphertext(const Ciphertext &Ct) {
  if (Ct.Polys.empty() || Ct.Polys.size() > 3)
    return Status::invalidArgument(
        "save: malformed ciphertext with " + std::to_string(Ct.size()) +
        " polynomial components (expected 2 or 3)");
  for (const RnsPoly &P : Ct.Polys)
    ACE_RETURN_IF_ERROR(checkBoundPoly(P, "save ciphertext"));
  if (Status S = validateCiphertext(Ct.Polys[0].context(), Ct, "save"))
    return S;
  return Status::success();
}

Status checkSaveableSwitchKey(const SwitchKey &K, const char *What) {
  if (K.Parts.empty())
    return Status::invalidArgument(std::string(What) +
                                   ": switch key has no parts");
  for (const auto &Part : K.Parts) {
    ACE_RETURN_IF_ERROR(checkBoundPoly(Part.first, What));
    ACE_RETURN_IF_ERROR(checkBoundPoly(Part.second, What));
  }
  return Status::success();
}

} // namespace

//===----------------------------------------------------------------------===//
// Public save API
//===----------------------------------------------------------------------===//

Status ace::fhe::wire::save(const CkksParams &P, std::vector<uint8_t> &Out) {
  return saveObject(ObjectTag::Params, Out, [&](ByteWriter &W) {
    if (!P.valid())
      return Status::invalidArgument(
          "save: parameters fail CkksParams::valid()");
    writeParamsPayload(W, P);
    return Status::success();
  });
}

Status ace::fhe::wire::save(const CkksParams &P, std::ostream &OS) {
  return saveObject(ObjectTag::Params, OS, [&](ByteWriter &W) {
    if (!P.valid())
      return Status::invalidArgument(
          "save: parameters fail CkksParams::valid()");
    writeParamsPayload(W, P);
    return Status::success();
  });
}

namespace {
Status buildPlaintextPayload(const Plaintext &P, ByteWriter &W) {
  ACE_RETURN_IF_ERROR(checkBoundPoly(P.Poly, "save plaintext"));
  if (P.Poly.hasSpecial())
    return Status::invalidArgument(
        "save: plaintext polynomial carries the special prime");
  if (!std::isfinite(P.Scale) || P.Scale <= 0.0)
    return Status::invalidArgument(
        "save: plaintext scale " + std::to_string(P.Scale) +
        " is not a finite positive number");
  writePoly(W, P.Poly);
  W.f64(P.Scale);
  W.u64(P.Slots);
  return Status::success();
}

Status buildCiphertextPayload(const Ciphertext &Ct, ByteWriter &W) {
  ACE_RETURN_IF_ERROR(checkSaveableCiphertext(Ct));
  W.u8(static_cast<uint8_t>(Ct.Polys.size()));
  for (const RnsPoly &P : Ct.Polys)
    writePoly(W, P);
  W.f64(Ct.Scale);
  W.u64(Ct.Slots);
  return Status::success();
}

Status buildPublicKeyPayload(const PublicKey &K, ByteWriter &W) {
  ACE_RETURN_IF_ERROR(checkBoundPoly(K.B, "save public key"));
  ACE_RETURN_IF_ERROR(checkBoundPoly(K.A, "save public key"));
  writePoly(W, K.B);
  writePoly(W, K.A);
  return Status::success();
}

Status buildSecretKeyPayload(const SecretKey &K, ByteWriter &W) {
  ACE_RETURN_IF_ERROR(checkBoundPoly(K.S, "save secret key"));
  writePoly(W, K.S);
  return Status::success();
}

Status buildSwitchKeyPayload(const SwitchKey &K, ByteWriter &W) {
  ACE_RETURN_IF_ERROR(checkSaveableSwitchKey(K, "save switch key"));
  writeSwitchKeyBody(W, K);
  return Status::success();
}

Status buildEvalKeysPayload(const EvalKeys &K, ByteWriter &W) {
  if (K.HasRelin)
    ACE_RETURN_IF_ERROR(checkSaveableSwitchKey(K.Relin, "save relin key"));
  if (K.HasConjugate)
    ACE_RETURN_IF_ERROR(
        checkSaveableSwitchKey(K.Conjugate, "save conjugation key"));
  for (const auto &[Galois, Key] : K.Rotations)
    ACE_RETURN_IF_ERROR(checkSaveableSwitchKey(Key, "save rotation key"));
  W.u8(K.HasRelin ? 1 : 0);
  if (K.HasRelin)
    writeSwitchKeyBody(W, K.Relin);
  W.u8(K.HasConjugate ? 1 : 0);
  if (K.HasConjugate)
    writeSwitchKeyBody(W, K.Conjugate);
  W.u32(static_cast<uint32_t>(K.Rotations.size()));
  for (const auto &[Galois, Key] : K.Rotations) {
    W.u64(Galois);
    writeSwitchKeyBody(W, Key);
  }
  return Status::success();
}
} // namespace

Status ace::fhe::wire::save(const Plaintext &P, std::vector<uint8_t> &Out) {
  return saveObject(ObjectTag::Plaintext, Out, [&](ByteWriter &W) {
    return buildPlaintextPayload(P, W);
  });
}

Status ace::fhe::wire::save(const Plaintext &P, std::ostream &OS) {
  return saveObject(ObjectTag::Plaintext, OS, [&](ByteWriter &W) {
    return buildPlaintextPayload(P, W);
  });
}

Status ace::fhe::wire::save(const Ciphertext &Ct, std::vector<uint8_t> &Out) {
  return saveObject(ObjectTag::Ciphertext, Out, [&](ByteWriter &W) {
    return buildCiphertextPayload(Ct, W);
  });
}

Status ace::fhe::wire::save(const Ciphertext &Ct, std::ostream &OS) {
  return saveObject(ObjectTag::Ciphertext, OS, [&](ByteWriter &W) {
    return buildCiphertextPayload(Ct, W);
  });
}

Status ace::fhe::wire::save(const PublicKey &K, std::vector<uint8_t> &Out) {
  return saveObject(ObjectTag::PublicKey, Out, [&](ByteWriter &W) {
    return buildPublicKeyPayload(K, W);
  });
}

Status ace::fhe::wire::save(const PublicKey &K, std::ostream &OS) {
  return saveObject(ObjectTag::PublicKey, OS, [&](ByteWriter &W) {
    return buildPublicKeyPayload(K, W);
  });
}

Status ace::fhe::wire::save(const SecretKey &K, std::vector<uint8_t> &Out) {
  return saveObject(ObjectTag::SecretKey, Out, [&](ByteWriter &W) {
    return buildSecretKeyPayload(K, W);
  });
}

Status ace::fhe::wire::save(const SecretKey &K, std::ostream &OS) {
  return saveObject(ObjectTag::SecretKey, OS, [&](ByteWriter &W) {
    return buildSecretKeyPayload(K, W);
  });
}

Status ace::fhe::wire::save(const SwitchKey &K, std::vector<uint8_t> &Out) {
  return saveObject(ObjectTag::SwitchKey, Out, [&](ByteWriter &W) {
    return buildSwitchKeyPayload(K, W);
  });
}

Status ace::fhe::wire::save(const SwitchKey &K, std::ostream &OS) {
  return saveObject(ObjectTag::SwitchKey, OS, [&](ByteWriter &W) {
    return buildSwitchKeyPayload(K, W);
  });
}

Status ace::fhe::wire::save(const EvalKeys &K, std::vector<uint8_t> &Out) {
  return saveObject(ObjectTag::EvalKeys, Out, [&](ByteWriter &W) {
    return buildEvalKeysPayload(K, W);
  });
}

Status ace::fhe::wire::save(const EvalKeys &K, std::ostream &OS) {
  return saveObject(ObjectTag::EvalKeys, OS, [&](ByteWriter &W) {
    return buildEvalKeysPayload(K, W);
  });
}

//===----------------------------------------------------------------------===//
// Public load API
//===----------------------------------------------------------------------===//

StatusOr<CkksParams> ace::fhe::wire::loadParams(const uint8_t *Data,
                                                size_t Size) {
  CkksParams P;
  ACE_RETURN_IF_ERROR(loadBuffer(ObjectTag::Params, nullptr, Data, Size,
                                 [&](ByteReader &R) {
                                   return parseParamsPayload(R, P);
                                 }));
  return P;
}

StatusOr<CkksParams> ace::fhe::wire::loadParams(std::istream &IS) {
  CkksParams P;
  ACE_RETURN_IF_ERROR(loadStream(ObjectTag::Params, nullptr, IS,
                                 [&](ByteReader &R) {
                                   return parseParamsPayload(R, P);
                                 }));
  return P;
}

StatusOr<Plaintext> ace::fhe::wire::loadPlaintext(const Context &Ctx,
                                                  const uint8_t *Data,
                                                  size_t Size) {
  Plaintext P;
  ACE_RETURN_IF_ERROR(loadBuffer(ObjectTag::Plaintext, &Ctx, Data, Size,
                                 [&](ByteReader &R) {
                                   return parsePlaintextPayload(Ctx, R, P);
                                 }));
  return P;
}

StatusOr<Plaintext> ace::fhe::wire::loadPlaintext(const Context &Ctx,
                                                  std::istream &IS) {
  Plaintext P;
  ACE_RETURN_IF_ERROR(loadStream(ObjectTag::Plaintext, &Ctx, IS,
                                 [&](ByteReader &R) {
                                   return parsePlaintextPayload(Ctx, R, P);
                                 }));
  return P;
}

StatusOr<Ciphertext> ace::fhe::wire::loadCiphertext(const Context &Ctx,
                                                    const uint8_t *Data,
                                                    size_t Size) {
  Ciphertext Ct;
  ACE_RETURN_IF_ERROR(loadBuffer(ObjectTag::Ciphertext, &Ctx, Data, Size,
                                 [&](ByteReader &R) {
                                   return parseCiphertextPayload(Ctx, R, Ct);
                                 }));
  return Ct;
}

StatusOr<Ciphertext> ace::fhe::wire::loadCiphertext(const Context &Ctx,
                                                    std::istream &IS) {
  Ciphertext Ct;
  ACE_RETURN_IF_ERROR(loadStream(ObjectTag::Ciphertext, &Ctx, IS,
                                 [&](ByteReader &R) {
                                   return parseCiphertextPayload(Ctx, R, Ct);
                                 }));
  return Ct;
}

StatusOr<PublicKey> ace::fhe::wire::loadPublicKey(const Context &Ctx,
                                                  const uint8_t *Data,
                                                  size_t Size) {
  PublicKey K;
  ACE_RETURN_IF_ERROR(loadBuffer(
      ObjectTag::PublicKey, &Ctx, Data, Size, [&](ByteReader &R) {
        ACE_ASSIGN_OR_RETURN(K.B, parseKeyPoly(Ctx, R, "public-key",
                                               /*NeedSpecial=*/false,
                                               /*FullChain=*/true));
        ACE_ASSIGN_OR_RETURN(K.A, parseKeyPoly(Ctx, R, "public-key",
                                               /*NeedSpecial=*/false,
                                               /*FullChain=*/true));
        return Status::success();
      }));
  return K;
}

StatusOr<PublicKey> ace::fhe::wire::loadPublicKey(const Context &Ctx,
                                                  std::istream &IS) {
  PublicKey K;
  ACE_RETURN_IF_ERROR(loadStream(
      ObjectTag::PublicKey, &Ctx, IS, [&](ByteReader &R) {
        ACE_ASSIGN_OR_RETURN(K.B, parseKeyPoly(Ctx, R, "public-key",
                                               /*NeedSpecial=*/false,
                                               /*FullChain=*/true));
        ACE_ASSIGN_OR_RETURN(K.A, parseKeyPoly(Ctx, R, "public-key",
                                               /*NeedSpecial=*/false,
                                               /*FullChain=*/true));
        return Status::success();
      }));
  return K;
}

StatusOr<SecretKey> ace::fhe::wire::loadSecretKey(const Context &Ctx,
                                                  const uint8_t *Data,
                                                  size_t Size) {
  SecretKey K;
  ACE_RETURN_IF_ERROR(loadBuffer(
      ObjectTag::SecretKey, &Ctx, Data, Size, [&](ByteReader &R) {
        ACE_ASSIGN_OR_RETURN(K.S, parseKeyPoly(Ctx, R, "secret-key",
                                               /*NeedSpecial=*/true,
                                               /*FullChain=*/true));
        return Status::success();
      }));
  return K;
}

StatusOr<SecretKey> ace::fhe::wire::loadSecretKey(const Context &Ctx,
                                                  std::istream &IS) {
  SecretKey K;
  ACE_RETURN_IF_ERROR(loadStream(
      ObjectTag::SecretKey, &Ctx, IS, [&](ByteReader &R) {
        ACE_ASSIGN_OR_RETURN(K.S, parseKeyPoly(Ctx, R, "secret-key",
                                               /*NeedSpecial=*/true,
                                               /*FullChain=*/true));
        return Status::success();
      }));
  return K;
}

StatusOr<SwitchKey> ace::fhe::wire::loadSwitchKey(const Context &Ctx,
                                                  const uint8_t *Data,
                                                  size_t Size) {
  SwitchKey K;
  ACE_RETURN_IF_ERROR(loadBuffer(ObjectTag::SwitchKey, &Ctx, Data, Size,
                                 [&](ByteReader &R) {
                                   return parseSwitchKeyBody(Ctx, R, K);
                                 }));
  return K;
}

StatusOr<SwitchKey> ace::fhe::wire::loadSwitchKey(const Context &Ctx,
                                                  std::istream &IS) {
  SwitchKey K;
  ACE_RETURN_IF_ERROR(loadStream(ObjectTag::SwitchKey, &Ctx, IS,
                                 [&](ByteReader &R) {
                                   return parseSwitchKeyBody(Ctx, R, K);
                                 }));
  return K;
}

StatusOr<EvalKeys> ace::fhe::wire::loadEvalKeys(const Context &Ctx,
                                                const uint8_t *Data,
                                                size_t Size) {
  EvalKeys K;
  ACE_RETURN_IF_ERROR(loadBuffer(ObjectTag::EvalKeys, &Ctx, Data, Size,
                                 [&](ByteReader &R) {
                                   return parseEvalKeysPayload(Ctx, R, K);
                                 }));
  return K;
}

StatusOr<EvalKeys> ace::fhe::wire::loadEvalKeys(const Context &Ctx,
                                                std::istream &IS) {
  EvalKeys K;
  ACE_RETURN_IF_ERROR(loadStream(ObjectTag::EvalKeys, &Ctx, IS,
                                 [&](ByteReader &R) {
                                   return parseEvalKeysPayload(Ctx, R, K);
                                 }));
  return K;
}
