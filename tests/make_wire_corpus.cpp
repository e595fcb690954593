//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
//
// Regenerates the checked-in malformed-blob corpus under
// tests/corpus/wire/ (read by SerializerCorpusTest). Each blob is a valid
// serialized object with one targeted corruption; the MANIFEST records,
// per blob, the loader to feed it to, the expected error code, and a
// substring the diagnostic must contain.
//
// Blobs whose corruption sits inside the payload get their CRC re-fixed,
// so they exercise the field validators rather than dying at the
// checksum gate.
//
// The corpus is deterministic: it derives from the fuzz-context
// parameters (fuzz/fuzz_deserialize.cpp) whose keygen is seeded. Run
//
//   ./make_wire_corpus <repo>/tests/corpus/wire
//
// after changing the wire format, and commit the result.
//
//===----------------------------------------------------------------------===//

#include "fhe/Encoder.h"
#include "fhe/Encryptor.h"
#include "fhe/Serializer.h"
#include "support/Crc32c.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace ace;
using namespace ace::fhe;

namespace {

// Frame byte offsets (see docs/serialization.md).
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 4;
constexpr size_t kOffTag = 6;
constexpr size_t kOffFlags = 7;
constexpr size_t kOffLen = 8;
constexpr size_t kOffCrc = 16;
constexpr size_t kOffPayload = 20;

/// Recomputes the CRC over the (possibly corrupted) payload so the blob
/// passes the checksum gate and reaches the field validators.
void refixCrc(std::vector<uint8_t> &Blob) {
  uint32_t Crc = crc32c(Blob.data() + kOffPayload, Blob.size() - kOffPayload);
  for (int I = 0; I < 4; ++I)
    Blob[kOffCrc + I] = static_cast<uint8_t>(Crc >> (8 * I));
}

void pokeU64(std::vector<uint8_t> &Blob, size_t At, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Blob[At + I] = static_cast<uint8_t>(V >> (8 * I));
}

struct Entry {
  std::string File;
  std::string Loader;
  std::string Code;
  std::string Substring;
  std::vector<uint8_t> Blob;
};

void writeHex(const std::string &Path, const std::vector<uint8_t> &Blob) {
  std::ofstream OS(Path);
  static const char *Digits = "0123456789abcdef";
  std::string Line;
  for (size_t I = 0; I < Blob.size(); ++I) {
    Line += Digits[Blob[I] >> 4];
    Line += Digits[Blob[I] & 0xF];
    if (Line.size() >= 64) {
      OS << Line << "\n";
      Line.clear();
    }
  }
  if (!Line.empty())
    OS << Line << "\n";
}

} // namespace

int main(int argc, char **argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 1;
  }
  std::string Dir = argv[1];

  // Must match fuzz/fuzz_deserialize.cpp.
  CkksParams P;
  P.RingDegree = 32;
  P.Slots = 8;
  P.LogScale = 30;
  P.LogFirstModulus = 40;
  P.NumRescaleModuli = 2;
  P.LogSpecialModulus = 45;
  P.Seed = 7;
  Context Ctx(P);
  Encoder Enc(Ctx);
  KeyGenerator Gen(Ctx);
  PublicKey Pub = Gen.makePublicKey();
  Encryptor Encrypt(Ctx, Pub);
  Plaintext Pt = Enc.encodeReal({0.5, -1.25, 3.0}, Ctx.scale(), 2);
  Ciphertext Ct = Encrypt.encrypt(Pt);

  std::vector<uint8_t> ParamsBlob, CtBlob, SwBlob, EkBlob;
  SwitchKey Relin = Gen.makeRelinKey();
  EvalKeys RotOnly;
  RotOnly.Rotations.emplace(galoisForRotation(Ctx.degree(), Ctx.slots(), 1),
                            Gen.makeRotationKey(1));
  RotOnly.Rotations.emplace(galoisForRotation(Ctx.degree(), Ctx.slots(), 2),
                            Gen.makeRotationKey(2));
  Status S = wire::save(Ctx.params(), ParamsBlob);
  if (S.ok())
    S = wire::save(Ct, CtBlob);
  if (S.ok())
    S = wire::save(Relin, SwBlob);
  if (S.ok())
    S = wire::save(RotOnly, EkBlob);
  if (!S.ok()) {
    std::fprintf(stderr, "seed save failed: %s\n", S.message().c_str());
    return 1;
  }

  std::vector<Entry> Entries;
  auto Add = [&](std::string File, std::string Loader, std::string Code,
                 std::string Substring, std::vector<uint8_t> Blob) {
    Entries.push_back({std::move(File), std::move(Loader), std::move(Code),
                       std::move(Substring), std::move(Blob)});
  };

  // --- Frame-level corruptions (context-independent).
  {
    auto B = ParamsBlob;
    B[kOffMagic] ^= 0xFF;
    Add("bad-magic", "params", "data-corrupt", "bad magic", B);
  }
  {
    auto B = ParamsBlob;
    B[kOffVersion] = 99;
    Add("bad-version", "params", "data-corrupt",
        "unsupported format version", B);
  }
  {
    auto B = ParamsBlob;
    B[kOffTag] = 200;
    Add("bad-tag", "params", "data-corrupt", "unknown object tag", B);
  }
  Add("wrong-tag", "ciphertext", "data-corrupt", "object tag mismatch",
      ParamsBlob);
  {
    auto B = ParamsBlob;
    B[kOffFlags] = 3;
    Add("bad-flags", "params", "data-corrupt", "unsupported header flags",
        B);
  }
  {
    auto B = CtBlob;
    B[kOffCrc + 1] ^= 0x40;
    Add("bad-crc", "ciphertext", "data-corrupt", "checksum mismatch", B);
  }
  {
    auto B = ParamsBlob;
    B.resize(kOffPayload - 7);
    Add("truncated-header", "params", "data-corrupt", "truncated header", B);
  }
  {
    auto B = CtBlob;
    B.resize(B.size() - 5);
    Add("truncated-payload", "ciphertext", "data-corrupt",
        "truncated object", B);
  }
  {
    auto B = CtBlob;
    pokeU64(B, kOffLen, 1ULL << 40);
    Add("oversized-length", "ciphertext", "resource-exhausted",
        "exceeds the maximum", B);
  }
  {
    auto B = CtBlob;
    B.push_back(0xAB);
    B.push_back(0xCD);
    Add("trailing-bytes", "ciphertext", "data-corrupt", "trailing bytes",
        B);
  }
  Add("empty", "params", "data-corrupt", "truncated header", {});

  // --- Payload-level corruptions (CRC re-fixed so validators fire).
  // Ciphertext payload layout: u8 polyCount | u16 numQ | u8 hasSpecial |
  // u8 ntt | residues... | f64 scale | u64 slots.
  {
    auto B = CtBlob;
    std::memset(B.data() + kOffPayload + 5, 0xFF, 8);
    refixCrc(B);
    Add("ct-residue-ge-q", "ciphertext", "data-corrupt",
        "not below its modulus", B);
  }
  {
    auto B = CtBlob;
    B[kOffPayload] = 7;
    refixCrc(B);
    Add("ct-poly-count", "ciphertext", "data-corrupt",
        "polynomial components", B);
  }
  {
    auto B = CtBlob;
    B[kOffPayload + 1] = 0xFF;
    B[kOffPayload + 2] = 0xFF;
    refixCrc(B);
    Add("ct-bad-numq", "ciphertext", "data-corrupt", "chain primes", B);
  }
  {
    auto B = CtBlob;
    pokeU64(B, B.size() - 16, 0x7FF8000000000000ull); // quiet NaN
    refixCrc(B);
    Add("ct-nan-scale", "ciphertext", "data-corrupt",
        "not a finite positive number", B);
  }
  {
    auto B = CtBlob;
    pokeU64(B, B.size() - 8, 9999);
    refixCrc(B);
    Add("ct-bad-slots", "ciphertext", "data-corrupt", "slot count", B);
  }
  {
    auto B = ParamsBlob;
    pokeU64(B, kOffPayload, 33); // not a power of two
    refixCrc(B);
    Add("params-invalid", "params", "data-corrupt", "fail validation", B);
  }
  {
    auto B = SwBlob;
    B[kOffPayload] = 0xFF; // part count 255 > chain length
    refixCrc(B);
    Add("swk-bad-parts", "switchkey", "data-corrupt",
        "decomposition digits", B);
  }
  // EvalKeys payload (rotations only): u8 0 | u8 0 | u32 numRot |
  // (u64 galois | body)*. The two bodies have identical shape, so
  // swapping the two whole entries yields decreasing Galois elements.
  {
    auto B = EkBlob;
    size_t RotAt = kOffPayload + 1 + 1 + 4;
    size_t EntryLen = (B.size() - RotAt) / 2;
    std::vector<uint8_t> First(B.begin() + RotAt,
                               B.begin() + RotAt + EntryLen);
    std::memmove(B.data() + RotAt, B.data() + RotAt + EntryLen, EntryLen);
    std::memcpy(B.data() + RotAt + EntryLen, First.data(), EntryLen);
    refixCrc(B);
    Add("ek-galois-order", "evalkeys", "data-corrupt",
        "strictly increasing", B);
  }
  {
    auto B = EkBlob;
    size_t RotAt = kOffPayload + 1 + 1 + 4;
    pokeU64(B, RotAt, 4); // even Galois element
    refixCrc(B);
    Add("ek-galois-even", "evalkeys", "data-corrupt", "not an odd value",
        B);
  }

  // --- Key shape. A switch key in the one-prime-per-digit layout (special
  // byte 1, one part per prime; here truncated to 2 primes, residues
  // zero) fed to a chain whose hybrid key switching uses 2 special
  // primes. The "hybrid-switchkey" loader reads it under that chain: the
  // corpus parameters with 5 rescale primes (SerializerCorpusTest).
  {
    CkksParams HP = P;
    HP.NumRescaleModuli = 5;
    Context HCtx(HP);
    if (HCtx.numSpecial() != 2) {
      std::fprintf(stderr, "hybrid corpus chain uses %zu special primes\n",
                   HCtx.numSpecial());
      return 1;
    }
    const uint16_t NumQ = 2;
    std::vector<uint8_t> B(SwBlob.begin(), SwBlob.begin() + kOffPayload);
    auto Put = [&](uint64_t V, int Bytes) {
      for (int I = 0; I < Bytes; ++I)
        B.push_back(static_cast<uint8_t>(V >> (8 * I)));
    };
    Put(NumQ, 4); // one part per prime
    for (int Poly = 0; Poly < 2 * NumQ; ++Poly) {
      Put(NumQ, 2);
      Put(1, 1); // one special prime
      Put(1, 1); // NTT form
      for (size_t I = 0; I < (NumQ + 1u) * HCtx.degree(); ++I)
        Put(0, 8);
    }
    pokeU64(B, kOffLen, B.size() - kOffPayload);
    refixCrc(B);
    Add("swk-one-special", "hybrid-switchkey", "data-corrupt",
        "key switching uses 2", B);
  }

  std::ofstream Manifest(Dir + "/MANIFEST");
  if (!Manifest) {
    std::fprintf(stderr, "cannot write %s/MANIFEST\n", Dir.c_str());
    return 1;
  }
  Manifest << "# blob\tloader\texpected-code\tmessage-substring\n";
  for (const Entry &E : Entries) {
    writeHex(Dir + "/" + E.File + ".hex", E.Blob);
    Manifest << E.File << "\t" << E.Loader << "\t" << E.Code << "\t"
             << E.Substring << "\n";
  }
  std::printf("wrote %zu corpus blobs to %s\n", Entries.size(), Dir.c_str());
  return 0;
}
