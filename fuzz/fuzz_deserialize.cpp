//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
//
// Fuzz harness for the wire-format deserializers. One input buffer is fed
// to every loader (buffer and stream variants); the contract under test is
// the docs/serialization.md trust boundary: any byte sequence either
// parses into a fully validated object or fails with a clean Status -
// never a crash, hang, over-allocation, or sanitizer report.
//
// With ACE_ENABLE_LIBFUZZER (clang only) this builds against libFuzzer.
// Otherwise main() runs a deterministic seeded mutation loop over valid
// serialized objects, registered in ctest as FuzzSmoke.Deserialize.
//
//===----------------------------------------------------------------------===//

#include "fhe/Encoder.h"
#include "fhe/Encryptor.h"
#include "fhe/Serializer.h"

#include "FuzzMutate.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

using namespace ace;
using namespace ace::fhe;

namespace {

/// Deliberately tiny parameters so mutated residue arrays stay cheap to
/// validate; shared by the harness and the corpus generator
/// (tests/make_wire_corpus.cpp), which must agree on them.
const Context &fuzzContext() {
  static Context *Ctx = [] {
    CkksParams P;
    P.RingDegree = 32;
    P.Slots = 8;
    P.LogScale = 30;
    P.LogFirstModulus = 40;
    P.NumRescaleModuli = 2;
    P.LogSpecialModulus = 45;
    P.Seed = 7;
    return new Context(P);
  }();
  return *Ctx;
}

/// Consumes a load result; the harness only cares that it returned.
template <typename T> void sink(const StatusOr<T> &R) {
  if (R.ok())
    (void)*R;
  else
    (void)R.status().message().size();
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  const Context &Ctx = fuzzContext();
  sink(wire::loadParams(Data, Size));
  sink(wire::loadPlaintext(Ctx, Data, Size));
  sink(wire::loadCiphertext(Ctx, Data, Size));
  sink(wire::loadPublicKey(Ctx, Data, Size));
  sink(wire::loadSecretKey(Ctx, Data, Size));
  sink(wire::loadSwitchKey(Ctx, Data, Size));
  sink(wire::loadEvalKeys(Ctx, Data, Size));
  // Stream variants go through the separate header-then-payload read path.
  {
    std::istringstream IS(
        std::string(reinterpret_cast<const char *>(Data), Size));
    sink(wire::loadCiphertext(Ctx, IS));
  }
  {
    std::istringstream IS(
        std::string(reinterpret_cast<const char *>(Data), Size));
    sink(wire::loadParams(IS));
  }
  return 0;
}

#ifndef ACE_USE_LIBFUZZER

int main(int argc, char **argv) {
  size_t Iterations = 2000;
  if (argc > 1)
    Iterations = static_cast<size_t>(std::strtoull(argv[1], nullptr, 10));

  const Context &Ctx = fuzzContext();
  Encoder Enc(Ctx);
  KeyGenerator Gen(Ctx);
  PublicKey Pub = Gen.makePublicKey();
  Encryptor Encrypt(Ctx, Pub);

  // The evaluation-key seed is ace_key_save's wire form: relin and
  // conjugation keys plus the key cache's rotation keys.
  EvalKeys Keys;
  Keys.Relin = Gen.makeRelinKey();
  Keys.HasRelin = true;
  Keys.Conjugate = Gen.makeConjugationKey();
  Keys.HasConjugate = true;
  RotationKeyCache Cache(Ctx, Gen);
  Cache.declareRotation(1);
  Cache.declareRotation(2);

  Plaintext Pt = Enc.encodeReal({0.5, -1.25, 3.0}, Ctx.scale(), 2);
  Ciphertext Ct = Encrypt.encrypt(Pt);

  // One valid serialized blob per object type.
  std::vector<std::vector<uint8_t>> Seeds(7);
  Status S = Status::success();
  auto Add = [&](Status New) {
    if (S.ok())
      S = std::move(New);
  };
  Add(wire::save(Ctx.params(), Seeds[0]));
  Add(wire::save(Pt, Seeds[1]));
  Add(wire::save(Ct, Seeds[2]));
  Add(wire::save(Pub, Seeds[3]));
  Add(wire::save(Gen.secretKey(), Seeds[4]));
  Add(wire::save(Keys.Relin, Seeds[5]));
  Add(Cache.exportKeys(Keys.Rotations));
  Add(wire::save(Keys, Seeds[6]));
  if (!S.ok()) {
    std::fprintf(stderr, "seed generation failed: %s\n",
                 S.message().c_str());
    return 1;
  }

  // Pristine seeds must survive the harness too (round-trip smoke).
  for (const auto &Seed : Seeds)
    LLVMFuzzerTestOneInput(Seed.data(), Seed.size());

  fuzz::Rand R(0xACE4F5EEDull);
  for (size_t I = 0; I < Iterations; ++I) {
    std::vector<uint8_t> Input;
    if (R.below(16) == 0) { // occasionally: pure garbage
      Input.resize(R.below(512));
      for (auto &B : Input)
        B = static_cast<uint8_t>(R.next());
    } else {
      Input = Seeds[R.below(Seeds.size())];
      fuzz::mutate(Input, R, Seeds[R.below(Seeds.size())]);
    }
    LLVMFuzzerTestOneInput(Input.data(), Input.size());
  }
  std::printf("fuzz_deserialize: %zu iterations, no crashes\n", Iterations);
  return 0;
}

#endif // !ACE_USE_LIBFUZZER
