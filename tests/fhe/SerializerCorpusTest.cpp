//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
//
// Regression corpus for the wire-format deserializers: every blob under
// tests/corpus/wire/ is a once-valid object with one targeted corruption,
// and the MANIFEST pins the loader, the exact error code, and a
// diagnostic substring each must produce. This freezes the deserializer's
// error behavior: a refactor that turns a clean rejection into a crash,
// a wrong code, or a vague message fails here. Regenerate the corpus
// with the make_wire_corpus tool after intentional format changes.
//
//===----------------------------------------------------------------------===//

#include "fhe/Serializer.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace ace;
using namespace ace::fhe;

#ifndef ACE_CORPUS_DIR
#error "ACE_CORPUS_DIR must point at tests/corpus/wire"
#endif

namespace {

/// Must match the fuzz-context parameters the corpus was generated under
/// (tests/make_wire_corpus.cpp, fuzz/fuzz_deserialize.cpp).
const Context &corpusContext() {
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

/// The corpus parameters with 5 rescale primes: a chain whose hybrid key
/// switching uses 2 special primes (the "hybrid-switchkey" loader).
const Context &hybridCorpusContext() {
  static Context *Ctx = [] {
    CkksParams P = corpusContext().params();
    P.NumRescaleModuli = 5;
    return new Context(P);
  }();
  return *Ctx;
}

std::vector<uint8_t> readHex(const std::string &Path, bool &Ok) {
  std::ifstream IS(Path);
  Ok = static_cast<bool>(IS);
  std::vector<uint8_t> Out;
  std::string Line;
  auto Nibble = [](char C) -> int {
    if (C >= '0' && C <= '9')
      return C - '0';
    if (C >= 'a' && C <= 'f')
      return C - 'a' + 10;
    return -1;
  };
  while (std::getline(IS, Line)) {
    for (size_t I = 0; I + 1 < Line.size(); I += 2) {
      int Hi = Nibble(Line[I]), Lo = Nibble(Line[I + 1]);
      if (Hi < 0 || Lo < 0) {
        Ok = false;
        return Out;
      }
      Out.push_back(static_cast<uint8_t>(Hi << 4 | Lo));
    }
  }
  return Out;
}

/// Feeds \p Blob to the loader named in the manifest and returns its
/// Status (success Status for an unexpectedly clean parse).
Status runLoader(const std::string &Loader,
                 const std::vector<uint8_t> &Blob) {
  const Context &Ctx = corpusContext();
  const uint8_t *D = Blob.data();
  size_t N = Blob.size();
  if (Loader == "params")
    return wire::loadParams(D, N).status();
  if (Loader == "plaintext")
    return wire::loadPlaintext(Ctx, D, N).status();
  if (Loader == "ciphertext")
    return wire::loadCiphertext(Ctx, D, N).status();
  if (Loader == "publickey")
    return wire::loadPublicKey(Ctx, D, N).status();
  if (Loader == "secretkey")
    return wire::loadSecretKey(Ctx, D, N).status();
  if (Loader == "switchkey")
    return wire::loadSwitchKey(Ctx, D, N).status();
  if (Loader == "evalkeys")
    return wire::loadEvalKeys(Ctx, D, N).status();
  if (Loader == "hybrid-switchkey")
    return wire::loadSwitchKey(hybridCorpusContext(), D, N).status();
  return Status::internal("corpus MANIFEST names unknown loader '" +
                          Loader + "'");
}

struct ManifestEntry {
  std::string File, Loader, Code, Substring;
};

std::vector<ManifestEntry> readManifest(const std::string &Dir) {
  std::vector<ManifestEntry> Entries;
  std::ifstream IS(Dir + "/MANIFEST");
  std::string Line;
  while (std::getline(IS, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    ManifestEntry E;
    std::getline(LS, E.File, '\t');
    std::getline(LS, E.Loader, '\t');
    std::getline(LS, E.Code, '\t');
    std::getline(LS, E.Substring);
    Entries.push_back(std::move(E));
  }
  return Entries;
}

TEST(SerializerCorpusTest, EveryBlobFailsWithItsPinnedError) {
  const std::string Dir = ACE_CORPUS_DIR;
  auto Entries = readManifest(Dir);
  ASSERT_GE(Entries.size(), 15u)
      << "corpus manifest missing or implausibly small: " << Dir;
  for (const auto &E : Entries) {
    bool Ok = false;
    auto Blob = readHex(Dir + "/" + E.File + ".hex", Ok);
    ASSERT_TRUE(Ok) << "cannot read corpus blob " << E.File;
    Status S = runLoader(E.Loader, Blob);
    ASSERT_FALSE(S.ok()) << E.File << ": malformed blob parsed cleanly";
    EXPECT_STREQ(errorCodeName(S.code()), E.Code.c_str())
        << E.File << ": " << S.message();
    EXPECT_NE(S.message().find(E.Substring), std::string::npos)
        << E.File << ": diagnostic \"" << S.message()
        << "\" lacks pinned substring \"" << E.Substring << "\"";
  }
}

TEST(SerializerCorpusTest, StreamPathAgreesWithBufferPath) {
  // Both load paths share one validator; the corpus must fail identically
  // through std::istream.
  const std::string Dir = ACE_CORPUS_DIR;
  const Context &Ctx = corpusContext();
  for (const auto &E : readManifest(Dir)) {
    if (E.Loader != "ciphertext")
      continue;
    // Trailing bytes are legal on a stream (objects concatenate there),
    // so that case intentionally diverges from the buffer path.
    if (E.File == "trailing-bytes")
      continue;
    bool Ok = false;
    auto Blob = readHex(Dir + "/" + E.File + ".hex", Ok);
    ASSERT_TRUE(Ok);
    std::istringstream IS(
        std::string(reinterpret_cast<const char *>(Blob.data()),
                    Blob.size()));
    auto R = wire::loadCiphertext(Ctx, IS);
    ASSERT_FALSE(R.ok()) << E.File;
    EXPECT_STREQ(errorCodeName(R.status().code()), E.Code.c_str())
        << E.File << ": " << R.status().message();
  }
}

} // namespace
