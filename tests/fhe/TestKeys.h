//===----------------------------------------------------------------------===//
// Key setup shared by the fhe test fixtures: relin and conjugation keys
// go into an EvalKeys, every rotation/Galois key into a RotationKeyCache,
// generated at once in the order an eager executor uses.
//===----------------------------------------------------------------------===//

#ifndef ACE_TESTS_FHE_TESTKEYS_H
#define ACE_TESTS_FHE_TESTKEYS_H

#include "fhe/Keys.h"

#include <gtest/gtest.h>

#include <vector>

namespace ace {
namespace fhe {

/// Generates the relin and conjugation keys into \p Keys, then declares
/// each rotation step (full chain) and each raw Galois element in
/// \p Cache and generates its key, in that order.
inline void makeTestKeys(KeyGenerator &Gen, EvalKeys &Keys,
                         RotationKeyCache &Cache,
                         const std::vector<int64_t> &Steps, bool NeedRelin,
                         bool NeedConjugate,
                         const std::vector<uint64_t> &GaloisElements = {}) {
  if (NeedRelin) {
    Keys.Relin = Gen.makeRelinKey();
    Keys.HasRelin = true;
  }
  if (NeedConjugate) {
    Keys.Conjugate = Gen.makeConjugationKey();
    Keys.HasConjugate = true;
  }
  auto Generate = [&](uint64_t Galois) {
    if (Galois != 1)
      EXPECT_TRUE(Cache.get(Galois).ok()) << "Galois element " << Galois;
  };
  for (int64_t Step : Steps)
    Generate(Cache.declareRotation(Step));
  for (uint64_t Galois : GaloisElements) {
    Cache.declareGalois(Galois);
    Generate(Galois);
  }
}

} // namespace fhe
} // namespace ace

#endif // ACE_TESTS_FHE_TESTKEYS_H
