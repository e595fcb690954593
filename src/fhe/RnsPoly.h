//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A polynomial of Z[X]/(X^N + 1) stored in residue-number-system form:
/// one length-N residue vector per active modulus. Components 0..NumQ-1
/// correspond to the chain primes q_0..q_{NumQ-1}; optional trailing
/// components hold the K key-switching special primes. Polynomials track
/// whether they are in coefficient or NTT (evaluation) domain; arithmetic
/// asserts domain compatibility. These are the values the POLY level of
/// paper Table 7 operates on.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_FHE_RNSPOLY_H
#define ACE_FHE_RNSPOLY_H

#include "fhe/Context.h"
#include "support/LimbPool.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ace {
namespace fhe {

/// An RNS polynomial bound to a Context.
class RnsPoly {
public:
  RnsPoly() = default;

  /// Creates a zero polynomial with \p NumQ chain components, optionally
  /// extended by the special primes.
  RnsPoly(const Context &Ctx, size_t NumQ, bool HasSpecial, bool NttForm);

  const Context &context() const {
    assert(Ctx && "polynomial not bound to a context");
    return *Ctx;
  }

  /// True when bound to a context (a default-constructed polynomial is
  /// not). Release-mode guard for boundary code (serialization) that must
  /// not trust its input's invariants.
  bool bound() const { return Ctx != nullptr; }

  /// Number of active chain primes.
  size_t numQ() const { return NumQ; }

  /// True when the trailing components are the special primes.
  bool hasSpecial() const { return HasSpecial; }

  /// Number of special-prime components (0 or Context::numSpecial()).
  size_t numSpecial() const { return HasSpecial ? Ctx->numSpecial() : 0; }

  /// Total number of RNS components (numQ + specials).
  size_t numComponents() const { return NumQ + numSpecial(); }

  /// True when stored in the NTT (evaluation) domain.
  bool isNtt() const { return NttForm; }

  /// Modulus index (into Context::nttTable numbering) of component \p I.
  size_t modIndex(size_t I) const {
    assert(I < numComponents() && "component out of range");
    return I < NumQ ? I : Ctx->specialIndex(I - NumQ);
  }

  /// The modulus of component \p I.
  uint64_t modulus(size_t I) const { return Ctx->modulus(modIndex(I)); }

  /// Mutable residues of component \p I (length N).
  uint64_t *component(size_t I) {
    assert(I < numComponents() && "component out of range");
    return Data.data() + I * Ctx->degree();
  }
  const uint64_t *component(size_t I) const {
    assert(I < numComponents() && "component out of range");
    return Data.data() + I * Ctx->degree();
  }

  /// Converts to the NTT domain in place (no-op when already there).
  void toNtt();

  /// Converts to the coefficient domain in place (no-op when already
  /// there).
  void toCoeff();

  /// this += Other (same shape and domain).
  void addInPlace(const RnsPoly &Other);

  /// this -= Other (same shape and domain).
  void subInPlace(const RnsPoly &Other);

  /// this = -this.
  void negateInPlace();

  /// this *= Other pointwise; both must be in the NTT domain.
  void mulInPlace(const RnsPoly &Other);

  /// Returns this * Other pointwise (NTT domain).
  RnsPoly mul(const RnsPoly &Other) const;

  /// Fused this += A * B (all NTT domain, same shape).
  void mulAddInPlace(const RnsPoly &A, const RnsPoly &B);

  /// Multiplies every component by a per-component scalar table
  /// \p ScalarPerComp (size numComponents()).
  void mulScalarPerComponent(const std::vector<uint64_t> &ScalarPerComp);

  /// Multiplies every component by the residues of the integer \p Scalar.
  void mulScalarInt(uint64_t Scalar);

  /// Applies the Galois automorphism X -> X^Galois. Coefficient domain
  /// only; \p Galois must be odd and in [1, 2N).
  RnsPoly automorphism(uint64_t Galois) const;

  /// Applies the Galois automorphism X -> X^Galois in the NTT domain,
  /// where it is a pure index permutation of every component (no
  /// coefficient negation: the automorphism permutes the odd-power
  /// evaluation points). Exactly equal to
  /// toCoeff -> automorphism -> toNtt, component for component, which is
  /// what makes hoisted key switching bit-identical to the sequential
  /// path (see docs/architecture.md). NTT domain only.
  RnsPoly automorphismNtt(uint64_t Galois) const;

  /// Returns a copy restricted to the first \p NumQ chain components,
  /// optionally keeping the special components. Valid in either domain
  /// (components are independent).
  RnsPoly restrictedCopy(size_t NumQ, bool KeepSpecial) const;

  /// Drops the last chain component (rescale/modswitch bookkeeping is
  /// handled by the Evaluator; this only shrinks storage).
  void dropLastQ();

  /// Bytes of residue storage held by this polynomial.
  size_t byteSize() const { return Data.size() * sizeof(uint64_t); }

  /// Bytes of that storage drawn from the limb pool (LimbStorage).
  size_t pooledBytes() const { return Data.pooledBytes(); }

  /// Asserts shape/domain compatibility with \p Other.
  void checkCompatible(const RnsPoly &Other) const {
    assert(Ctx == Other.Ctx && "polynomials from different contexts");
    assert(NumQ == Other.NumQ && HasSpecial == Other.HasSpecial &&
           "polynomial shape mismatch");
    assert(NttForm == Other.NttForm && "polynomial domain mismatch");
  }

private:
  const Context *Ctx = nullptr;
  size_t NumQ = 0;
  bool HasSpecial = false;
  bool NttForm = false;
  /// Residue storage recycled through the process LimbPool so
  /// steady-state evaluator ops stop hitting the heap allocator (see
  /// docs/memory.md).
  LimbStorage Data;
};

} // namespace fhe
} // namespace ace

#endif // ACE_FHE_RNSPOLY_H
