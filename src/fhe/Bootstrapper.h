//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CKKS bootstrapping for sparse packing (paper Secs. 2.1, 4.4). Pipeline:
///
///   ModRaise: reinterpret the level-0 ciphertext over the full chain;
///     the plaintext becomes m + q_0 * I with small integer overflow I.
///   SubSum: trace onto the packing subring (sparse packing only).
///   CoeffToSlot: homomorphic inverse-embedding via a BSGS matrix-vector
///     product, yielding the polynomial coefficients in the slots.
///   EvalMod: remove q_0 * I by approximating t mod q_0 with
///     (q_0/2pi) sin(2pi t / q_0): Chebyshev series of a scaled cosine,
///     then double-angle reconstruction. A message is at most Delta/q_0
///     of q_0 (2^-10 at the compiler's parameters), where the sine misses
///     its argument by a relative (2 pi Delta/q_0)^2 / 6 ~ 2^-17, far
///     below a refresh's error floor, so no arcsine correction follows.
///   SlotToCoeff: forward embedding back to coefficients.
///
/// The refresh target level is a parameter: the compiler's minimal-level
/// bootstrap placement (paper Sec. 4.4) passes exactly the depth the
/// remaining program needs, which shrinks every EvalMod multiplication.
/// The Expert baseline always refreshes to the chain top.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_FHE_BOOTSTRAPPER_H
#define ACE_FHE_BOOTSTRAPPER_H

#include "fhe/Chebyshev.h"
#include "fhe/Evaluator.h"

#include <map>
#include <vector>

namespace ace {
namespace fhe {

/// Tunables for the bootstrapping pipeline. The defaults are the one
/// configuration the compiler's depth estimate, the executor and the C
/// API (ace_keygen) all use.
struct BootstrapConfig {
  /// Bound on |I| after ModRaise. 12 is the standard choice for a sparse
  /// Hamming-weight-64 secret.
  int RangeK = 12;
  /// Double-angle iterations: the cosine is evaluated at angle/2^r and
  /// squared back up r times, cutting the Chebyshev degree ~2^r-fold.
  int DoubleAngleCount = 2;
  /// Degree of the Chebyshev approximation of the scaled cosine.
  int ChebyshevDegree = 39;
};

/// Levels a bootstrap consumes at the given geometry, computable without
/// instantiating a Context (the compiler's parameter selection needs it
/// before the chain length is fixed); a refresh to any target lands on
/// it exactly.
int estimateBootstrapDepth(size_t RingDegree, size_t Slots,
                           const BootstrapConfig &Config, int LogScale,
                           int LogFirstModulus);

/// Bootstrapping engine bound to an evaluator.
class Bootstrapper {
public:
  Bootstrapper(const Evaluator &Eval, BootstrapConfig Config = {});

  const BootstrapConfig &config() const { return Config; }

  /// Levels consumed between the raised chain top and the output:
  /// estimateBootstrapDepth at this context's geometry.
  int depthCost() const;

  /// Slot-rotation steps the BSGS linear transforms use; feed these to the
  /// rotation-key analysis.
  std::vector<int64_t> requiredRotations() const;

  /// Raw Galois elements the SubSum trace uses (they fix the subring, so
  /// they are not expressible as slot rotations).
  std::vector<uint64_t> requiredGaloisElements() const;

  /// Bootstrapping needs the conjugation key (real/imag separation).
  bool needsConjugation() const { return true; }

  /// Refreshes \p Ct so the result has exactly \p TargetNumQ active
  /// primes. The input may be at any level (it is switched to q_0 first)
  /// and must be at the context scale with |values| <= 1.
  Ciphertext bootstrap(const Ciphertext &Ct, size_t TargetNumQ) const;

  /// Release-mode validated variant of bootstrap(): verifies the sparse
  /// secret, the input scale (naming both scales and their ratio on
  /// mismatch), the chain depth the target needs, and that every
  /// required key (relin, conjugation, SubSum Galois, BSGS rotation) is
  /// present, returning a diagnostic Status instead of asserting.
  StatusOr<Ciphertext> checkedBootstrap(const Ciphertext &Ct,
                                        size_t TargetNumQ) const;

  /// Bytes held by the cached CoeffToSlot/SlotToCoeff plaintexts.
  size_t cachedPlaintextBytes() const;

private:
  const Evaluator &Eval;
  BootstrapConfig Config;
  ChebyshevEvaluator Cheb;
  /// Chebyshev coefficients of cos((2 pi (K2+1) u - pi/2) / 2^r) on [-1,1].
  std::vector<double> SineCoeffs;

  /// Subring replication factor N / (2 * slots).
  size_t span() const;
  /// Overflow bound after the SubSum trace: K2 = span * RangeK.
  int rangeBound() const;
  /// Total double-angle iterations: configured count + log2(span).
  int doubleAngles() const;
  /// Baby-step count for the BSGS matvec.
  size_t babySteps() const;

  /// Cached encoded diagonals, keyed by (matrix id, active prime count).
  mutable std::map<std::pair<int, size_t>, std::vector<Plaintext>> DiagCache;

  /// Returns the encoded diagonals of matrix \p MatrixId at \p NumQ
  /// primes (0 = CoeffToSlot, 1 = SlotToCoeff).
  const std::vector<Plaintext> &diagonals(int MatrixId, size_t NumQ) const;

  /// Builds the complex matrix entry M[row][col] for \p MatrixId.
  std::complex<double> matrixEntry(int MatrixId, size_t Row,
                                   size_t Col) const;

  /// BSGS homomorphic matrix-vector product (consumes one level).
  Ciphertext matvec(const Ciphertext &Ct, int MatrixId) const;

  /// EvalMod core: input u in [-1,1], output sin(2 pi (K2+1) u), which
  /// is 2 pi frac((K2+1) u) while that fraction is small.
  Ciphertext evalMod(const Ciphertext &U) const;

  /// Raises a one-prime ciphertext onto \p NumQ primes.
  Ciphertext modRaise(const Ciphertext &Ct, size_t NumQ) const;
};

} // namespace fhe
} // namespace ace

#endif // ACE_FHE_BOOTSTRAPPER_H
