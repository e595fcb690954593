//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RNS-CKKS scheme parameters and the shared Context object. A Context owns
/// the modulus chain (q_0 .. q_{L-1} plus the K key-switching special
/// primes), the NTT tables for every modulus, and the per-level
/// precomputations used by rescale and by hybrid key switching's basis
/// conversions. Every other runtime object (polynomials, keys, evaluator,
/// bootstrapper) references one Context.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_FHE_CONTEXT_H
#define ACE_FHE_CONTEXT_H

#include "fhe/ModArith.h"
#include "fhe/Ntt.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace ace {
namespace fhe {

/// User-facing RNS-CKKS parameter set.
///
/// The modulus chain is q_0 (LogFirstModulus bits), then NumRescaleModuli
/// primes of LogScale bits each, then the special primes of
/// LogSpecialModulus bits used only during key switching (how many is
/// derived from the chain, see keySwitchShape). The multiplicative depth
/// budget is NumRescaleModuli. The compiler's automatic parameter
/// selection (paper Sec. 4.4) produces values for this struct.
struct CkksParams {
  /// Ring degree N; a power of two.
  size_t RingDegree = 1ULL << 12;
  /// Number of plaintext slots; a power of two, at most RingDegree / 2.
  /// Fewer slots than N/2 selects sparse packing (required by the
  /// bootstrapper's linear transforms).
  size_t Slots = 1ULL << 11;
  /// log2 of the encoding scale Delta.
  int LogScale = 40;
  /// log2 of the base modulus q_0 (bounds output precision, paper Q_0).
  int LogFirstModulus = 50;
  /// Number of rescale primes = multiplicative depth budget.
  int NumRescaleModuli = 8;
  /// log2 of each key-switching special prime.
  int LogSpecialModulus = 59;
  /// Use a sparse ternary secret of Hamming weight 64 (standard practice
  /// for bootstrappable CKKS; bounds the ModRaise overflow count K).
  bool SparseSecret = false;
  /// Seed for all randomness derived from this context.
  uint64_t Seed = 1;

  /// True when the derived modulus chain is plausible (degree a power of
  /// two, slots in range, prime sizes in [20, 60]).
  bool valid() const;
};

/// The hybrid key-switching shape (Han and Ki, CT-RSA 2020): the chain is
/// cut into digits of DigitSize consecutive primes (q_0 first), and
/// NumSpecial special primes form the modulus P that a key switch divides
/// by. A switch key holds one (b, a) pair per digit over the active chain
/// primes plus the special primes; truncating a key to l primes keeps its
/// first digits(l) pairs, so a truncated key is a prefix of the full one.
struct KeySwitchShape {
  /// Chain primes per digit (alpha).
  size_t DigitSize = 1;
  /// Special primes (K).
  size_t NumSpecial = 1;

  /// Digits a key switch at \p NumQ active primes decomposes into.
  size_t digits(size_t NumQ) const {
    return (NumQ + DigitSize - 1) / DigitSize;
  }
};

/// Derives the key-switching shape from the parameters alone, so the
/// compiler's parameter selection, the runtime, the key ledger and the
/// wire format agree without building primes. At most three digits:
/// DigitSize = ceil(L / 3) for an L-prime chain, so a chain of at most
/// three primes keeps one prime per digit under one special prime. The
/// special primes' nominal product exceeds the largest nominal digit
/// product by floor(log2(DigitSize)) + 1 bits: a digit's share of the key
/// switch noise is its key error times the raised digit over P.
KeySwitchShape keySwitchShape(const CkksParams &Params);

/// Constants of one RNS basis conversion (Bajard et al.) from source
/// primes m_0..m_{s-1} with product M into other moduli: with
/// y_i = [x_i * (M/m_i)^{-1}]_{m_i}, sum_i y_i * (M/m_i) is x + u*M for
/// some 0 <= u < s, and subtracting v*M for v = round(sum_i y_i / m_i)
/// leaves x's representative in (-M/2, M/2] (the exact, centered
/// conversion; v is 0 for one source).
struct BasisConversion {
  /// Index (nttTable numbering) of the first source prime; the sources
  /// are consecutive.
  size_t FirstSource = 0;
  size_t NumSources = 0;
  /// [(M/m_i)^{-1}]_{m_i} per source, with its Shoup companion.
  std::vector<uint64_t> InvHat, InvHatShoup;
  /// 1 / m_i per source, for v.
  std::vector<double> InvSource;
  /// (M/m_i) mod t, indexed [target * NumSources + i] over every modulus
  /// of the context (nttTable numbering).
  std::vector<uint64_t> HatMod;
  /// -M mod t per target (nttTable numbering).
  std::vector<uint64_t> NegProductMod;

  const uint64_t *hatsFor(size_t Target) const {
    return HatMod.data() + Target * NumSources;
  }
};

/// Shared immutable state for one CKKS instantiation.
class Context {
public:
  /// Builds the modulus chain and all NTT tables. Asserts on invalid
  /// parameters (use CkksParams::valid() for recoverable checking).
  explicit Context(const CkksParams &Params);

  const CkksParams &params() const { return Params; }
  size_t degree() const { return Params.RingDegree; }
  size_t slots() const { return Params.Slots; }

  /// Number of q-chain primes (excluding the special primes).
  size_t chainLength() const { return QModuli.size(); }

  /// The i-th q-chain prime.
  uint64_t qModulus(size_t I) const { return QModuli[I]; }

  /// The hybrid key-switching shape, keySwitchShape(params()).
  const KeySwitchShape &keySwitch() const { return Shape; }

  /// Number of key-switching special primes (K).
  size_t numSpecial() const { return SpecialModuli.size(); }

  /// The \p K-th key-switching special prime; their product is P.
  uint64_t specialModulus(size_t K) const { return SpecialModuli[K]; }

  /// Any modulus by its nttTable() index.
  uint64_t modulus(size_t ModIndex) const {
    return ModIndex < QModuli.size()
               ? QModuli[ModIndex]
               : SpecialModuli[ModIndex - QModuli.size()];
  }

  /// NTT tables; index 0..chainLength()-1 are the q primes, then the
  /// special primes.
  const NttTable &nttTable(size_t ModIndex) const {
    return *NttTables[ModIndex];
  }

  /// Barrett reducer of modulus \p ModIndex (nttTable numbering).
  const Barrett &barrett(size_t ModIndex) const {
    return Reducers[ModIndex];
  }

  /// Index of the \p K-th special prime in the nttTable() numbering.
  size_t specialIndex(size_t K) const { return QModuli.size() + K; }

  /// Bytes of a switch key truncated to \p NumQ chain primes (0 or more
  /// than the chain = the full chain): digits(NumQ) pairs of polynomials
  /// over NumQ + K moduli. The key ledger's admission estimate is this
  /// formula, so it equals what key generation charges.
  size_t switchKeyBytes(size_t NumQ) const;

  /// inv(q_l) mod q_j, for rescaling from l+1 to l active primes (j < l).
  uint64_t invQLastModQ(size_t L, size_t J) const {
    return InvQLastModQ[L][J];
  }

  /// P mod q_j: the gadget value of q_j's digit in a switch key.
  uint64_t specialProductModQ(size_t J) const { return PModQ[J]; }

  /// inv(P) mod q_j, for mod-down after key switching.
  uint64_t invSpecialModQ(size_t J) const { return InvPModQ[J]; }

  /// ModUp conversion of digit \p Digit when its first \p Size primes are
  /// active (Size < DigitSize only for the last digit of a truncated
  /// level).
  const BasisConversion &modUpConversion(size_t Digit, size_t Size) const {
    return ModUpConversions[Digit][Size - 1];
  }

  /// ModDown conversion from the special primes into the chain.
  const BasisConversion &modDownConversion() const { return ModDown; }

  /// The default encoding scale Delta = 2^LogScale.
  double scale() const { return Scale; }

  /// q_0 as a double (used by the bootstrapper's EvalMod normalization).
  double firstModulus() const { return static_cast<double>(QModuli[0]); }

  /// Bytes occupied by one polynomial component (one modulus): N * 8.
  size_t bytesPerComponent() const { return Params.RingDegree * 8; }

  /// NTT-domain index permutation of the Galois automorphism
  /// X -> X^Galois. In the Harvey layout slot i of an NTT-form component
  /// holds the evaluation at psi^(2*bitrev(i)+1), so the automorphism is
  /// the modulus-independent gather result[i] = src[perm[i]] with
  /// perm[i] = bitrev(((Galois * (2*bitrev(i)+1)) mod 2N - 1) / 2) -- no
  /// coefficient negation, unlike the coefficient-domain automorphism
  /// (see docs/architecture.md). Built lazily per Galois element and
  /// cached; thread-safe, but callers inside parallelFor regions should
  /// warm the cache first so workers only hit the fast path.
  const std::vector<uint32_t> &galoisNttPermutation(uint64_t Galois) const;

private:
  CkksParams Params;
  KeySwitchShape Shape;
  std::vector<uint64_t> QModuli;
  std::vector<uint64_t> SpecialModuli;
  std::vector<std::unique_ptr<NttTable>> NttTables;
  std::vector<Barrett> Reducers;
  std::vector<std::vector<uint64_t>> InvQLastModQ;
  std::vector<uint64_t> PModQ;
  std::vector<uint64_t> InvPModQ;
  /// [digit][active size - 1].
  std::vector<std::vector<BasisConversion>> ModUpConversions;
  BasisConversion ModDown;
  double Scale = 0.0;
  /// Lazily built Galois NTT permutations, keyed by Galois element.
  mutable std::mutex GaloisPermMutex;
  mutable std::map<uint64_t, std::vector<uint32_t>> GaloisNttPerms;
};

} // namespace fhe
} // namespace ace

#endif // ACE_FHE_CONTEXT_H
