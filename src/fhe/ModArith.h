//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 64-bit prime-field arithmetic for RNS-CKKS. All moduli are NTT-friendly
/// primes p < 2^60 with p = 1 (mod 2N), so products fit in 128 bits and a
/// 2N-th root of unity exists. Hot paths (NTT butterflies, pointwise
/// products) use Shoup's precomputed-quotient multiplication; everything
/// else uses straightforward 128-bit reduction.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_FHE_MODARITH_H
#define ACE_FHE_MODARITH_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ace {
namespace fhe {

/// Adds two residues modulo \p P. Inputs must already be reduced.
inline uint64_t addMod(uint64_t A, uint64_t B, uint64_t P) {
  assert(A < P && B < P && "addMod operands must be reduced");
  uint64_t Sum = A + B;
  return Sum >= P ? Sum - P : Sum;
}

/// Subtracts \p B from \p A modulo \p P. Inputs must already be reduced.
inline uint64_t subMod(uint64_t A, uint64_t B, uint64_t P) {
  assert(A < P && B < P && "subMod operands must be reduced");
  return A >= B ? A - B : A + P - B;
}

/// Negates \p A modulo \p P.
inline uint64_t negMod(uint64_t A, uint64_t P) {
  assert(A < P && "negMod operand must be reduced");
  return A == 0 ? 0 : P - A;
}

/// Multiplies two residues modulo \p P via 128-bit reduction.
inline uint64_t mulMod(uint64_t A, uint64_t B, uint64_t P) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(A) * B) % P);
}

/// Shoup multiplication: computes A*B mod P where \p BShoup is
/// floor(B * 2^64 / P). Roughly 2x faster than mulMod when B is reused
/// (twiddle factors, plaintext constants).
inline uint64_t mulModShoup(uint64_t A, uint64_t B, uint64_t BShoup,
                            uint64_t P) {
  uint64_t Q = static_cast<uint64_t>(
      (static_cast<unsigned __int128>(A) * BShoup) >> 64);
  uint64_t R = A * B - Q * P;
  return R >= P ? R - P : R;
}

/// Precomputes the Shoup companion floor(B * 2^64 / P) for mulModShoup.
inline uint64_t shoupPrecompute(uint64_t B, uint64_t P) {
  assert(B < P && "shoup operand must be reduced");
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(B) << 64) / P);
}

/// Barrett reduction modulo a fixed \p P < 2^62 with the precomputed
/// ratio floor(2^128 / P): the division-free replacement for a hardware
/// `%` in per-coefficient loops (rescale, ModRaise, RNS basis
/// conversion). Results equal `X % P` exactly.
struct Barrett {
  uint64_t P = 0;
  uint64_t RatioHi = 0; ///< high word of floor(2^128 / P) = floor(2^64 / P)
  uint64_t RatioLo = 0; ///< low word of floor(2^128 / P)

  Barrett() = default;
  explicit Barrett(uint64_t Modulus);

  /// X mod P for any 64-bit \p X. The quotient estimate
  /// floor(X * RatioHi / 2^64) is at most one short, so one conditional
  /// subtraction finishes.
  uint64_t reduce(uint64_t X) const {
    uint64_t Q = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(X) * RatioHi) >> 64);
    uint64_t R = X - Q * P;
    return R >= P ? R - P : R;
  }

  /// X mod P for \p X < 2^127 (e.g. a sum of up to 32 products of
  /// residues below 2^61). The dropped low-order partial products and
  /// the ratio's truncation together lose less than one quotient unit,
  /// so one conditional subtraction finishes; the quotient is only
  /// needed modulo 2^64 because the remainder is below 2^64.
  uint64_t reduce128(unsigned __int128 X) const {
    assert((X >> 127) == 0 && "reduce128 input must be below 2^127");
    uint64_t X0 = static_cast<uint64_t>(X);
    uint64_t X1 = static_cast<uint64_t>(X >> 64);
    unsigned __int128 Mid =
        ((static_cast<unsigned __int128>(X0) * RatioLo) >> 64) +
        static_cast<unsigned __int128>(X0) * RatioHi +
        static_cast<unsigned __int128>(X1) * RatioLo;
    uint64_t Q = static_cast<uint64_t>(Mid >> 64) + X1 * RatioHi;
    uint64_t R = X0 - Q * P;
    return R >= P ? R - P : R;
  }
};

/// Computes Base^Exp mod P by square-and-multiply.
uint64_t powMod(uint64_t Base, uint64_t Exp, uint64_t P);

/// Computes the inverse of \p A modulo prime \p P (Fermat). \p A must be
/// nonzero mod P.
uint64_t invMod(uint64_t A, uint64_t P);

/// Deterministic Miller-Rabin primality test, exact for all 64-bit inputs.
bool isPrime(uint64_t X);

/// Finds a generator of the multiplicative group mod prime \p P.
uint64_t findGenerator(uint64_t P);

/// Finds a primitive \p Order-th root of unity modulo prime \p P.
/// \p Order must divide P-1.
uint64_t findPrimitiveRoot(uint64_t Order, uint64_t P);

/// Generates \p Count distinct NTT-friendly primes of roughly \p Bits bits
/// with p = 1 (mod \p Factor), largest first, skipping any prime already in
/// \p Exclude. Asserts on failure (the prime density makes failure
/// practically impossible for Bits in [20, 60]).
std::vector<uint64_t> generateNttPrimes(int Bits, uint64_t Factor,
                                        size_t Count,
                                        const std::vector<uint64_t> &Exclude);

/// Like generateNttPrimes, but picks the primes nearest to 2^Bits (from
/// both sides) and orders them so every partial product stays as close to
/// 2^(Bits*i) as possible. Rescale primes chosen this way keep ciphertext
/// scales near the nominal Delta along the whole chain, bounding the
/// scale drift of additions between differently-rescaled branches.
std::vector<uint64_t>
generateBalancedNttPrimes(int Bits, uint64_t Factor, size_t Count,
                          const std::vector<uint64_t> &Exclude);

} // namespace fhe
} // namespace ace

#endif // ACE_FHE_MODARITH_H
