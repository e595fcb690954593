//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "fhe/Context.h"

#include "fhe/ModArith.h"
#include "fhe/PolyBackend.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace ace;
using namespace ace::fhe;

bool CkksParams::valid() const {
  if (RingDegree < 8 || (RingDegree & (RingDegree - 1)) != 0)
    return false;
  if (Slots < 1 || Slots > RingDegree / 2 || (Slots & (Slots - 1)) != 0)
    return false;
  if (LogScale < 20 || LogScale > 60)
    return false;
  if (LogFirstModulus < LogScale || LogFirstModulus > 60)
    return false;
  if (NumRescaleModuli < 0 || NumRescaleModuli > 60)
    return false;
  if (LogSpecialModulus < LogFirstModulus || LogSpecialModulus > 60)
    return false;
  return true;
}

KeySwitchShape ace::fhe::keySwitchShape(const CkksParams &P) {
  constexpr size_t MaxDigits = 3;
  size_t L = 1 + static_cast<size_t>(std::max(P.NumRescaleModuli, 0));
  KeySwitchShape S;
  S.DigitSize = (L + MaxDigits - 1) / MaxDigits;
  // Nominal digit widths: the first digit holds q_0, later digits hold
  // only rescale primes.
  int Alpha = static_cast<int>(S.DigitSize);
  int FirstDigitBits = P.LogFirstModulus +
                       (std::min(Alpha, static_cast<int>(L)) - 1) * P.LogScale;
  int MaxDigitBits = L > S.DigitSize
                         ? std::max(FirstDigitBits, Alpha * P.LogScale)
                         : FirstDigitBits;
  // floor(log2(alpha)) + 1 bits of margin keep P above alpha times a
  // digit product even where nominal widths round down (the raised digit
  // is centered, so it stays far below). One prime per digit needs none.
  int Margin = 0;
  while (Alpha > 1 && (1 << Margin) <= Alpha)
    ++Margin;
  int Need = MaxDigitBits + Margin;
  S.NumSpecial = static_cast<size_t>(
      std::max(1, (Need + P.LogSpecialModulus - 1) / P.LogSpecialModulus));
  return S;
}

/// Builds the fast-basis-conversion constants from the consecutive
/// sources Moduli[First, First + Count) into every modulus of \p Moduli.
/// Hats come from prefix/suffix products, O(Count) per target.
static BasisConversion makeConversion(const std::vector<uint64_t> &Moduli,
                                      size_t First, size_t Count) {
  assert(Count >= 1 && Count <= 31 &&
         "basis conversion sums must stay below 2^127 (see Barrett)");
  BasisConversion Conv;
  Conv.FirstSource = First;
  Conv.NumSources = Count;
  Conv.HatMod.resize(Moduli.size() * Count);
  std::vector<uint64_t> Prefix(Count + 1), Suffix(Count + 1);
  for (size_t T = 0; T < Moduli.size(); ++T) {
    uint64_t M = Moduli[T];
    Prefix[0] = Suffix[Count] = 1 % M;
    for (size_t I = 0; I < Count; ++I)
      Prefix[I + 1] = mulMod(Prefix[I], Moduli[First + I] % M, M);
    for (size_t I = Count; I-- > 0;)
      Suffix[I] = mulMod(Suffix[I + 1], Moduli[First + I] % M, M);
    for (size_t I = 0; I < Count; ++I)
      Conv.HatMod[T * Count + I] = mulMod(Prefix[I], Suffix[I + 1], M);
    Conv.NegProductMod.push_back(negMod(Prefix[Count], M));
  }
  for (size_t I = 0; I < Count; ++I) {
    uint64_t M = Moduli[First + I];
    uint64_t Inv = invMod(Conv.HatMod[(First + I) * Count + I], M);
    Conv.InvHat.push_back(Inv);
    Conv.InvHatShoup.push_back(shoupPrecompute(Inv, M));
    Conv.InvSource.push_back(1.0 / static_cast<double>(M));
  }
  return Conv;
}

Context::Context(const CkksParams &P) : Params(P), Shape(keySwitchShape(P)) {
  assert(P.valid() && "invalid CKKS parameters");
  // Pin the poly-ops backend now (CPUID probe + ACE_POLY_BACKEND
  // resolution, docs/kernels.md): the choice is per-process and must be
  // settled before any FHE work, not lazily inside a hot loop.
  (void)activePolyBackend();
  uint64_t TwoN = 2 * P.RingDegree;

  // Build the chain: one q_0 prime, NumRescaleModuli rescale primes, the
  // special primes. Primes of equal bit width must be distinct, so each
  // generation round excludes everything chosen so far.
  std::vector<uint64_t> Exclude;
  auto Take = [&](int Bits, size_t Count) {
    std::vector<uint64_t> Got = generateNttPrimes(Bits, TwoN, Count, Exclude);
    Exclude.insert(Exclude.end(), Got.begin(), Got.end());
    return Got;
  };

  QModuli = Take(P.LogFirstModulus, 1);
  if (P.NumRescaleModuli > 0) {
    // Rescale primes balanced around 2^LogScale keep the scale close to
    // Delta along the whole chain (bounding add-time scale drift).
    std::vector<uint64_t> Rescale = generateBalancedNttPrimes(
        P.LogScale, TwoN, static_cast<size_t>(P.NumRescaleModuli), Exclude);
    Exclude.insert(Exclude.end(), Rescale.begin(), Rescale.end());
    QModuli.insert(QModuli.end(), Rescale.begin(), Rescale.end());
  }
  SpecialModuli = Take(P.LogSpecialModulus, Shape.NumSpecial);

  std::vector<uint64_t> Moduli = QModuli;
  Moduli.insert(Moduli.end(), SpecialModuli.begin(), SpecialModuli.end());
  for (uint64_t M : Moduli) {
    NttTables.push_back(std::make_unique<NttTable>(P.RingDegree, M));
    Reducers.emplace_back(M);
  }

  // Rescale precomputation: inv(q_l) mod q_j for every (l, j < l).
  size_t L = QModuli.size();
  InvQLastModQ.resize(L);
  for (size_t Last = 0; Last < L; ++Last) {
    InvQLastModQ[Last].resize(Last);
    for (size_t J = 0; J < Last; ++J)
      InvQLastModQ[Last][J] =
          invMod(QModuli[Last] % QModuli[J], QModuli[J]);
  }

  PModQ.resize(L);
  InvPModQ.resize(L);
  for (size_t J = 0; J < L; ++J) {
    uint64_t Q = QModuli[J];
    uint64_t Prod = 1;
    for (uint64_t Special : SpecialModuli)
      Prod = mulMod(Prod, Special % Q, Q);
    PModQ[J] = Prod;
    InvPModQ[J] = invMod(Prod, Q);
  }

  // Hybrid key switching: one ModUp conversion per (digit, active size),
  // because the last digit of a truncated level is partial, and one
  // ModDown conversion out of the special primes.
  size_t Alpha = Shape.DigitSize;
  ModUpConversions.resize(Shape.digits(L));
  for (size_t Digit = 0; Digit < ModUpConversions.size(); ++Digit) {
    size_t First = Digit * Alpha;
    for (size_t Size = 1; Size <= std::min(Alpha, L - First); ++Size)
      ModUpConversions[Digit].push_back(makeConversion(Moduli, First, Size));
  }
  ModDown = makeConversion(Moduli, L, SpecialModuli.size());
#ifndef NDEBUG
  // The nominal widths keySwitchShape counts must bound the real primes:
  // P exceeds DigitSize times every multi-prime digit product.
  double LogP = 0.0;
  for (uint64_t Special : SpecialModuli)
    LogP += std::log2(static_cast<double>(Special));
  for (size_t First = 0; Alpha > 1 && First < L; First += Alpha) {
    double LogDigit = std::log2(static_cast<double>(Alpha));
    for (size_t I = First; I < std::min(First + Alpha, L); ++I)
      LogDigit += std::log2(static_cast<double>(QModuli[I]));
    assert(LogP > LogDigit && "special primes too small for the digits");
  }
#endif

  Scale = std::ldexp(1.0, P.LogScale);
}

size_t Context::switchKeyBytes(size_t NumQ) const {
  if (NumQ == 0 || NumQ > chainLength())
    NumQ = chainLength();
  return Shape.digits(NumQ) * 2 * (NumQ + numSpecial()) *
         bytesPerComponent();
}

/// Reverses the low \p Bits bits of \p X.
static uint64_t reverseBits(uint64_t X, int Bits) {
  uint64_t Result = 0;
  for (int I = 0; I < Bits; ++I) {
    Result = (Result << 1) | (X & 1);
    X >>= 1;
  }
  return Result;
}

const std::vector<uint32_t> &
Context::galoisNttPermutation(uint64_t Galois) const {
  std::lock_guard<std::mutex> Lock(GaloisPermMutex);
  auto It = GaloisNttPerms.find(Galois);
  if (It != GaloisNttPerms.end())
    return It->second;

  size_t N = Params.RingDegree;
  uint64_t TwoN = 2 * N;
  assert(Galois % 2 == 1 && Galois < TwoN &&
         "Galois element must be an odd residue mod 2N");
  int LogN = 0;
  while ((size_t(1) << LogN) < N)
    ++LogN;

  // NTT slot i holds the evaluation at psi^(2*bitrev(i)+1); the
  // automorphism X -> X^Galois sends that evaluation point to
  // psi^(Galois*(2*bitrev(i)+1) mod 2N), whose slot index inverts the
  // same odd-exponent encoding. Galois is odd, so the product exponent
  // stays odd and the division below is exact.
  std::vector<uint32_t> Perm(N);
  for (size_t I = 0; I < N; ++I) {
    uint64_t Exp = (Galois * (2 * reverseBits(I, LogN) + 1)) % TwoN;
    Perm[I] = static_cast<uint32_t>(reverseBits((Exp - 1) / 2, LogN));
  }
  return GaloisNttPerms.emplace(Galois, std::move(Perm)).first->second;
}
