//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "fhe/ModArith.h"

#include "support/Status.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

using namespace ace;
using namespace ace::fhe;

uint64_t ace::fhe::powMod(uint64_t Base, uint64_t Exp, uint64_t P) {
  uint64_t Result = 1;
  uint64_t Acc = Base % P;
  while (Exp > 0) {
    if (Exp & 1)
      Result = mulMod(Result, Acc, P);
    Acc = mulMod(Acc, Acc, P);
    Exp >>= 1;
  }
  return Result;
}

Barrett::Barrett(uint64_t Modulus) : P(Modulus) {
  assert(Modulus >= 3 && (Modulus & 1) && (Modulus >> 62) == 0 &&
         "Barrett modulus must be odd and in [3, 2^62)");
  // floor((2^128 - 1) / P) == floor(2^128 / P): an odd P does not divide
  // 2^128.
  unsigned __int128 Ratio = ~static_cast<unsigned __int128>(0) / Modulus;
  RatioHi = static_cast<uint64_t>(Ratio >> 64);
  RatioLo = static_cast<uint64_t>(Ratio);
}

uint64_t ace::fhe::invMod(uint64_t A, uint64_t P) {
  assert(A % P != 0 && "cannot invert zero");
  return powMod(A, P - 2, P);
}

bool ace::fhe::isPrime(uint64_t X) {
  if (X < 2)
    return false;
  for (uint64_t Small : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                         23ULL, 29ULL, 31ULL, 37ULL}) {
    if (X == Small)
      return true;
    if (X % Small == 0)
      return false;
  }
  // Miller-Rabin with the deterministic witness set for 64-bit integers.
  uint64_t D = X - 1;
  int R = 0;
  while ((D & 1) == 0) {
    D >>= 1;
    ++R;
  }
  for (uint64_t Witness : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                           23ULL, 29ULL, 31ULL, 37ULL}) {
    uint64_t Y = powMod(Witness, D, X);
    if (Y == 1 || Y == X - 1)
      continue;
    bool Composite = true;
    for (int I = 0; I < R - 1; ++I) {
      Y = mulMod(Y, Y, X);
      if (Y == X - 1) {
        Composite = false;
        break;
      }
    }
    if (Composite)
      return false;
  }
  return true;
}

/// A nontrivial factor of the odd composite \p N by Pollard's rho with
/// Floyd cycle detection (retrying with the next constant when a cycle
/// closes without one).
static uint64_t pollardRho(uint64_t N) {
  for (uint64_t C = 1;; ++C) {
    auto Step = [&](uint64_t V) { return (mulMod(V, V, N) + C) % N; };
    uint64_t X = 2, Y = 2, D = 1;
    while (D == 1) {
      X = Step(X);
      Y = Step(Step(Y));
      D = std::gcd(X > Y ? X - Y : Y - X, N);
    }
    if (D != N)
      return D;
  }
}

/// Appends the prime factors of \p N (with repetition) to \p Factors.
static void factorInto(uint64_t N, std::vector<uint64_t> &Factors) {
  if (N == 1)
    return;
  if (isPrime(N)) {
    Factors.push_back(N);
    return;
  }
  uint64_t D = pollardRho(N);
  factorInto(D, Factors);
  factorInto(N / D, Factors);
}

uint64_t ace::fhe::findGenerator(uint64_t P) {
  // The distinct prime factors of P-1: small ones by trial division, the
  // cofactor (up to ~2^50 for the 60-bit primes P = 2N*k + 1) by
  // Pollard's rho, whose cost does not depend on the cofactor's largest
  // factor the way trial division's does.
  uint64_t Phi = P - 1;
  std::vector<uint64_t> Factors;
  uint64_t M = Phi;
  for (uint64_t F = 2; F < 1024 && F * F <= M; ++F) {
    if (M % F != 0)
      continue;
    Factors.push_back(F);
    while (M % F == 0)
      M /= F;
  }
  factorInto(M, Factors);
  std::sort(Factors.begin(), Factors.end());
  Factors.erase(std::unique(Factors.begin(), Factors.end()), Factors.end());

  for (uint64_t Candidate = 2; Candidate < P; ++Candidate) {
    bool IsGenerator = true;
    for (uint64_t F : Factors) {
      if (powMod(Candidate, Phi / F, P) == 1) {
        IsGenerator = false;
        break;
      }
    }
    if (IsGenerator)
      return Candidate;
  }
  reportFatalError("no generator found for modulus " + std::to_string(P) +
                   " (modulus not prime?)");
}

uint64_t ace::fhe::findPrimitiveRoot(uint64_t Order, uint64_t P) {
  assert((P - 1) % Order == 0 && "order must divide P-1");
  uint64_t Generator = findGenerator(P);
  uint64_t Root = powMod(Generator, (P - 1) / Order, P);
  assert(powMod(Root, Order, P) == 1 && "root order check failed");
  assert(powMod(Root, Order / 2, P) != 1 && "root is not primitive");
  return Root;
}

std::vector<uint64_t>
ace::fhe::generateNttPrimes(int Bits, uint64_t Factor, size_t Count,
                            const std::vector<uint64_t> &Exclude) {
  assert(Bits >= 20 && Bits <= 60 && "prime size out of supported range");
  std::vector<uint64_t> Primes;
  // Scan candidates p = k*Factor + 1 downward from 2^Bits.
  uint64_t Top = (1ULL << Bits);
  uint64_t K = (Top - 1) / Factor;
  while (Primes.size() < Count && K > 1) {
    uint64_t Candidate = K * Factor + 1;
    --K;
    if (Candidate >= Top || (Top >> 1) >= Candidate)
      continue;
    if (!isPrime(Candidate))
      continue;
    if (std::find(Exclude.begin(), Exclude.end(), Candidate) != Exclude.end())
      continue;
    Primes.push_back(Candidate);
  }
  if (Primes.size() < Count)
    reportFatalError("not enough NTT-friendly " + std::to_string(Bits) +
                     "-bit primes with factor " + std::to_string(Factor) +
                     ": needed " + std::to_string(Count) + ", found " +
                     std::to_string(Primes.size()) + " (with " +
                     std::to_string(Exclude.size()) + " excluded)");
  return Primes;
}

std::vector<uint64_t>
ace::fhe::generateBalancedNttPrimes(int Bits, uint64_t Factor, size_t Count,
                                    const std::vector<uint64_t> &Exclude) {
  assert(Bits >= 20 && Bits <= 60 && "prime size out of supported range");
  double Target = std::ldexp(1.0, Bits);
  uint64_t Center = (1ULL << Bits) / Factor;

  // Collect the nearest candidates on both sides of 2^Bits.
  auto IsUsable = [&](uint64_t Candidate) {
    return isPrime(Candidate) &&
           std::find(Exclude.begin(), Exclude.end(), Candidate) ==
               Exclude.end();
  };
  std::vector<uint64_t> Pool;
  uint64_t Lo = Center, Hi = Center + 1;
  while (Pool.size() < 2 * Count + 4 && Lo > 1) {
    uint64_t CandLo = Lo * Factor + 1;
    if (IsUsable(CandLo))
      Pool.push_back(CandLo);
    uint64_t CandHi = Hi * Factor + 1;
    if (CandHi < (3ULL << (Bits - 1)) && IsUsable(CandHi))
      Pool.push_back(CandHi);
    --Lo;
    ++Hi;
  }
  if (Pool.size() < Count)
    reportFatalError("not enough NTT-friendly primes near 2^" +
                     std::to_string(Bits) + " with factor " +
                     std::to_string(Factor) + ": needed " +
                     std::to_string(Count) + ", found " +
                     std::to_string(Pool.size()) + " (with " +
                     std::to_string(Exclude.size()) + " excluded)");
  std::sort(Pool.begin(), Pool.end(), [&](uint64_t A, uint64_t B) {
    return std::fabs(A - Target) < std::fabs(B - Target);
  });
  Pool.resize(2 * Count > Pool.size() ? Pool.size() : 2 * Count);

  // Greedy ordering: keep the cumulative log-deviation from Bits*i minimal
  // so the scale after any number of rescales stays near 2^Bits.
  std::vector<uint64_t> Result;
  std::vector<bool> Used(Pool.size(), false);
  double Deviation = 0.0;
  for (size_t Picked = 0; Picked < Count; ++Picked) {
    size_t Best = SIZE_MAX;
    double BestDev = 0.0;
    for (size_t I = 0; I < Pool.size(); ++I) {
      if (Used[I])
        continue;
      double Dev =
          Deviation + std::log2(static_cast<double>(Pool[I])) - Bits;
      if (Best == SIZE_MAX || std::fabs(Dev) < std::fabs(BestDev)) {
        Best = I;
        BestDev = Dev;
      }
    }
    assert(Best != SIZE_MAX && "prime pool exhausted");
    Used[Best] = true;
    Deviation = BestDev;
    Result.push_back(Pool[Best]);
  }
  return Result;
}
