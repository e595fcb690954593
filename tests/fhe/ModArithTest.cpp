//===----------------------------------------------------------------------===//
// Unit and property tests for prime-field arithmetic.
//===----------------------------------------------------------------------===//

#include "fhe/ModArith.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace ace;
using namespace ace::fhe;

namespace {

TEST(ModArithTest, AddSubRoundTrip) {
  const uint64_t P = 1000000007ULL;
  Rng R(1);
  for (int I = 0; I < 1000; ++I) {
    uint64_t A = R.uniform(P), B = R.uniform(P);
    EXPECT_EQ(subMod(addMod(A, B, P), B, P), A);
    EXPECT_EQ(addMod(subMod(A, B, P), B, P), A);
  }
}

TEST(ModArithTest, NegMod) {
  const uint64_t P = 97;
  EXPECT_EQ(negMod(0, P), 0u);
  for (uint64_t A = 1; A < P; ++A)
    EXPECT_EQ(addMod(A, negMod(A, P), P), 0u);
}

TEST(ModArithTest, MulModMatchesSmallCases) {
  EXPECT_EQ(mulMod(7, 8, 13), 56 % 13);
  EXPECT_EQ(mulMod(0, 12345, 13), 0u);
  // Near-overflow operands exercise the 128-bit path.
  const uint64_t P = (1ULL << 59) + 21 * (1ULL << 13) + 1;
  uint64_t A = P - 2, B = P - 3;
  // (P-2)(P-3) = P^2 - 5P + 6 = 6 (mod P).
  EXPECT_EQ(mulMod(A, B, P), 6u);
}

TEST(ModArithTest, ShoupMatchesPlain) {
  Rng R(2);
  const uint64_t P = (1ULL << 50) + (1ULL << 14) + 1; // any odd modulus
  for (int I = 0; I < 2000; ++I) {
    uint64_t A = R.uniform(P), B = R.uniform(P);
    uint64_t BS = shoupPrecompute(B, P);
    EXPECT_EQ(mulModShoup(A, B, BS, P), mulMod(A, B, P));
  }
}

TEST(ModArithTest, PowMod) {
  EXPECT_EQ(powMod(2, 10, 1000000007ULL), 1024u);
  EXPECT_EQ(powMod(5, 0, 97), 1u);
  // Fermat: a^(p-1) = 1.
  const uint64_t P = 1000003;
  Rng R(3);
  for (int I = 0; I < 50; ++I) {
    uint64_t A = 1 + R.uniform(P - 1);
    EXPECT_EQ(powMod(A, P - 1, P), 1u);
  }
}

TEST(ModArithTest, InvMod) {
  const uint64_t P = 1000000007ULL;
  Rng R(4);
  for (int I = 0; I < 200; ++I) {
    uint64_t A = 1 + R.uniform(P - 1);
    EXPECT_EQ(mulMod(A, invMod(A, P), P), 1u);
  }
}

TEST(ModArithTest, IsPrimeKnownValues) {
  EXPECT_FALSE(isPrime(0));
  EXPECT_FALSE(isPrime(1));
  EXPECT_TRUE(isPrime(2));
  EXPECT_TRUE(isPrime(3));
  EXPECT_FALSE(isPrime(4));
  EXPECT_TRUE(isPrime(1000000007ULL));
  EXPECT_FALSE(isPrime(1000000007ULL * 3));
  // Carmichael number 561 = 3*11*17 must be rejected.
  EXPECT_FALSE(isPrime(561));
  // Large Mersenne prime 2^61 - 1.
  EXPECT_TRUE(isPrime((1ULL << 61) - 1));
}

TEST(ModArithTest, PrimitiveRootOrder) {
  const uint64_t Order = 1 << 12;
  auto Primes = generateNttPrimes(40, Order, 3, {});
  for (uint64_t P : Primes) {
    uint64_t Root = findPrimitiveRoot(Order, P);
    EXPECT_EQ(powMod(Root, Order, P), 1u);
    EXPECT_NE(powMod(Root, Order / 2, P), 1u);
  }
}

/// Moduli of 30..61 bits: NTT primes up to 60 bits (the chain and
/// special primes), plus odd 61-bit values (balanced rescale primes may
/// exceed 2^60).
std::vector<uint64_t> barrettModuli() {
  std::vector<uint64_t> Moduli;
  for (int Bits = 30; Bits <= 60; Bits += 5)
    for (uint64_t P : generateNttPrimes(Bits, 256, 2, {}))
      Moduli.push_back(P);
  Moduli.push_back((1ULL << 61) - 1);
  Moduli.push_back((1ULL << 60) + 12345677);
  return Moduli;
}

/// Barrett::reduce replaces `V % Q` in rescale and ModRaise, whose inputs
/// are residues of another prime (below 2^61); it is exact on the whole
/// 64-bit range.
TEST(ModArithTest, BarrettReduceMatchesHardwareModulo) {
  Rng R(5);
  for (uint64_t P : barrettModuli()) {
    Barrett Red(P);
    std::vector<uint64_t> Inputs = {0,          1,
                                    P - 1,      P,
                                    P + 1,      2 * P - 1,
                                    2 * P,      3 * P - 1,
                                    ~0ULL,      ~0ULL - 1,
                                    1ULL << 61, (1ULL << 61) - 1};
    for (int I = 0; I < 2000; ++I) {
      Inputs.push_back(R.next64());
      Inputs.push_back(R.next64() >> 3); // below 2^61
      Inputs.push_back(R.uniform(2 * P));
    }
    for (uint64_t V : Inputs)
      ASSERT_EQ(Red.reduce(V), V % P) << V << " mod " << P;
  }
}

/// Where the source modulus is below twice the target, one conditional
/// subtraction equals the modulo (rescale between neighbouring primes,
/// ModRaise when q0 < 2q).
TEST(ModArithTest, ConditionalSubtractionCoversSourcesBelowTwiceTarget) {
  Rng R(6);
  for (uint64_t Q : barrettModuli()) {
    uint64_t Source = 2 * Q - 1;
    for (int I = 0; I < 2000; ++I) {
      uint64_t V = R.uniform(Source);
      ASSERT_EQ(V >= Q ? V - Q : V, V % Q);
    }
  }
}

/// Barrett::reduce128 finishes a basis-conversion sum: up to 31 products
/// of residues below 2^61 plus the exactness correction, i.e. any input
/// below 2^127.
TEST(ModArithTest, BarrettReduce128MatchesWideModulo) {
  Rng R(7);
  using U128 = unsigned __int128;
  const U128 Top = (static_cast<U128>(1) << 127) - 1;
  for (uint64_t P : barrettModuli()) {
    Barrett Red(P);
    std::vector<U128> Inputs = {0, 1, P - 1, P, static_cast<U128>(P) * P,
                                static_cast<U128>(P) * P - 1, Top,
                                Top - 1, static_cast<U128>(~0ULL) + 1};
    for (int I = 0; I < 2000; ++I) {
      Inputs.push_back(((static_cast<U128>(R.next64()) << 64) | R.next64()) &
                       Top);
      U128 Sum = 0;
      for (int Term = 0; Term < 31; ++Term)
        Sum += static_cast<U128>(R.next64() >> 3) * (R.next64() >> 3);
      Inputs.push_back(Sum);
    }
    for (U128 V : Inputs)
      ASSERT_EQ(Red.reduce128(V), static_cast<uint64_t>(V % P))
          << "mod " << P;
  }
}

TEST(ModArithTest, GeneratorIsTheSmallestPrimitiveElement) {
  // findGenerator factors p - 1 by Pollard's rho; it must still return
  // the smallest generator, which fixes every NTT table's roots. The
  // reference factors p - 1 by trial division (fast below 50 bits).
  auto Reference = [](uint64_t P) {
    std::vector<uint64_t> Factors;
    uint64_t M = P - 1;
    for (uint64_t F = 2; F * F <= M; ++F) {
      if (M % F != 0)
        continue;
      Factors.push_back(F);
      while (M % F == 0)
        M /= F;
    }
    if (M > 1)
      Factors.push_back(M);
    for (uint64_t C = 2;; ++C) {
      bool Generates = true;
      for (uint64_t F : Factors)
        Generates = Generates && powMod(C, (P - 1) / F, P) != 1;
      if (Generates)
        return C;
    }
  };
  for (int Bits : {30, 40, 45, 50})
    for (uint64_t P : generateNttPrimes(Bits, 256, 4, {}))
      EXPECT_EQ(findGenerator(P), Reference(P)) << P;
}

TEST(ModArithTest, GeneratedPrimesAreNttFriendly) {
  const uint64_t Factor = 1 << 13;
  auto Primes = generateNttPrimes(45, Factor, 5, {});
  ASSERT_EQ(Primes.size(), 5u);
  for (uint64_t P : Primes) {
    EXPECT_TRUE(isPrime(P));
    EXPECT_EQ((P - 1) % Factor, 0u);
    EXPECT_GE(P, 1ULL << 44);
    EXPECT_LT(P, 1ULL << 45);
  }
  // Distinct and descending.
  for (size_t I = 1; I < Primes.size(); ++I)
    EXPECT_LT(Primes[I], Primes[I - 1]);
}

TEST(ModArithTest, GeneratedPrimesRespectExclusion) {
  const uint64_t Factor = 1 << 13;
  auto First = generateNttPrimes(45, Factor, 2, {});
  auto Second = generateNttPrimes(45, Factor, 2, First);
  for (uint64_t P : Second)
    for (uint64_t Q : First)
      EXPECT_NE(P, Q);
}

} // namespace
