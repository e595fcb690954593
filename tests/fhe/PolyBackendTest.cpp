//===----------------------------------------------------------------------===//
// The poly-ops backend differential contract (docs/kernels.md): the
// vectorized backend must reproduce the scalar reference bit-for-bit on
// every op, at every modulus width the runtime generates, for every
// degree including the sub-lane-width NTT stages - and the equivalence
// must survive the thread pool partitioning above the backend (1 and 4
// threads) and a full encrypt -> evaluate -> decrypt round trip. Plus
// the knob: a malformed selection must fail as a clean InvalidArgument,
// never crash, and never disturb the active backend.
//===----------------------------------------------------------------------===//

#include "fhe/PolyBackend.h"

#include "fhe/Bootstrapper.h"
#include "fhe/CApi.h"
#include "fhe/Encryptor.h"
#include "fhe/ModArith.h"
#include "fhe/Ntt.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include "TestKeys.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace ace;
using namespace ace::fhe;

namespace {

// Modulus widths spanning everything Context generates: rescale primes
// (~LogScale, 30-45 bits), first moduli (~50-55), and special primes
// (59-60, the worst case for lane-arithmetic headroom).
const int kPrimeBits[] = {30, 40, 50, 55, 59, 60};

uint64_t testPrime(int Bits, size_t Degree) {
  return generateNttPrimes(Bits, 2 * Degree, 1, {})[0];
}

std::vector<uint64_t> randomResidues(Rng &R, uint64_t P, size_t N) {
  std::vector<uint64_t> V(N);
  R.uniformVector(P, N, V);
  return V;
}

/// Runs one op under both backends from identical inputs and expects
/// bitwise-equal outputs. Op signature: (backend, data) -> void.
template <typename OpFn>
void expectBitIdentical(const std::vector<uint64_t> &Input, OpFn Op,
                        const char *What, int Bits, size_t N) {
  ASSERT_TRUE(simdPolyBackendSupported());
  std::vector<uint64_t> Scalar = Input, Simd = Input;
  Op(scalarPolyBackend(), Scalar.data());
  Op(*simdPolyBackend(), Simd.data());
  EXPECT_EQ(0, std::memcmp(Scalar.data(), Simd.data(),
                           Scalar.size() * sizeof(uint64_t)))
      << What << " diverges at " << Bits << "-bit prime, N=" << N;
}

class PolyBackendDifferentialTest
    : public ::testing::TestWithParam<size_t> {
protected:
  void SetUp() override {
    if (!simdPolyBackendSupported())
      GTEST_SKIP() << "no vectorized backend on this host/build";
  }
};

TEST_P(PolyBackendDifferentialTest, AllOpsAllWidths) {
  size_t N = GetParam();
  Rng R(0xace0 + static_cast<uint64_t>(N));
  for (int Bits : kPrimeBits) {
    uint64_t P = testPrime(Bits, N);
    NttTable Table(N, P);
    auto A = randomResidues(R, P, N);
    auto B = randomResidues(R, P, N);
    uint64_t S = R.uniform(P);
    uint64_t SShoup = shoupPrecompute(S, P);

    expectBitIdentical(A, [&](const PolyBackend &BK, uint64_t *D) {
      BK.forwardNtt(Table, D);
    }, "forwardNtt", Bits, N);
    expectBitIdentical(A, [&](const PolyBackend &BK, uint64_t *D) {
      BK.inverseNtt(Table, D);
    }, "inverseNtt", Bits, N);
    expectBitIdentical(A, [&](const PolyBackend &BK, uint64_t *D) {
      BK.mul(D, B.data(), N, P);
    }, "mul", Bits, N);
    expectBitIdentical(A, [&](const PolyBackend &BK, uint64_t *D) {
      BK.add(D, B.data(), N, P);
    }, "add", Bits, N);
    expectBitIdentical(A, [&](const PolyBackend &BK, uint64_t *D) {
      BK.sub(D, B.data(), N, P);
    }, "sub", Bits, N);
    expectBitIdentical(A, [&](const PolyBackend &BK, uint64_t *D) {
      BK.negate(D, N, P);
    }, "negate", Bits, N);
    expectBitIdentical(A, [&](const PolyBackend &BK, uint64_t *D) {
      BK.scalarMul(D, S, SShoup, N, P);
    }, "scalarMul", Bits, N);
    expectBitIdentical(A, [&](const PolyBackend &BK, uint64_t *D) {
      BK.mulAcc(D, B.data(), B.data(), N, P);
    }, "mulAcc", Bits, N);
  }
}

TEST_P(PolyBackendDifferentialTest, EdgeResidues) {
  // Boundary inputs the random sweep is unlikely to hit: zeros
  // (negMod's special case, the Montgomery REDC zero-carry path) and
  // P-1 everywhere (maximal intermediates in every lane op).
  size_t N = GetParam();
  for (int Bits : kPrimeBits) {
    uint64_t P = testPrime(Bits, N);
    for (uint64_t V : {uint64_t(0), P - 1}) {
      std::vector<uint64_t> A(N, V), B(N, P - 1);
      expectBitIdentical(A, [&](const PolyBackend &BK, uint64_t *D) {
        BK.mul(D, B.data(), N, P);
      }, "mul(edge)", Bits, N);
      expectBitIdentical(A, [&](const PolyBackend &BK, uint64_t *D) {
        BK.negate(D, N, P);
      }, "negate(edge)", Bits, N);
      expectBitIdentical(A, [&](const PolyBackend &BK, uint64_t *D) {
        BK.mulAcc(D, B.data(), B.data(), N, P);
      }, "mulAcc(edge)", Bits, N);
    }
  }
}

// N=8 exercises the scalar butterfly tails (stages narrower than one
// vector); 1024 matches the runtime's default test ring.
INSTANTIATE_TEST_SUITE_P(Degrees, PolyBackendDifferentialTest,
                         ::testing::Values(8, 64, 256, 1024));

//===----------------------------------------------------------------------===//
// Whole-pipeline differential: same keys, same input ciphertext, the
// full evaluator surface under each backend x thread count must agree
// bit-for-bit (the PR 5 hoisted-vs-sequential method, now applied to
// the kernel seam).
//===----------------------------------------------------------------------===//

CkksParams pipelineParams() {
  CkksParams P;
  P.RingDegree = 1024;
  P.Slots = 128;
  P.LogScale = 40;
  P.LogFirstModulus = 50;
  P.NumRescaleModuli = 6;
  P.LogSpecialModulus = 59;
  P.Seed = 77;
  return P;
}

::testing::AssertionResult samePolys(const Ciphertext &A,
                                     const Ciphertext &B) {
  if (A.size() != B.size())
    return ::testing::AssertionFailure()
           << "polynomial count " << A.size() << " vs " << B.size();
  if (A.Scale != B.Scale)
    return ::testing::AssertionFailure()
           << "scale " << A.Scale << " vs " << B.Scale;
  for (size_t P = 0; P < A.size(); ++P) {
    const RnsPoly &PA = A.Polys[P], &PB = B.Polys[P];
    if (PA.numComponents() != PB.numComponents())
      return ::testing::AssertionFailure() << "component count differs";
    size_t N = PA.context().degree();
    for (size_t C = 0; C < PA.numComponents(); ++C)
      if (std::memcmp(PA.component(C), PB.component(C),
                      N * sizeof(uint64_t)) != 0)
        return ::testing::AssertionFailure()
               << "poly " << P << " component " << C << " differs";
  }
  return ::testing::AssertionSuccess();
}

class PolyBackendPipelineTest : public ::testing::Test {
protected:
  PolyBackendPipelineTest()
      : Ctx(pipelineParams()), Enc(Ctx), Gen(Ctx), Cache(Ctx, Gen),
        Pub(Gen.makePublicKey()) {
    makeTestKeys(Gen, Keys, Cache, {1, 3}, /*NeedRelin=*/true,
                 /*NeedConjugate=*/true);
    Eval = std::make_unique<Evaluator>(Ctx, Enc, Keys, Cache);
    Encrypt = std::make_unique<Encryptor>(Ctx, Pub);
  }
  void TearDown() override {
    ThreadPool::instance().setNumThreads(0);
    ASSERT_TRUE(selectPolyBackend("auto").ok());
  }

  Context Ctx;
  Encoder Enc;
  KeyGenerator Gen;
  RotationKeyCache Cache;
  PublicKey Pub;
  EvalKeys Keys;
  std::unique_ptr<Evaluator> Eval;
  std::unique_ptr<Encryptor> Encrypt;
};

TEST_F(PolyBackendPipelineTest, EncryptInferDecryptBitIdentical) {
  if (!simdPolyBackendSupported())
    GTEST_SKIP() << "no vectorized backend on this host/build";

  // Encrypt ONCE (encryption draws randomness), then replay a small
  // encrypted-inference pipeline - rotations + diagonal mulPlains +
  // adds (the gemv pattern), a ct-ct mul with relin, rescales - under
  // every backend x thread count combination.
  Rng R(5);
  std::vector<double> X(Ctx.slots()), W(Ctx.slots());
  for (auto &V : X)
    V = R.uniformReal(-1.0, 1.0);
  for (auto &V : W)
    V = R.uniformReal(-1.0, 1.0);
  Ciphertext In = Encrypt->encryptValues(Enc, X, Ctx.chainLength());

  auto Pipeline = [&](const char *Backend, size_t Threads) {
    EXPECT_TRUE(selectPolyBackend(Backend).ok());
    ThreadPool::instance().setNumThreads(Threads);
    Ciphertext Ct = Eval->mul(In, In);
    Eval->rescaleInPlace(Ct);
    Ct = Eval->rotate(Ct, 3);
    Plaintext P = Eval->encodeForMul(Ct, W);
    Ciphertext Acc = Eval->mulPlain(Ct, P);
    // Fused accumulate path (the bootstrapper's matvec kernel).
    Eval->mulPlainAddInPlace(Acc, Ct, P);
    Eval->rescaleInPlace(Acc);
    Eval->addInPlace(Acc, Eval->rotate(Acc, 1));
    Ct = Eval->conjugate(Acc);
    return Ct;
  };

  Ciphertext Reference = Pipeline("scalar", 1);
  Decryptor Dec(Ctx, Gen.secretKey());
  std::vector<double> RefValues = Dec.decryptRealValues(Enc, Reference);

  for (const char *Backend : {"scalar", "simd"}) {
    for (size_t Threads : {size_t(1), size_t(4)}) {
      Ciphertext Out = Pipeline(Backend, Threads);
      EXPECT_TRUE(samePolys(Out, Reference))
          << Backend << " at " << Threads << " threads";
      // Decryption (and decode) runs through the same kernels; the
      // round trip must agree to the last bit, not just the polys.
      std::vector<double> Values = Dec.decryptRealValues(Enc, Out);
      ASSERT_EQ(Values.size(), RefValues.size());
      EXPECT_EQ(0, std::memcmp(Values.data(), RefValues.data(),
                               Values.size() * sizeof(double)))
          << Backend << " at " << Threads << " threads";
    }
  }
}

//===----------------------------------------------------------------------===//
// Knob behavior
//===----------------------------------------------------------------------===//

TEST(PolyBackendKnobTest, MalformedSpecIsCleanInvalidArgument) {
  std::string Before = activePolyBackendName();
  Status S = selectPolyBackend("bogus");
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::InvalidArgument);
  // The failed selection must not disturb the active backend.
  EXPECT_EQ(Before, activePolyBackendName());

  // Same contract through the C API error channel.
  EXPECT_EQ(ACE_ERR_INVALID_ARGUMENT, ace_set_poly_backend("bogus"));
  EXPECT_EQ(ACE_ERR_INVALID_ARGUMENT, ace_set_poly_backend(nullptr));
  EXPECT_EQ(Before, std::string(ace_poly_backend()));
}

TEST(PolyBackendKnobTest, ExplicitSelectionRoundTrips) {
  EXPECT_TRUE(selectPolyBackend("scalar").ok());
  EXPECT_STREQ("scalar", activePolyBackendName());
  if (simdPolyBackendSupported()) {
    EXPECT_EQ(ACE_OK, ace_set_poly_backend("simd"));
    EXPECT_STREQ("simd", ace_poly_backend());
  } else {
    Status S = selectPolyBackend("simd");
    ASSERT_FALSE(S.ok());
    EXPECT_EQ(S.code(), ErrorCode::InvalidArgument);
    EXPECT_STREQ("scalar", activePolyBackendName());
  }
  EXPECT_TRUE(selectPolyBackend("auto").ok());
}

} // namespace
