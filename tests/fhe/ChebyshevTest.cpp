//===----------------------------------------------------------------------===//
// Chebyshev interpolation and homomorphic series-evaluation tests.
//===----------------------------------------------------------------------===//

#include "fhe/Chebyshev.h"

#include "fhe/Encryptor.h"
#include "support/Rng.h"

#include "TestKeys.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace ace;
using namespace ace::fhe;

namespace {

TEST(ChebyshevInterpolateTest, ReproducesPolynomial) {
  // x^3 = (T_3 + 3 T_1) / 4.
  auto C = chebyshevInterpolate([](double X) { return X * X * X; }, 3);
  ASSERT_EQ(C.size(), 4u);
  EXPECT_NEAR(C[0], 0.0, 1e-12);
  EXPECT_NEAR(C[1], 0.75, 1e-12);
  EXPECT_NEAR(C[2], 0.0, 1e-12);
  EXPECT_NEAR(C[3], 0.25, 1e-12);
}

TEST(ChebyshevInterpolateTest, ApproximatesSmoothFunction) {
  auto F = [](double X) { return std::exp(X) * std::sin(3 * X); };
  auto C = chebyshevInterpolate(F, 25);
  for (double X = -1.0; X <= 1.0; X += 0.05)
    EXPECT_NEAR(chebyshevEvalPlain(C, X), F(X), 1e-8);
}

TEST(ChebyshevInterpolateTest, HighFrequencyCosine) {
  // The bootstrapper's workload: cos with ~20 rad of phase.
  auto F = [](double X) { return std::cos(20.4 * X - 0.4); };
  auto C = chebyshevInterpolate(F, 39);
  for (double X = -1.0; X <= 1.0; X += 0.01)
    EXPECT_NEAR(chebyshevEvalPlain(C, X), F(X), 1e-6);
}

TEST(ChebyshevEvalPlainTest, ClenshawMatchesDirect) {
  std::vector<double> C = {0.5, -1.0, 0.25, 0.125};
  for (double X = -1.0; X <= 1.0; X += 0.125) {
    double T0 = 1, T1 = X, Acc = C[0] + C[1] * X;
    for (size_t I = 2; I < C.size(); ++I) {
      double T2 = 2 * X * T1 - T0;
      Acc += C[I] * T2;
      T0 = T1;
      T1 = T2;
    }
    EXPECT_NEAR(chebyshevEvalPlain(C, X), Acc, 1e-12);
  }
}

TEST(ChebyshevDepthTest, BoundGrowsWithDegree) {
  // Babies T_1 .. T_M cost log2(M) levels, each giant step one more, and
  // the deepest product one more on top of the deepest giant: the
  // bootstrapper's degree 39 (M = 8, giants T_8, T_16, T_32) takes 6.
  EXPECT_EQ(ChebyshevEvaluator::depthForDegree(1), 1);
  EXPECT_EQ(ChebyshevEvaluator::depthForDegree(3), 3);
  EXPECT_EQ(ChebyshevEvaluator::depthForDegree(31), 6);
  EXPECT_EQ(ChebyshevEvaluator::depthForDegree(39), 6);
  EXPECT_EQ(ChebyshevEvaluator::depthForDegree(63), 7);
  EXPECT_EQ(ChebyshevEvaluator::depthForDegree(127), 8);
}

class HomomorphicChebyshevTest : public ::testing::Test {
protected:
  HomomorphicChebyshevTest() {
    CkksParams P;
    P.RingDegree = 1024;
    P.Slots = 64;
    P.LogScale = 40;
    P.LogFirstModulus = 50;
    P.NumRescaleModuli = 12;
    P.LogSpecialModulus = 59;
    P.Seed = 5;
    Ctx = std::make_unique<Context>(P);
    Enc = std::make_unique<Encoder>(*Ctx);
    Gen = std::make_unique<KeyGenerator>(*Ctx);
    Pub = Gen->makePublicKey();
    Cache = std::make_unique<RotationKeyCache>(*Ctx, *Gen);
    makeTestKeys(*Gen, Keys, *Cache, {}, /*NeedRelin=*/true,
                 /*NeedConjugate=*/false);
    Eval = std::make_unique<Evaluator>(*Ctx, *Enc, Keys, *Cache);
    Encrypt = std::make_unique<Encryptor>(*Ctx, Pub);
    Decrypt = std::make_unique<Decryptor>(*Ctx, Gen->secretKey());
  }

  void runCase(const std::function<double(double)> &F, int Degree,
               double Tolerance) {
    Rng R(71);
    std::vector<double> X(Ctx->slots());
    for (auto &V : X)
      V = R.uniformReal(-0.95, 0.95);
    Ciphertext Ct =
        Encrypt->encryptValues(*Enc, X, Ctx->chainLength());
    auto Coeffs = chebyshevInterpolate(F, Degree);
    ChebyshevEvaluator ChebEval(*Eval);
    size_t Before = Ct.numQ();
    Ciphertext Out = ChebEval.evaluate(Ct, Coeffs);
    // evaluate() drops trailing coefficients below its 1e-9 noise floor
    // (the odd ones of an even function), then consumes exactly the
    // depth of the degree that is left.
    int Effective = Degree;
    while (Effective > 0 && std::fabs(Coeffs[Effective]) < 1e-9)
      --Effective;
    EXPECT_EQ(Before - Out.numQ(),
              static_cast<size_t>(
                  ChebyshevEvaluator::depthForDegree(Effective)));
    auto Result = Decrypt->decryptRealValues(*Enc, Out);
    for (size_t I = 0; I < X.size(); ++I)
      EXPECT_NEAR(Result[I], chebyshevEvalPlain(Coeffs, X[I]), Tolerance)
          << "slot " << I;
  }

  std::unique_ptr<Context> Ctx;
  std::unique_ptr<Encoder> Enc;
  std::unique_ptr<KeyGenerator> Gen;
  std::unique_ptr<RotationKeyCache> Cache;
  PublicKey Pub;
  EvalKeys Keys;
  std::unique_ptr<Evaluator> Eval;
  std::unique_ptr<Encryptor> Encrypt;
  std::unique_ptr<Decryptor> Decrypt;
};

TEST_F(HomomorphicChebyshevTest, LinearSeries) {
  runCase([](double X) { return 0.5 * X - 0.25; }, 1, 1e-4);
}

TEST_F(HomomorphicChebyshevTest, CubicSeries) {
  runCase([](double X) { return X * X * X; }, 3, 1e-4);
}

TEST_F(HomomorphicChebyshevTest, Degree15Smooth) {
  runCase([](double X) { return std::tanh(2 * X); }, 15, 1e-3);
}

TEST_F(HomomorphicChebyshevTest, Degree31Oscillatory) {
  runCase([](double X) { return std::cos(10 * X); }, 31, 1e-3);
}

TEST_F(HomomorphicChebyshevTest, Degree39BootstrapProfile) {
  runCase([](double X) { return std::cos(20.4 * X - M_PI / 8); }, 39, 5e-3);
}

// Degrees on both sides of the giant-step splits, where the depth
// changes: an oscillation of about 0.7 rad per degree keeps the top
// coefficient far above the noise floor, so none is trimmed.
TEST_F(HomomorphicChebyshevTest, DepthIsExactAcrossGiantStepSplits) {
  for (int Degree : {7, 8, 15, 16, 31, 32, 39, 47, 48, 63}) {
    SCOPED_TRACE("degree " + std::to_string(Degree));
    double Omega = 0.7 * Degree;
    runCase([&](double X) { return std::cos(Omega * X - 0.3); }, Degree,
            1e-4);
  }
}

} // namespace
