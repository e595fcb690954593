//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "fhe/Chebyshev.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace ace;
using namespace ace::fhe;

/// Coefficients below this threshold contribute less than the scheme noise
/// and are skipped.
static constexpr double CoeffEpsilon = 1e-9;

std::vector<double>
ace::fhe::chebyshevInterpolate(const std::function<double(double)> &F,
                               int Degree) {
  assert(Degree >= 0 && "negative interpolation degree");
  int N = Degree + 1;
  // Sample at the Chebyshev nodes and project onto each basis polynomial
  // (discrete orthogonality).
  std::vector<double> Samples(N);
  for (int J = 0; J < N; ++J) {
    double Theta = M_PI * (J + 0.5) / N;
    Samples[J] = F(std::cos(Theta));
  }
  std::vector<double> Coeffs(N);
  for (int K = 0; K < N; ++K) {
    double Acc = 0;
    for (int J = 0; J < N; ++J)
      Acc += Samples[J] * std::cos(K * M_PI * (J + 0.5) / N);
    Coeffs[K] = Acc * (K == 0 ? 1.0 : 2.0) / N;
  }
  return Coeffs;
}

double ace::fhe::chebyshevEvalPlain(const std::vector<double> &Coeffs,
                                    double X) {
  // Clenshaw recurrence.
  double B1 = 0, B2 = 0;
  for (size_t I = Coeffs.size(); I-- > 1;) {
    double B0 = 2 * X * B1 - B2 + Coeffs[I];
    B2 = B1;
    B1 = B0;
  }
  return Coeffs.empty() ? 0.0 : X * B1 - B2 + Coeffs[0];
}

/// Drops trailing coefficients below the noise floor.
static std::vector<double> trimCoeffs(std::vector<double> Coeffs) {
  while (Coeffs.size() > 1 && std::fabs(Coeffs.back()) < CoeffEpsilon)
    Coeffs.pop_back();
  return Coeffs;
}

/// Splits p = Remainder + T_G * Quotient in the Chebyshev basis, using
/// T_i = 2 T_G T_{i-G} - T_{|i-2G|} for i > G and T_G T_0 = T_G.
static void chebyshevDivide(const std::vector<double> &P, size_t G,
                            std::vector<double> &Quotient,
                            std::vector<double> &Remainder) {
  assert(P.size() > G && "division degree exceeds polynomial degree");
  std::vector<double> C = P;
  size_t D = C.size() - 1;
  Quotient.assign(D - G + 1, 0.0);
  for (size_t I = D; I >= G; --I) {
    if (std::fabs(C[I]) >= CoeffEpsilon * 1e-3) {
      if (I == G) {
        Quotient[0] += C[I];
      } else {
        Quotient[I - G] += 2 * C[I];
        size_t Mirror = I >= 2 * G ? I - 2 * G : 2 * G - I;
        C[Mirror] -= C[I];
      }
    }
    C[I] = 0;
    if (I == 0)
      break;
  }
  Remainder.assign(C.begin(), C.begin() + G);
}

int ChebyshevEvaluator::babyLogForDegree(int Degree) {
  int L = static_cast<int>(std::lround(std::log2(std::sqrt(Degree + 1.0))));
  if (L < 2)
    L = 2;
  if (L > 6)
    L = 6;
  return L;
}

/// ceil(log2(K)): the depth of baby T_K (T_0 and T_1 are free).
static int babyDepth(size_t K) {
  int D = 0;
  while ((size_t(1) << D) < K)
    ++D;
  return D;
}

/// Levels evalRecursive consumes on a dense series of degree \p Degree,
/// splitting at the giant steps T_{M * 2^j} exactly as it does (giant j
/// sits at depth log2(M) + j).
static int recursiveDepth(size_t Degree, size_t BabyCount) {
  if (Degree < BabyCount) // evalBase: the deepest baby, then one rescale
    return babyDepth(Degree) + 1;
  size_t J = 0;
  while ((BabyCount << (J + 1)) <= Degree)
    ++J;
  size_t G = BabyCount << J;
  int Giant = babyDepth(BabyCount) + static_cast<int>(J);
  int Product = std::max(recursiveDepth(Degree - G, BabyCount), Giant) + 1;
  return std::max(Product, recursiveDepth(G - 1, BabyCount));
}

int ChebyshevEvaluator::depthForDegree(int Degree) {
  if (Degree <= 1)
    return 1;
  return recursiveDepth(static_cast<size_t>(Degree),
                        size_t(1) << babyLogForDegree(Degree));
}

Ciphertext
ChebyshevEvaluator::evalBase(const std::vector<double> &Coeffs,
                             const std::vector<Ciphertext> &Babies,
                             double TargetScale) const {
  assert(!Coeffs.empty() && Coeffs.size() <= Babies.size() &&
         "base polynomial exceeds the baby-step table");
  // result = c_0 + sum_{i>=1} c_i T_i with one rescale: every baby used
  // is mod-switched to the level of the deepest one, and its integer
  // scalar aims it at TargetScale * q_last there, so the terms add at one
  // scale and a single rescale lands the sum exactly on TargetScale.
  size_t NumQ = Babies[1].numQ();
  for (size_t I = 2; I < Coeffs.size(); ++I)
    if (std::fabs(Coeffs[I]) >= CoeffEpsilon)
      NumQ = std::min(NumQ, Babies[I].numQ());
  bool HaveAcc = false;
  Ciphertext Acc;
  for (size_t I = 1; I < Coeffs.size(); ++I) {
    if (std::fabs(Coeffs[I]) < CoeffEpsilon)
      continue;
    Ciphertext Baby = Babies[I];
    Eval.modSwitchTo(Baby, NumQ);
    Ciphertext Term = Eval.mulScalar(Baby, Coeffs[I], TargetScale);
    if (!HaveAcc) {
      Acc = std::move(Term);
      HaveAcc = true;
      continue;
    }
    Eval.addInPlace(Acc, Term);
  }
  // Degenerate constant polynomial: a zero ciphertext one level below
  // the input.
  if (!HaveAcc)
    Acc = Eval.mulScalar(Babies[1], 0.0, TargetScale);
  Eval.rescaleInPlace(Acc);
  Eval.addConstInPlace(Acc, Coeffs[0]);
  return Acc;
}

Ciphertext
ChebyshevEvaluator::evalRecursive(const std::vector<double> &Coeffs,
                                  const std::vector<Ciphertext> &Babies,
                                  const std::vector<Ciphertext> &Giants,
                                  size_t BabyCount,
                                  double TargetScale) const {
  std::vector<double> C = trimCoeffs(Coeffs);
  if (C.size() <= BabyCount)
    return evalBase(C, Babies, TargetScale);

  size_t D = C.size() - 1;
  size_t J = 0;
  while ((BabyCount << (J + 1)) <= D)
    ++J;
  size_t G = BabyCount << J;
  assert(J < Giants.size() && "giant-step table too small");

  std::vector<double> Quotient, Remainder;
  chebyshevDivide(C, G, Quotient, Remainder);

  Ciphertext QuotCt =
      evalRecursive(Quotient, Babies, Giants, BabyCount, TargetScale);
  Ciphertext Prod = [&] {
    Ciphertext GiantCopy = Giants[J];
    Eval.matchForAdd(GiantCopy, QuotCt);
    Ciphertext P = Eval.mul(QuotCt, GiantCopy);
    Eval.rescaleInPlace(P);
    return P;
  }();

  std::vector<double> RemTrimmed = trimCoeffs(Remainder);
  if (RemTrimmed.size() == 1 && std::fabs(RemTrimmed[0]) < CoeffEpsilon) {
    Eval.addConstInPlace(Prod, RemTrimmed[0]);
    return Prod;
  }
  // The remainder branch targets the product's actual scale so the final
  // addition is scale-exact.
  Ciphertext RemCt =
      evalRecursive(RemTrimmed, Babies, Giants, BabyCount, Prod.Scale);
  Eval.matchForAdd(Prod, RemCt);
  Eval.addInPlace(Prod, RemCt);
  return Prod;
}

Ciphertext ChebyshevEvaluator::evaluate(const Ciphertext &X,
                                        const std::vector<double> &Coeffs) const {
  std::vector<double> C = trimCoeffs(Coeffs);
  int Degree = static_cast<int>(C.size()) - 1;
  assert(Degree >= 0 && "empty coefficient vector");

  if (Degree <= 1) {
    Ciphertext R = Eval.mulScalar(X, Degree == 1 ? C[1] : 0.0);
    Eval.rescaleInPlace(R);
    Eval.addConstInPlace(R, C[0]);
    return R;
  }

  int L = babyLogForDegree(Degree);
  size_t M = size_t(1) << L;

  // Baby steps T_1 .. T_M via T_{a+b} = 2 T_a T_b - T_{|a-b|}.
  std::vector<Ciphertext> Babies(M + 1);
  Babies[1] = X;
  for (size_t K = 2; K <= M; ++K) {
    size_t A = (K + 1) / 2, B = K / 2;
    Ciphertext Lhs = Babies[A];
    Ciphertext Rhs = Babies[B];
    Eval.matchForAdd(Lhs, Rhs);
    Ciphertext T = Eval.mul(Lhs, Rhs);
    Eval.rescaleInPlace(T);
    Eval.mulIntegerInPlace(T, 2);
    if (A == B) {
      Eval.addConstInPlace(T, -1.0);
    } else {
      // Steer a copy of T_1 onto T's exact scale before subtracting, so
      // the odd-index babies stay scale-exact.
      Ciphertext One = Eval.mulScalar(Babies[1], 1.0, T.Scale);
      Eval.rescaleInPlace(One);
      Eval.matchForAdd(T, One);
      Eval.subInPlace(T, One);
    }
    Babies[K] = std::move(T);
  }

  // Giant steps T_{M * 2^j} via T_{2k} = 2 T_k^2 - 1.
  size_t GiantCount = 0;
  while ((M << (GiantCount + 1)) <= static_cast<size_t>(Degree))
    ++GiantCount;
  std::vector<Ciphertext> Giants(GiantCount + 1);
  Giants[0] = Babies[M];
  for (size_t J = 1; J <= GiantCount; ++J) {
    Ciphertext T = Eval.mul(Giants[J - 1], Giants[J - 1]);
    Eval.rescaleInPlace(T);
    Eval.mulIntegerInPlace(T, 2);
    Eval.addConstInPlace(T, -1.0);
    Giants[J] = std::move(T);
  }

  return evalRecursive(C, Babies, Giants, M, X.Scale);
}
