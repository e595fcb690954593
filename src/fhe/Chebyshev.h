//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Homomorphic polynomial evaluation in the Chebyshev basis with
/// baby-step/giant-step Paterson-Stockmeyer recombination. This is the
/// workhorse behind both the bootstrapper's EvalMod (paper Sec. 4.4) and
/// the SIHE IR's nonlinear-function approximation (paper Sec. 4.3):
/// staying in the Chebyshev basis keeps coefficients O(1) where a monomial
/// basis of degree ~100 would need 2^100-sized coefficients.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_FHE_CHEBYSHEV_H
#define ACE_FHE_CHEBYSHEV_H

#include "fhe/Evaluator.h"

#include <functional>
#include <vector>

namespace ace {
namespace fhe {

/// Chebyshev interpolation coefficients of \p F on [-1, 1]: returns c such
/// that sum_i c[i] T_i(x) interpolates F at the Degree+1 Chebyshev nodes.
std::vector<double> chebyshevInterpolate(const std::function<double(double)> &F,
                                         int Degree);

/// Evaluates sum_i Coeffs[i] T_i(X) in plain doubles (Clenshaw).
double chebyshevEvalPlain(const std::vector<double> &Coeffs, double X);

/// Homomorphic Chebyshev-series evaluator.
class ChebyshevEvaluator {
public:
  explicit ChebyshevEvaluator(const Evaluator &Eval) : Eval(Eval) {}

  /// Evaluates sum_i Coeffs[i] T_i(X) homomorphically. The encrypted
  /// values of \p X must lie in [-1, 1] (Chebyshev polynomials blow up
  /// outside). Trailing coefficients below the noise floor are dropped;
  /// a series of remaining degree d consumes depthForDegree(d) levels.
  Ciphertext evaluate(const Ciphertext &X,
                      const std::vector<double> &Coeffs) const;

  /// Levels evaluate() consumes for a series of the given degree: the
  /// baby steps T_1 .. T_M, the giant steps T_{M * 2^j}, and one level
  /// per product and per base-case sum along the deepest split.
  static int depthForDegree(int Degree);

private:
  const Evaluator &Eval;

  /// The baby-step count log2 used for \p Degree.
  static int babyLogForDegree(int Degree);

  Ciphertext evalRecursive(const std::vector<double> &Coeffs,
                           const std::vector<Ciphertext> &Babies,
                           const std::vector<Ciphertext> &Giants,
                           size_t BabyCount, double TargetScale) const;
  Ciphertext evalBase(const std::vector<double> &Coeffs,
                      const std::vector<Ciphertext> &Babies,
                      double TargetScale) const;
};

} // namespace fhe
} // namespace ace

#endif // ACE_FHE_CHEBYSHEV_H
