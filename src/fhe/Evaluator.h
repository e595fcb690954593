//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The homomorphic evaluator: every CKKS-IR operation of paper Table 6
/// (add, sub, neg, mul, rotate, rescale, modswitch, upscale, downscale,
/// relin) has a runtime counterpart here. Key switching is hybrid (Han and
/// Ki): the input polynomial is cut into a few digits of consecutive chain
/// primes (Context::keySwitch()), each digit is raised to the other active
/// primes and the special primes by fast basis conversion (ModUp),
/// multiplied against the matching switch-key parts over that extended
/// basis, and the sum is divided by the special-prime product P (ModDown).
/// Operation counters feed the benchmark harness.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_FHE_EVALUATOR_H
#define ACE_FHE_EVALUATOR_H

#include "fhe/Encoder.h"
#include "fhe/Keys.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ace {
namespace fhe {

/// The shared ModUp product of a (possibly hoisted) key switch: the hybrid
/// digit decomposition of one polynomial, each digit raised to the
/// extended basis (all active chain primes plus the special primes) in
/// NTT form. Hoisted rotations compute this once per batch and reuse it
/// for every Galois automorphism, because the automorphism acts on each
/// raised digit as a pure NTT-domain permutation
/// (RnsPoly::automorphismNtt).
struct HoistedDecomposition {
  /// keySwitch().digits(NumQ) raised digits; each has NumQ chain
  /// components plus the special components, in NTT form.
  std::vector<RnsPoly> Digits;
  /// Number of active chain primes of the decomposed polynomial.
  size_t NumQ = 0;
};

/// Stateless-per-operation evaluator bound to a context and key set.
///
/// Two tiers of entry points: the plain operations below document their
/// preconditions with asserts only (hot paths, trusted compiled programs),
/// while the checked* family validates every precondition in release
/// builds too and returns Status/StatusOr with diagnostics naming the
/// actual operand levels, scales, and rotation steps. The C API and the
/// executor route through the checked tier; see docs/error-handling.md.
class Evaluator {
public:
  /// \p Keys holds the relinearization and conjugation keys; every
  /// rotation/Galois key comes from \p KeyCache (see docs/memory.md).
  /// Both must outlive the evaluator.
  Evaluator(const Context &Ctx, const Encoder &Enc, const EvalKeys &Keys,
            RotationKeyCache &KeyCache);

  const Context &context() const { return Ctx; }
  const Encoder &encoder() const { return Enc; }
  const EvalKeys &keys() const { return Keys; }

  /// Materializes the switch key for \p Galois through the Status path
  /// (a key generated here runs the governor's admit, so budget refusals
  /// come back in-band as ResourceExhausted instead of aborting in the
  /// hot tier) and verifies it covers \p MinNumQ chain primes. The key
  /// is appended to \p Pins; holding the pins keeps it resident
  /// (eviction skips held keys), so a caller about to run a long
  /// unchecked sequence — the bootstrapper — can guarantee every
  /// hot-tier lookup hits. Eager setup calls it with \p MinNumQ = 0 right
  /// after each declaration. The identity element 1 needs no key.
  Status materializeGaloisKey(
      uint64_t Galois, size_t MinNumQ,
      std::vector<std::shared_ptr<const SwitchKey>> &Pins) const;

  /// \name Checked entry points (release-mode validated, recoverable).
  /// Each validates operand integrity (validateCiphertext), the
  /// operation's level/scale/key preconditions, and honors the
  /// fault-injection harness; failures come back as Status with the
  /// concrete offending values in the message.
  /// @{
  /// Mod-switches the higher operand down and verifies the scales agree.
  Status checkedMatchForAdd(Ciphertext &A, Ciphertext &B) const;
  StatusOr<Ciphertext> checkedAdd(const Ciphertext &A,
                                  const Ciphertext &B) const;
  StatusOr<Ciphertext> checkedSub(const Ciphertext &A,
                                  const Ciphertext &B) const;
  /// Product including relinearization (level-matches the operands
  /// first, like the C API's ace_mul).
  StatusOr<Ciphertext> checkedMul(const Ciphertext &A,
                                  const Ciphertext &B) const;
  /// Encodes \p Values at the rescale-exact scale and multiplies.
  StatusOr<Ciphertext> checkedMulPlain(const Ciphertext &A,
                                       const std::vector<double> &Values)
      const;
  /// Encodes \p Values at the ciphertext's scale and adds.
  StatusOr<Ciphertext> checkedAddPlain(const Ciphertext &A,
                                       const std::vector<double> &Values)
      const;
  StatusOr<Ciphertext> checkedMulScalar(const Ciphertext &A, double Value,
                                        double TargetScale = 0.0) const;
  /// Takes \p A by value, like checkedRescale and checkedModSwitchTo: an
  /// rvalue operand is transformed in place, an lvalue one is copied.
  StatusOr<Ciphertext> checkedAddConst(Ciphertext A, double Value) const;
  StatusOr<Ciphertext> checkedRotate(const Ciphertext &A,
                                     int64_t Steps) const;
  /// Validated hoisted rotation batch: checks the ciphertext and every
  /// step's rotation key (presence and truncation) before rotating.
  StatusOr<std::vector<Ciphertext>>
  checkedRotateHoisted(const Ciphertext &A,
                       const std::vector<int64_t> &Steps) const;
  StatusOr<Ciphertext> checkedConjugate(const Ciphertext &A) const;
  StatusOr<Ciphertext> checkedRelinearize(const Ciphertext &A) const;
  StatusOr<Ciphertext> checkedRescale(Ciphertext A) const;
  StatusOr<Ciphertext> checkedModSwitchTo(Ciphertext A, size_t NumQ) const;
  /// @}

  /// \name Additive operations (operands need matching level and scale).
  /// @{
  Ciphertext add(const Ciphertext &A, const Ciphertext &B) const;
  void addInPlace(Ciphertext &A, const Ciphertext &B) const;
  Ciphertext sub(const Ciphertext &A, const Ciphertext &B) const;
  void subInPlace(Ciphertext &A, const Ciphertext &B) const;
  Ciphertext negate(const Ciphertext &A) const;
  void addPlainInPlace(Ciphertext &A, const Plaintext &P) const;
  Ciphertext addPlain(const Ciphertext &A, const Plaintext &P) const;
  /// Adds the constant \p Value (replicated across slots) at the
  /// ciphertext's scale; exact and essentially free (touches only c0).
  void addConstInPlace(Ciphertext &A, double Value) const;
  /// @}

  /// \name Multiplicative operations.
  /// @{
  /// Ciphertext-ciphertext product without relinearization; the result has
  /// three polynomials (the paper's Cipher3) and scale = sA * sB.
  Ciphertext mulNoRelin(const Ciphertext &A, const Ciphertext &B) const;
  /// Ciphertext-ciphertext product followed by relinearization.
  Ciphertext mul(const Ciphertext &A, const Ciphertext &B) const;
  /// Ciphertext-plaintext product (plaintext level must cover the
  /// ciphertext level); scale = sA * sP.
  Ciphertext mulPlain(const Ciphertext &A, const Plaintext &P) const;
  void mulPlainInPlace(Ciphertext &A, const Plaintext &P) const;
  /// Fused Acc += A * P (one backend multiply-accumulate per limb, no
  /// product temporary). Requires Acc.Scale ~= A.Scale * P.Scale and
  /// matching shapes; residues are bit-identical to mulPlain followed
  /// by addInPlace, and the op counters record one ct-pt mul plus one
  /// add, exactly like the unfused pair. The bootstrapper's BSGS
  /// matrix-vector accumulation is the intended caller.
  void mulPlainAddInPlace(Ciphertext &Acc, const Ciphertext &A,
                          const Plaintext &P) const;
  /// Multiplies by the scalar \p Value. The plaintext scale is chosen so
  /// that a following rescale lands the ciphertext scale EXACTLY on
  /// \p TargetScale (default: the input scale). Exact target scales keep
  /// deep squaring chains (Chebyshev, bootstrapping) free of the
  /// exponential scale drift that mismatched additions would amplify.
  Ciphertext mulScalar(const Ciphertext &A, double Value,
                       double TargetScale = 0.0) const;
  /// Multiplies values by a small signed integer exactly, scale unchanged.
  void mulIntegerInPlace(Ciphertext &A, int64_t Value) const;
  /// Multiplies every slot by the imaginary unit i, exactly and for free
  /// (monomial multiplication by X^{N/2}).
  Ciphertext mulByI(const Ciphertext &A) const;
  /// Converts a Cipher3 back to a Cipher (paper Table 6 relin).
  Ciphertext relinearize(const Ciphertext &A) const;
  /// @}

  /// \name Scale and level management (paper Sec. 4.4).
  /// @{
  /// Drops the last prime and divides the scale by it.
  void rescaleInPlace(Ciphertext &A) const;
  /// Drops the last prime without changing the scale.
  void modSwitchInPlace(Ciphertext &A) const;
  /// Mod-switches down until the ciphertext has \p NumQ active primes.
  void modSwitchTo(Ciphertext &A, size_t NumQ) const;
  /// Multiplies coefficients by 2^LogFactor: scale *= 2^LogFactor, values
  /// unchanged. Exact (paper Table 6 upscale).
  void upscaleInPlace(Ciphertext &A, int LogFactor) const;
  /// Brings the ciphertext to exactly \p TargetScale by multiplying with
  /// an encoded constant 1 and rescaling (paper Table 6 downscale).
  /// Consumes one level.
  void downscaleInPlace(Ciphertext &A, double TargetScale) const;
  /// Aligns two ciphertexts for addition: mod-switches the higher-level
  /// operand down and asserts the scales agree.
  void matchForAdd(Ciphertext &A, Ciphertext &B) const;
  /// @}

  /// \name Rotations.
  /// @{
  /// Left-rotates slots by \p Steps (negative = right). Requires the
  /// matching rotation key.
  Ciphertext rotate(const Ciphertext &A, int64_t Steps) const;
  /// Hoisted rotation batch: rotates \p A by every step in \p Steps with
  /// a single digit decomposition (ModUp) shared across the batch -- one
  /// inner product + ModDown per rotation instead of one full key switch
  /// each. Bit-identical to calling rotate() per step (both paths run the
  /// same decompose-first arithmetic) at every thread count; the
  /// per-rotation work is spread across the thread pool. Requires the
  /// rotation key for every nonzero step.
  std::vector<Ciphertext> rotateHoisted(const Ciphertext &A,
                                        const std::vector<int64_t> &Steps)
      const;
  /// Complex-conjugates every slot. Requires the conjugation key.
  Ciphertext conjugate(const Ciphertext &A) const;
  /// @}

  /// \name Encoding helpers.
  /// @{
  /// Encodes \p Values for multiplication against \p Ct: the plaintext
  /// scale is chosen as the prime the subsequent rescale drops, so
  /// mul + rescale preserves the ciphertext scale exactly.
  Plaintext encodeForMul(const Ciphertext &Ct,
                         const std::vector<double> &Values) const;
  Plaintext encodeForMulComplex(
      const Ciphertext &Ct,
      const std::vector<std::complex<double>> &Values) const;
  /// Encodes \p Values to match \p Ct's scale and level, for addPlain.
  Plaintext encodeForAdd(const Ciphertext &Ct,
                         const std::vector<double> &Values) const;
  /// The scale encodeForMul would use at the ciphertext's level.
  double mulPlainScale(const Ciphertext &Ct) const;
  /// @}

  /// Key switching primitive: switches \p D (NTT domain, no special
  /// components) from the key \p Key encodes to the canonical secret.
  /// Returns the two result polynomials in NTT form. Exposed for
  /// hoisted-rotation style optimizations and white-box tests.
  std::pair<RnsPoly, RnsPoly> switchKey(const RnsPoly &D,
                                        const SwitchKey &Key) const;

  /// ModUp: decomposes \p D (NTT domain, no special components) into
  /// keySwitch().digits(numQ) digits of consecutive primes and raises each
  /// to the extended basis in NTT form: the digit's own limbs are copied
  /// from \p D, every other limb is an exact basis conversion of the
  /// digit's centered representative plus one forward NTT. This is the
  /// work a hoisted
  /// rotation batch shares; exposed for white-box tests of the
  /// digit-domain automorphism invariant.
  HoistedDecomposition decomposeNtt(const RnsPoly &D) const;

  /// Applies a raw Galois automorphism with key switching.
  Ciphertext applyGalois(const Ciphertext &A, uint64_t Galois,
                         const SwitchKey &Key) const;

  /// Applies the automorphism for a raw Galois element using the key set
  /// (the bootstrapper's SubSum path). Asserts the key is present.
  Ciphertext rotateGalois(const Ciphertext &A, uint64_t Galois) const;

  /// Estimated remaining noise budget of \p A in bits: log2 of the active
  /// modulus product minus log2 of the scale. The telemetry layer records
  /// it per operation so traces show budget draining toward bootstrap.
  double noiseBudgetBits(const Ciphertext &A) const;

private:
  const Context &Ctx;
  const Encoder &Enc;
  const EvalKeys &Keys;
  /// The source of every rotation/Galois key; not owned.
  RotationKeyCache &KeyCache;
  /// NTT form of the monomial X^{N/2} per modulus, built lazily.
  mutable std::vector<std::vector<uint64_t>> MonomialNtt;
  /// LogQPrefix[I] = sum of log2(q_j) for j < I, built lazily for
  /// noiseBudgetBits.
  mutable std::vector<double> LogQPrefix;

  const std::vector<uint64_t> &monomialNtt(size_t ModIndex) const;
  /// The checked tier's rotation-key lookup for \p Steps (Galois element
  /// \p Galois): KeyMissing names the step when the key analysis did not
  /// declare it or its key does not cover \p NumQ primes; a budget
  /// refusal of its generation comes back as ResourceExhausted.
  StatusOr<std::shared_ptr<const SwitchKey>>
  checkedRotationKey(int64_t Steps, uint64_t Galois, size_t NumQ) const;
  /// Inner product of the raised digits against the switch-key parts,
  /// with the Galois automorphism applied to each digit on the fly as an
  /// NTT-domain gather (\p Galois == 1 reads the digits directly). Free
  /// of counters and spans so it can run inside parallelFor workers.
  void hoistedInnerProduct(const HoistedDecomposition &Dec,
                           const SwitchKey &Key, uint64_t Galois,
                           RnsPoly &Acc0, RnsPoly &Acc1) const;
  /// Divides the extended-basis accumulator by the special-prime product
  /// P: out = (acc - [acc]_P) * P^{-1} per chain prime, with [acc]_P
  /// carried out of the special primes by an exact, centered basis
  /// conversion. Counter-free.
  RnsPoly modDown(const RnsPoly &Acc) const;
  /// One rotation of a hoisted batch: inner product + ModDown for
  /// \p Galois against the shared decomposition of A's c1, then the
  /// NTT-domain automorphism of c0. Counter-free (the batch entry points
  /// account for their rotations up front).
  Ciphertext applyGaloisHoisted(const Ciphertext &A, uint64_t Galois,
                                const SwitchKey &Key,
                                const HoistedDecomposition &Dec) const;
  void checkAddCompatible(const Ciphertext &A, const Ciphertext &B) const;
  /// Verifies the relinearization key exists and covers \p NumQ digits.
  Status checkedRelinSupport(const char *What, size_t NumQ) const;
  /// Verifies \p A retains enough noise budget to absorb a multiply that
  /// adds \p ExtraLogScale bits of scale; Status(DepthExhausted) when the
  /// product's scale would overrun the active modulus (the decryption
  /// would be garbage, not merely noisy).
  Status checkedNoiseBudget(const char *What, const Ciphertext &A,
                            double ExtraLogScale) const;
};

/// True when two scales differ by less than a relative 1e-3 (rescale
/// primes are near but not exactly 2^LogScale, so scales drift slightly;
/// the induced value error is of the same order as the scheme noise).
bool scalesClose(double A, double B);

/// Formats a scale-mismatch diagnostic that names both scales and their
/// ratio, e.g. "add: scale mismatch: lhs scale 3.51844e+13 vs rhs scale
/// 3.69435e+13 (ratio 0.952389)".
std::string scaleMismatchMessage(const char *What, double A, double B);

/// Returns scalesClose(A, B); on mismatch prints the full diagnostic
/// (both scales and their ratio) to stderr first. Intended for assert
/// conditions so a failing assert shows the actual values:
///   assert(scalesCloseOrReport("add", A.Scale, B.Scale));
bool scalesCloseOrReport(const char *What, double A, double B);

} // namespace fhe
} // namespace ace

#endif // ACE_FHE_EVALUATOR_H
