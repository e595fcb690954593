//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "fhe/Evaluator.h"

#include "fhe/ModArith.h"
#include "fhe/PolyBackend.h"
#include "support/Cancellation.h"
#include "support/FaultInjector.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cmath>
#include <limits>

using namespace ace;
using namespace ace::fhe;

namespace {

/// Disabled-path cost of a counter-only telemetry site: one relaxed load.
inline void countOp(telemetry::Counter C, uint64_t N = 1) {
  if (telemetry::enabled())
    telemetry::Telemetry::instance().count(C, N);
}

} // namespace

bool ace::fhe::scalesClose(double A, double B) {
  return std::fabs(A - B) <= 1e-3 * std::fmax(A, B);
}

std::string ace::fhe::scaleMismatchMessage(const char *What, double A,
                                           double B) {
  char Buf[192];
  std::snprintf(Buf, sizeof(Buf),
                "%s: scale mismatch: lhs scale %.6g vs rhs scale %.6g "
                "(ratio %.9g)",
                What, A, B, B != 0.0 ? A / B : std::nan(""));
  return Buf;
}

bool ace::fhe::scalesCloseOrReport(const char *What, double A, double B) {
  if (scalesClose(A, B))
    return true;
  std::fprintf(stderr, "ace: %s\n", scaleMismatchMessage(What, A, B).c_str());
  return false;
}

Status ace::fhe::validateCiphertext(const Context &Ctx, const Ciphertext &A,
                                    const char *What) {
  std::string Op(What);
  if (A.Polys.empty() || A.size() > 3)
    return Status::invalidArgument(
        Op + ": malformed ciphertext with " + std::to_string(A.size()) +
        " polynomial components (expected 2 or 3)");
  size_t NumQ = A.Polys[0].numQ();
  if (NumQ < 1 || NumQ > Ctx.chainLength())
    return Status::levelMismatch(
        Op + ": ciphertext has " + std::to_string(NumQ) +
        " active primes but the modulus chain holds " +
        std::to_string(Ctx.chainLength()));
  for (const RnsPoly &Poly : A.Polys) {
    if (Poly.numQ() != NumQ)
      return Status::internal(
          Op + ": corrupted ciphertext: component prime counts differ (" +
          std::to_string(Poly.numQ()) + " vs " + std::to_string(NumQ) +
          "); the prime chain was truncated inconsistently");
    if (Poly.hasSpecial() || !Poly.isNtt())
      return Status::internal(
          Op + ": corrupted ciphertext: polynomial not in plain NTT form");
  }
  if (A.Slots != Ctx.slots())
    return Status::invalidArgument(
        Op + ": ciphertext slot count " + std::to_string(A.Slots) +
        " does not match the context's " + std::to_string(Ctx.slots()) +
        " slots");
  if (!std::isfinite(A.Scale) || A.Scale <= 0.0)
    return Status::invalidArgument(
        Op + ": ciphertext scale " + std::to_string(A.Scale) +
        " is not a finite positive number");
  return Status::success();
}

/// Shared preamble of every checked entry point: polls the cooperative
/// cancellation token installed on this thread (a cancelled or
/// deadline-expired request unwinds here, between ops, never mid-op),
/// honors the simulated allocation-failure fault, then validates operand
/// integrity.
static Status checkedEntry(const Context &Ctx, const char *What,
                           const Ciphertext *A, const Ciphertext *B) {
  ACE_RETURN_IF_ERROR(checkCancellation(What));
  FaultInjector &Faults = FaultInjector::instance();
  if (Faults.enabled() && Faults.shouldFire(FaultKind::AllocFail))
    return Status::resourceExhausted(
        std::string(What) +
        ": cannot allocate ciphertext storage (injected fault)");
  if (A)
    ACE_RETURN_IF_ERROR(validateCiphertext(Ctx, *A, What));
  if (B)
    ACE_RETURN_IF_ERROR(validateCiphertext(Ctx, *B, What));
  return Status::success();
}

/// A switch key's truncation level for KeyMissing diagnostics, e.g.
/// "6 chain primes (2 digits)".
static std::string keyLevel(const SwitchKey &Key) {
  return std::to_string(Key.numQ()) + " chain primes (" +
         std::to_string(Key.Parts.size()) + " digits)";
}

Evaluator::Evaluator(const Context &Ctx, const Encoder &Enc,
                     const EvalKeys &Keys, RotationKeyCache &KeyCache)
    : Ctx(Ctx), Enc(Enc), Keys(Keys), KeyCache(KeyCache) {
  MonomialNtt.resize(Ctx.chainLength() + Ctx.numSpecial());
}

Status Evaluator::materializeGaloisKey(
    uint64_t Galois, size_t MinNumQ,
    std::vector<std::shared_ptr<const SwitchKey>> &Pins) const {
  if (Galois == 1)
    return Status::success(); // the identity needs no key
  ACE_ASSIGN_OR_RETURN(std::shared_ptr<const SwitchKey> Key,
                       KeyCache.get(Galois));
  if (!Key->covers(MinNumQ))
    return Status::keyMissing(
        "switch key for Galois element " + std::to_string(Galois) +
        " truncated to " + keyLevel(*Key) + " but " +
        std::to_string(MinNumQ) + " primes are required");
  Pins.push_back(std::move(Key));
  return Status::success();
}

double Evaluator::noiseBudgetBits(const Ciphertext &A) const {
  if (LogQPrefix.empty()) {
    LogQPrefix.resize(Ctx.chainLength() + 1, 0.0);
    for (size_t I = 0; I < Ctx.chainLength(); ++I)
      LogQPrefix[I + 1] =
          LogQPrefix[I] + std::log2(static_cast<double>(Ctx.qModulus(I)));
  }
  size_t NumQ = std::min(A.numQ(), Ctx.chainLength());
  double LogScale = A.Scale > 0.0 ? std::log2(A.Scale) : 0.0;
  return LogQPrefix[NumQ] - LogScale;
}

void Evaluator::checkAddCompatible(const Ciphertext &A,
                                   const Ciphertext &B) const {
  assert(A.numQ() == B.numQ() && "additive operands at different levels");
  assert(A.Slots == B.Slots && "additive operands with different slots");
  assert(scalesCloseOrReport("add", A.Scale, B.Scale) &&
         "additive operands with mismatched scales");
}

//===----------------------------------------------------------------------===//
// Additive operations
//===----------------------------------------------------------------------===//

void Evaluator::addInPlace(Ciphertext &A, const Ciphertext &B) const {
  checkAddCompatible(A, B);
  countOp(telemetry::Counter::Add);
  // Adding a Cipher and a Cipher3 is permitted: missing components are
  // implicitly zero.
  if (B.size() > A.size())
    A.Polys.resize(B.size(),
                   RnsPoly(Ctx, A.numQ(), /*HasSpecial=*/false,
                           /*NttForm=*/true));
  for (size_t I = 0; I < B.size(); ++I)
    A.Polys[I].addInPlace(B.Polys[I]);
}

Ciphertext Evaluator::add(const Ciphertext &A, const Ciphertext &B) const {
  Ciphertext R = A;
  addInPlace(R, B);
  return R;
}

void Evaluator::subInPlace(Ciphertext &A, const Ciphertext &B) const {
  checkAddCompatible(A, B);
  countOp(telemetry::Counter::Add);
  if (B.size() > A.size())
    A.Polys.resize(B.size(),
                   RnsPoly(Ctx, A.numQ(), /*HasSpecial=*/false,
                           /*NttForm=*/true));
  for (size_t I = 0; I < B.size(); ++I)
    A.Polys[I].subInPlace(B.Polys[I]);
}

Ciphertext Evaluator::sub(const Ciphertext &A, const Ciphertext &B) const {
  Ciphertext R = A;
  subInPlace(R, B);
  return R;
}

Ciphertext Evaluator::negate(const Ciphertext &A) const {
  Ciphertext R = A;
  for (auto &Poly : R.Polys)
    Poly.negateInPlace();
  return R;
}

void Evaluator::addPlainInPlace(Ciphertext &A, const Plaintext &P) const {
  assert(P.numQ() >= A.numQ() && "plaintext level below ciphertext level");
  assert(scalesCloseOrReport("addPlain", A.Scale, P.Scale) &&
         "addPlain scale mismatch");
  countOp(telemetry::Counter::Add);
  if (P.numQ() == A.numQ()) {
    A.Polys[0].addInPlace(P.Poly);
    return;
  }
  A.Polys[0].addInPlace(
      P.Poly.restrictedCopy(A.numQ(), /*KeepSpecial=*/false));
}

Ciphertext Evaluator::addPlain(const Ciphertext &A, const Plaintext &P) const {
  Ciphertext R = A;
  addPlainInPlace(R, P);
  return R;
}

void Evaluator::addConstInPlace(Ciphertext &A, double Value) const {
  // A constant polynomial has the same value at every NTT evaluation
  // point, so adding round(Value * Scale) to every residue of c0 adds the
  // constant to every slot.
  long double Raw = static_cast<long double>(Value) *
                    static_cast<long double>(A.Scale);
  assert(fabsl(Raw) < 0x1.0p62L && "constant too large for the scale");
  int64_t V = static_cast<int64_t>(llroundl(Raw));
  RnsPoly &C0 = A.Polys[0];
  size_t N = Ctx.degree();
  parallelFor(0, C0.numQ(), [&](size_t I) {
    uint64_t Q = C0.modulus(I);
    uint64_t R = V >= 0 ? static_cast<uint64_t>(V) % Q
                        : Q - (static_cast<uint64_t>(-V) % Q);
    if (R == Q)
      R = 0;
    uint64_t *Comp = C0.component(I);
    for (size_t J = 0; J < N; ++J)
      Comp[J] = addMod(Comp[J], R, Q);
  });
}

//===----------------------------------------------------------------------===//
// Multiplicative operations
//===----------------------------------------------------------------------===//

Ciphertext Evaluator::mulNoRelin(const Ciphertext &A,
                                 const Ciphertext &B) const {
  assert(A.size() == 2 && B.size() == 2 &&
         "ciphertext product requires two-polynomial operands");
  assert(A.numQ() == B.numQ() && "product operands at different levels");
  assert(A.Slots == B.Slots && "product operands with different slots");
  telemetry::FheOpSpan Span;
  if (telemetry::enabled())
    Span.begin(telemetry::Counter::CtCtMul, A.numQ(), A.Scale,
               noiseBudgetBits(A));

  Ciphertext R;
  R.Scale = A.Scale * B.Scale;
  R.Slots = A.Slots;
  // (a0 + a1 s)(b0 + b1 s) = a0b0 + (a0b1 + a1b0) s + a1b1 s^2.
  RnsPoly P0 = A.Polys[0].mul(B.Polys[0]);
  RnsPoly P1 = A.Polys[0].mul(B.Polys[1]);
  P1.mulAddInPlace(A.Polys[1], B.Polys[0]);
  RnsPoly P2 = A.Polys[1].mul(B.Polys[1]);
  R.Polys.push_back(std::move(P0));
  R.Polys.push_back(std::move(P1));
  R.Polys.push_back(std::move(P2));
  return R;
}

Ciphertext Evaluator::mul(const Ciphertext &A, const Ciphertext &B) const {
  return relinearize(mulNoRelin(A, B));
}

void Evaluator::mulPlainInPlace(Ciphertext &A, const Plaintext &P) const {
  assert(P.numQ() >= A.numQ() && "plaintext level below ciphertext level");
  telemetry::FheOpSpan Span;
  if (telemetry::enabled())
    Span.begin(telemetry::Counter::CtPtMul, A.numQ(), A.Scale,
               noiseBudgetBits(A));
  if (P.numQ() == A.numQ()) {
    for (auto &Poly : A.Polys)
      Poly.mulInPlace(P.Poly);
  } else {
    RnsPoly Restricted =
        P.Poly.restrictedCopy(A.numQ(), /*KeepSpecial=*/false);
    for (auto &Poly : A.Polys)
      Poly.mulInPlace(Restricted);
  }
  A.Scale *= P.Scale;
}

Ciphertext Evaluator::mulPlain(const Ciphertext &A, const Plaintext &P) const {
  Ciphertext R = A;
  mulPlainInPlace(R, P);
  return R;
}

void Evaluator::mulPlainAddInPlace(Ciphertext &Acc, const Ciphertext &A,
                                   const Plaintext &P) const {
  assert(P.numQ() >= A.numQ() && "plaintext level below ciphertext level");
  assert(Acc.size() == A.size() && Acc.numQ() == A.numQ() &&
         Acc.Slots == A.Slots && "mulPlainAdd operand shape mismatch");
  assert(scalesCloseOrReport("mulPlainAdd", Acc.Scale, A.Scale * P.Scale) &&
         "mulPlainAdd scale mismatch");
  countOp(telemetry::Counter::Add);
  telemetry::FheOpSpan Span;
  if (telemetry::enabled())
    Span.begin(telemetry::Counter::CtPtMul, A.numQ(), A.Scale,
               noiseBudgetBits(A));
  // Acc[i] += A[i] * P elementwise - one fused backend mulAcc per limb
  // instead of a product temporary plus an add pass. Residues match the
  // unfused mulPlain-then-addInPlace sequence bit-for-bit.
  if (P.numQ() == A.numQ()) {
    for (size_t I = 0; I < A.size(); ++I)
      Acc.Polys[I].mulAddInPlace(A.Polys[I], P.Poly);
  } else {
    RnsPoly Restricted =
        P.Poly.restrictedCopy(A.numQ(), /*KeepSpecial=*/false);
    for (size_t I = 0; I < A.size(); ++I)
      Acc.Polys[I].mulAddInPlace(A.Polys[I], Restricted);
  }
}

Ciphertext Evaluator::mulScalar(const Ciphertext &A, double Value,
                                double TargetScale) const {
  countOp(telemetry::Counter::CtPtMul);
  Ciphertext R = A;
  if (TargetScale <= 0.0)
    TargetScale = A.Scale;
  // Plaintext scale P such that Scale * P / q_last == TargetScale exactly;
  // rounding the integer scalar to V only perturbs the VALUE (by at most
  // 0.5/V relative), never the scale bookkeeping.
  double P = TargetScale * mulPlainScale(A) / A.Scale;
  long double Raw = static_cast<long double>(std::fabs(Value)) *
                    static_cast<long double>(P);
  assert(Raw < 0x1.0p62L && "scalar too large for the scale");
  uint64_t V = static_cast<uint64_t>(llroundl(Raw));
  for (auto &Poly : R.Polys)
    Poly.mulScalarInt(V);
  if (Value < 0)
    for (auto &Poly : R.Polys)
      Poly.negateInPlace();
  R.Scale *= P;
  return R;
}

void Evaluator::mulIntegerInPlace(Ciphertext &A, int64_t Value) const {
  uint64_t Magnitude = static_cast<uint64_t>(Value < 0 ? -Value : Value);
  for (auto &Poly : A.Polys)
    Poly.mulScalarInt(Magnitude);
  if (Value < 0)
    for (auto &Poly : A.Polys)
      Poly.negateInPlace();
}

const std::vector<uint64_t> &Evaluator::monomialNtt(size_t ModIndex) const {
  auto &Cached = MonomialNtt[ModIndex];
  if (!Cached.empty())
    return Cached;
  size_t N = Ctx.degree();
  Cached.assign(N, 0);
  Cached[N / 2] = 1;
  Ctx.nttTable(ModIndex).forward(Cached.data());
  return Cached;
}

Ciphertext Evaluator::mulByI(const Ciphertext &A) const {
  // X^{N/2} evaluates to i at every slot root (zeta^{N/2} = i for all
  // canonical roots), so monomial multiplication rotates the complex
  // phase of every slot by 90 degrees exactly, without noise growth.
  Ciphertext R = A;
  size_t N = Ctx.degree();
  for (auto &Poly : R.Polys) {
    assert(Poly.isNtt() && "mulByI expects NTT form");
    // Warm the lazy monomial cache serially: the parallel loop below must
    // only read it (the cache is per-mod-index mutable state).
    for (size_t I = 0, E = Poly.numComponents(); I < E; ++I)
      monomialNtt(Poly.modIndex(I));
    const PolyBackend &B = activePolyBackend();
    parallelFor(0, Poly.numComponents(), [&](size_t I) {
      const auto &Mono = monomialNtt(Poly.modIndex(I));
      B.mul(Poly.component(I), Mono.data(), N, Poly.modulus(I));
    });
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Key switching
//===----------------------------------------------------------------------===//

/// The multiples of the source product M that make a basis conversion
/// exact and centered (BasisConversion): V[J] = round(sum_i Src[i * N + J]
/// / m_i) over source rows already multiplied by their inverse hats. A
/// double is enough: it can misround only within ~2^-44 of a half, where
/// the result is still a representative below M in magnitude.
static void centeringMultiples(const uint64_t *Src,
                               const BasisConversion &Conv, uint64_t *V,
                               size_t N) {
  // Residues are below 2^61, so the signed conversion (one instruction)
  // is exact to double precision.
  for (size_t J = 0; J < N; ++J) {
    double Sum = 0.0;
    for (size_t I = 0; I < Conv.NumSources; ++I)
      Sum += static_cast<double>(static_cast<int64_t>(Src[I * N + J])) *
             Conv.InvSource[I];
    V[J] = static_cast<uint64_t>(Sum + 0.5);
  }
}

/// One target limb of a basis conversion: Dst[J] = sum_i Src[i * N + J]
/// * Hats[i] + V[J] * NegM mod the target, where the source rows are
/// coefficient-domain residues already multiplied by their inverse hats,
/// V are the centering multiples (null for one source, where the sum is
/// already exact) and NegM is -M mod the target. The sum stays below
/// 2^127 (at most 32 products of values below 2^61, see makeConversion),
/// so one Barrett reduction finishes it.
static void convertLimb(const uint64_t *Src, const uint64_t *Hats,
                        size_t NumSources, const Barrett &Red, uint64_t *Dst,
                        size_t N, const uint64_t *V, uint64_t NegM) {
  // Blocks of coefficients with one 128-bit accumulator each, filled
  // four source rows per pass: the products are independent of each
  // other, and each accumulator is loaded and stored once per pass.
  using U128 = unsigned __int128;
  constexpr size_t Block = 64;
  U128 Acc[Block];
  for (size_t J0 = 0; J0 < N; J0 += Block) {
    size_t Len = std::min(Block, N - J0);
    for (size_t J = 0; J < Len; ++J)
      Acc[J] = V ? static_cast<U128>(V[J0 + J]) * NegM : 0;
    size_t I = 0;
    for (; I + 4 <= NumSources; I += 4) {
      const uint64_t *R0 = Src + I * N + J0;
      const uint64_t *R1 = R0 + N, *R2 = R1 + N, *R3 = R2 + N;
      uint64_t H0 = Hats[I], H1 = Hats[I + 1], H2 = Hats[I + 2],
               H3 = Hats[I + 3];
      for (size_t J = 0; J < Len; ++J)
        Acc[J] += static_cast<U128>(R0[J]) * H0 +
                  static_cast<U128>(R1[J]) * H1 +
                  static_cast<U128>(R2[J]) * H2 +
                  static_cast<U128>(R3[J]) * H3;
    }
    for (; I < NumSources; ++I) {
      const uint64_t *Row = Src + I * N + J0;
      for (size_t J = 0; J < Len; ++J)
        Acc[J] += static_cast<U128>(Row[J]) * Hats[I];
    }
    for (size_t J = 0; J < Len; ++J)
      Dst[J0 + J] = Red.reduce128(Acc[J]);
  }
}

HoistedDecomposition Evaluator::decomposeNtt(const RnsPoly &D) const {
  assert(D.isNtt() && !D.hasSpecial() &&
         "decomposeNtt input must be NTT-domain without special components");
  size_t L = D.numQ();
  size_t N = Ctx.degree();
  size_t Alpha = Ctx.keySwitch().DigitSize;
  size_t NumDigits = Ctx.keySwitch().digits(L);
  // One ModUp = the full digit decomposition; this is the unit of work
  // hoisted rotation batches share (one per batch instead of one per
  // rotation), so the counter pair below is what the differential tests
  // and EXPERIMENTS.md use to prove the amortization.
  countOp(telemetry::Counter::ModUp);
  countOp(telemetry::Counter::KeySwitchDigit, NumDigits);
  auto DigitSizeOf = [&](size_t Digit) {
    return std::min(Alpha, L - Digit * Alpha);
  };

  // Conversion sources: every limb in coefficient form, times its
  // inverse hat within its digit ([x_i * (Q_j / q_i)^{-1}]_{q_i}).
  RnsPoly Y(Ctx, L, /*HasSpecial=*/false, /*NttForm=*/false);
  const PolyBackend &B = activePolyBackend();
  parallelFor(0, L, [&](size_t I) {
    uint64_t *Limb = Y.component(I);
    std::copy(D.component(I), D.component(I) + N, Limb);
    Ctx.nttTable(I).inverse(Limb);
    size_t Digit = I / Alpha;
    const BasisConversion &Conv =
        Ctx.modUpConversion(Digit, DigitSizeOf(Digit));
    size_t Src = I - Conv.FirstSource;
    if (Conv.InvHat[Src] != 1)
      B.scalarMul(Limb, Conv.InvHat[Src], Conv.InvHatShoup[Src], N,
                  Ctx.qModulus(I));
  });

  // Centering multiples per multi-prime digit: each digit is raised as
  // its representative in (-Q_j/2, Q_j/2].
  std::vector<uint64_t> Centering(NumDigits * N);
  parallelFor(0, NumDigits, [&](size_t Digit) {
    const BasisConversion &Conv =
        Ctx.modUpConversion(Digit, DigitSizeOf(Digit));
    if (Conv.NumSources > 1)
      centeringMultiples(Y.component(Conv.FirstSource), Conv,
                         Centering.data() + Digit * N, N);
  });

  HoistedDecomposition Dec;
  Dec.NumQ = L;
  Dec.Digits.assign(NumDigits, RnsPoly(Ctx, L, /*HasSpecial=*/true,
                                       /*NttForm=*/true));
  size_t NumComp = L + Ctx.numSpecial();
  // Fully parallel over (digit, component) pairs. A digit is congruent to
  // D modulo its own primes, so those limbs are copied from the NTT-form
  // input; every other component is a basis conversion plus one forward
  // NTT. Every pair writes a disjoint slice, so the result is
  // bit-identical at any thread count.
  parallelFor(0, NumDigits * NumComp, [&](size_t Idx) {
    size_t Digit = Idx / NumComp;
    size_t C = Idx % NumComp;
    RnsPoly &E = Dec.Digits[Digit];
    const BasisConversion &Conv =
        Ctx.modUpConversion(Digit, DigitSizeOf(Digit));
    uint64_t *Dst = E.component(C);
    if (C >= Conv.FirstSource && C < Conv.FirstSource + Conv.NumSources) {
      std::copy(D.component(C), D.component(C) + N, Dst);
      return;
    }
    size_t Target = E.modIndex(C);
    convertLimb(Y.component(Conv.FirstSource), Conv.hatsFor(Target),
                Conv.NumSources, Ctx.barrett(Target), Dst, N,
                Conv.NumSources > 1 ? Centering.data() + Digit * N : nullptr,
                Conv.NegProductMod[Target]);
    Ctx.nttTable(Target).forward(Dst);
  });
  return Dec;
}

void Evaluator::hoistedInnerProduct(const HoistedDecomposition &Dec,
                                    const SwitchKey &Key, uint64_t Galois,
                                    RnsPoly &Acc0, RnsPoly &Acc1) const {
  size_t L = Dec.NumQ;
  size_t N = Ctx.degree();
  assert(Key.covers(L) &&
         "switch key truncated below this ciphertext's level");
  // Keys may be truncated below the full chain; their special components
  // sit right after their chain components.
  size_t KeyNumQ = Key.numQ();
  // The automorphism acts on every lifted digit as the same NTT-domain
  // index permutation, so instead of materializing rotated digits the
  // accumulation gathers through the permutation table (identity when
  // Galois == 1, which is the plain key-switch path).
  const uint32_t *Perm =
      Galois == 1 ? nullptr : Ctx.galoisNttPermutation(Galois).data();

  Acc0 = RnsPoly(Ctx, L, /*HasSpecial=*/true, /*NttForm=*/true);
  Acc1 = RnsPoly(Ctx, L, /*HasSpecial=*/true, /*NttForm=*/true);
  const PolyBackend &B = activePolyBackend();
  parallelFor(0, Acc0.numComponents(), [&](size_t C) {
    // Chain prime c maps to key component c, special prime k to the
    // key's own special slot k. Digits accumulate in ascending order so
    // each residue sees exactly the serial code's value; within a digit
    // the two backend mulAcc calls touch disjoint accumulators.
    size_t KeyComp = C < L ? C : KeyNumQ + (C - L);
    uint64_t Q = Acc0.modulus(C);
    uint64_t *A0 = Acc0.component(C);
    uint64_t *A1 = Acc1.component(C);
    std::vector<uint64_t> Gather(Perm ? N : 0);
    for (size_t Digit = 0; Digit < Dec.Digits.size(); ++Digit) {
      const uint64_t *X = Dec.Digits[Digit].component(C);
      const uint64_t *K0 = Key.Parts[Digit].first.component(KeyComp);
      const uint64_t *K1 = Key.Parts[Digit].second.component(KeyComp);
      if (Perm) {
        // Materialize the permuted digit once per (component, digit)
        // so the accumulation itself is a contiguous backend kernel.
        for (size_t J = 0; J < N; ++J)
          Gather[J] = X[Perm[J]];
        X = Gather.data();
      }
      B.mulAcc(A0, X, K0, N, Q);
      B.mulAcc(A1, X, K1, N, Q);
    }
  });
}

RnsPoly Evaluator::modDown(const RnsPoly &Acc) const {
  // Divide by the special-prime product P: out = (acc - [acc]_P) * P^{-1}
  // per chain prime, with [acc]_P carried out of the special limbs by the
  // exact conversion. Centered (K > 1), that is round(acc / P); one
  // special prime keeps the floor. Parallel over chain primes; each
  // writes only its own output limb.
  size_t L = Acc.numQ();
  size_t K = Ctx.numSpecial();
  size_t N = Ctx.degree();
  const BasisConversion &Conv = Ctx.modDownConversion();
  std::vector<uint64_t> Special(Acc.component(L), Acc.component(L) + K * N);
  const PolyBackend &B = activePolyBackend();
  for (size_t I = 0; I < K; ++I) {
    uint64_t *Limb = Special.data() + I * N;
    Ctx.nttTable(Ctx.specialIndex(I)).inverse(Limb);
    if (Conv.InvHat[I] != 1)
      B.scalarMul(Limb, Conv.InvHat[I], Conv.InvHatShoup[I], N,
                  Ctx.specialModulus(I));
  }
  std::vector<uint64_t> Centering(K > 1 ? N : 0);
  if (K > 1)
    centeringMultiples(Special.data(), Conv, Centering.data(), N);

  RnsPoly Out(Ctx, L, /*HasSpecial=*/false, /*NttForm=*/true);
  parallelFor(0, L, [&](size_t C) {
    uint64_t Q = Ctx.qModulus(C);
    std::vector<uint64_t> Tmp(N);
    convertLimb(Special.data(), Conv.hatsFor(C), K, Ctx.barrett(C),
                Tmp.data(), N, K > 1 ? Centering.data() : nullptr,
                Conv.NegProductMod[C]);
    Ctx.nttTable(C).forward(Tmp.data());
    uint64_t InvP = Ctx.invSpecialModQ(C);
    uint64_t InvPShoup = shoupPrecompute(InvP, Q);
    const uint64_t *A = Acc.component(C);
    uint64_t *O = Out.component(C);
    for (size_t J = 0; J < N; ++J)
      O[J] = mulModShoup(subMod(A[J], Tmp[J], Q), InvP, InvPShoup, Q);
  });
  return Out;
}

std::pair<RnsPoly, RnsPoly> Evaluator::switchKey(const RnsPoly &D,
                                                 const SwitchKey &Key) const {
  assert(D.isNtt() && !D.hasSpecial() &&
         "switchKey input must be NTT-domain without special components");
  assert(Key.covers(D.numQ()) &&
         "switch key truncated below this ciphertext's level");
  telemetry::FheOpSpan Span;
  if (telemetry::enabled())
    Span.begin(telemetry::Counter::KeySwitch, D.numQ(), /*Scale=*/0.0,
               std::numeric_limits<double>::quiet_NaN());

  HoistedDecomposition Dec = decomposeNtt(D);
  RnsPoly Acc0, Acc1;
  hoistedInnerProduct(Dec, Key, /*Galois=*/1, Acc0, Acc1);
  return {modDown(Acc0), modDown(Acc1)};
}

Ciphertext Evaluator::relinearize(const Ciphertext &A) const {
  assert(A.size() == 3 && "relinearize expects a Cipher3");
  assert(Keys.HasRelin && "relinearization key not generated");
  telemetry::FheOpSpan Span;
  if (telemetry::enabled())
    Span.begin(telemetry::Counter::Relinearize, A.numQ(), A.Scale,
               noiseBudgetBits(A));

  auto [D0, D1] = switchKey(A.Polys[2], Keys.Relin);

  Ciphertext R;
  R.Scale = A.Scale;
  R.Slots = A.Slots;
  R.Polys.push_back(A.Polys[0]);
  R.Polys.push_back(A.Polys[1]);
  R.Polys[0].addInPlace(D0);
  R.Polys[1].addInPlace(D1);
  return R;
}

Ciphertext Evaluator::applyGaloisHoisted(
    const Ciphertext &A, uint64_t Galois, const SwitchKey &Key,
    const HoistedDecomposition &Dec) const {
  RnsPoly Acc0, Acc1;
  hoistedInnerProduct(Dec, Key, Galois, Acc0, Acc1);
  RnsPoly D0 = modDown(Acc0);
  RnsPoly D1 = modDown(Acc1);
  // c0 needs no key switch: apply the automorphism directly in the NTT
  // domain (exactly equal to coeff-domain automorphism + forward NTT).
  D0.addInPlace(A.Polys[0].automorphismNtt(Galois));

  Ciphertext R;
  R.Scale = A.Scale;
  R.Slots = A.Slots;
  R.Polys.push_back(std::move(D0));
  R.Polys.push_back(std::move(D1));
  return R;
}

Ciphertext Evaluator::applyGalois(const Ciphertext &A, uint64_t Galois,
                                  const SwitchKey &Key) const {
  assert(A.size() == 2 && "relinearize before applying automorphisms");
  assert(Key.covers(A.numQ()) &&
         "switch key truncated below this ciphertext's level");
  telemetry::FheOpSpan Span;
  if (telemetry::enabled())
    Span.begin(telemetry::Counter::KeySwitch, A.numQ(), /*Scale=*/0.0,
               std::numeric_limits<double>::quiet_NaN());

  // Decompose-first order: ModUp the un-rotated c1, then apply the
  // automorphism inside the decomposed digit domain. A hoisted batch of
  // one -- which is what makes rotate() bit-identical to rotateHoisted()
  // (both run exactly this arithmetic on the same decomposition).
  HoistedDecomposition Dec = decomposeNtt(A.Polys[1]);
  return applyGaloisHoisted(A, Galois, Key, Dec);
}

Ciphertext Evaluator::rotate(const Ciphertext &A, int64_t Steps) const {
  size_t Slots = A.Slots;
  int64_t K = ((Steps % static_cast<int64_t>(Slots)) +
               static_cast<int64_t>(Slots)) %
              static_cast<int64_t>(Slots);
  if (K == 0)
    return A;
  telemetry::FheOpSpan Span;
  if (telemetry::enabled())
    Span.begin(telemetry::Counter::Rotate, A.numQ(), A.Scale,
               noiseBudgetBits(A));
  uint64_t Galois = galoisForRotation(Ctx.degree(), Slots, K);
  // The hot tier has no error channel; a keygen failure here is a caller
  // bug (use checkedRotate under budget pressure), surfaced as a clean
  // abort rather than UB. The handle pins the key for the switch.
  auto Key = KeyCache.get(Galois);
  if (!Key.ok())
    reportFatalError("rotate: " + Key.status().message());
  return applyGalois(A, Galois, **Key);
}

std::vector<Ciphertext>
Evaluator::rotateHoisted(const Ciphertext &A,
                         const std::vector<int64_t> &Steps) const {
  assert(A.size() == 2 && "relinearize before rotating");
  int64_t Slots = static_cast<int64_t>(A.Slots);
  std::vector<Ciphertext> Out(Steps.size());

  // Resolve keys up front; zero steps are plain copies and join neither
  // the counters nor the batch. Each job's handle pins its key for the
  // whole batch so a concurrent eviction cannot free one mid-rotation.
  struct Job {
    size_t Index;
    uint64_t Galois;
    std::shared_ptr<const SwitchKey> Key;
  };
  std::vector<Job> Jobs;
  Jobs.reserve(Steps.size());
  for (size_t I = 0; I < Steps.size(); ++I) {
    int64_t K = ((Steps[I] % Slots) + Slots) % Slots;
    if (K == 0) {
      Out[I] = A;
      continue;
    }
    uint64_t Galois = galoisForRotation(Ctx.degree(), A.Slots, K);
    auto Key = KeyCache.get(Galois);
    if (!Key.ok())
      reportFatalError("rotateHoisted: " + Key.status().message());
    assert((*Key)->covers(A.numQ()) &&
           "rotation key truncated below this ciphertext's level");
    Jobs.push_back({I, Galois, Key.take()});
  }
  if (Jobs.empty())
    return Out;

  telemetry::FheOpSpan Span;
  if (telemetry::enabled()) {
    auto &T = telemetry::Telemetry::instance();
    // The batch gets one trace span; the counters still tally every
    // rotation so hoisted and sequential runs report identical op counts
    // (the span's begin() contributes the final Rotate increment).
    T.count(telemetry::Counter::Rotate, Jobs.size() - 1);
    T.count(telemetry::Counter::KeySwitch, Jobs.size());
    T.count(telemetry::Counter::HoistedKeySwitch, Jobs.size());
    Span.begin(telemetry::Counter::Rotate, A.numQ(), A.Scale,
               noiseBudgetBits(A));
  }

  // ModUp once for the whole batch (N decompositions -> 1).
  HoistedDecomposition Dec = decomposeNtt(A.Polys[1]);

  // Warm the lazy Galois permutation cache serially: the parallel loop
  // below should only read it.
  for (const Job &J : Jobs)
    Ctx.galoisNttPermutation(J.Galois);

  // One inner product + ModDown per rotation, spread across the pool.
  // Each iteration writes only its own output slot, and the per-rotation
  // arithmetic is identical to the sequential path's, so the batch is
  // bit-identical to N rotate() calls at every thread count.
  parallelFor(0, Jobs.size(), [&](size_t J) {
    Out[Jobs[J].Index] =
        applyGaloisHoisted(A, Jobs[J].Galois, *Jobs[J].Key, Dec);
  });
  return Out;
}

Ciphertext Evaluator::rotateGalois(const Ciphertext &A,
                                   uint64_t Galois) const {
  if (Galois == 1)
    return A;
  telemetry::FheOpSpan Span;
  if (telemetry::enabled())
    Span.begin(telemetry::Counter::Rotate, A.numQ(), A.Scale,
               noiseBudgetBits(A));
  auto Key = KeyCache.get(Galois);
  if (!Key.ok())
    reportFatalError("rotateGalois: " + Key.status().message());
  return applyGalois(A, Galois, **Key);
}

Ciphertext Evaluator::conjugate(const Ciphertext &A) const {
  assert(Keys.HasConjugate && "conjugation key not generated");
  telemetry::FheOpSpan Span;
  if (telemetry::enabled())
    Span.begin(telemetry::Counter::Conjugate, A.numQ(), A.Scale,
               noiseBudgetBits(A));
  return applyGalois(A, galoisForConjugation(Ctx.degree()), Keys.Conjugate);
}

//===----------------------------------------------------------------------===//
// Scale and level management
//===----------------------------------------------------------------------===//

void Evaluator::rescaleInPlace(Ciphertext &A) const {
  size_t L = A.numQ();
  assert(L >= 2 && "cannot rescale past the base modulus");
  telemetry::FheOpSpan Span;
  if (telemetry::enabled())
    Span.begin(telemetry::Counter::Rescale, A.numQ(), A.Scale,
               noiseBudgetBits(A));
  size_t N = Ctx.degree();
  size_t Last = L - 1;
  uint64_t QLast = Ctx.qModulus(Last);

  for (auto &Poly : A.Polys) {
    assert(Poly.isNtt() && "rescale expects NTT form");
    std::vector<uint64_t> LastCoeffs(Poly.component(Last),
                                     Poly.component(Last) + N);
    Ctx.nttTable(Last).inverse(LastCoeffs.data());

    // Parallel over the surviving limbs; each index owns its limb and a
    // local reduction buffer. Residues of q_last reduce into q_c by one
    // conditional subtraction when q_last < 2 q_c (neighbouring rescale
    // primes), by Barrett otherwise.
    parallelFor(0, Last, [&](size_t C) {
      uint64_t Q = Ctx.qModulus(C);
      const Barrett &Red = Ctx.barrett(C);
      bool OneSubtraction = QLast < 2 * Q;
      std::vector<uint64_t> Tmp(N);
      for (size_t J = 0; J < N; ++J) {
        uint64_t V = LastCoeffs[J];
        Tmp[J] = OneSubtraction ? (V >= Q ? V - Q : V) : Red.reduce(V);
      }
      Ctx.nttTable(C).forward(Tmp.data());
      uint64_t Inv = Ctx.invQLastModQ(Last, C);
      uint64_t InvShoup = shoupPrecompute(Inv, Q);
      uint64_t *Comp = Poly.component(C);
      for (size_t J = 0; J < N; ++J)
        Comp[J] = mulModShoup(subMod(Comp[J], Tmp[J], Q), Inv, InvShoup, Q);
    });
    Poly.dropLastQ();
  }
  A.Scale /= static_cast<double>(QLast);
}

void Evaluator::modSwitchInPlace(Ciphertext &A) const {
  assert(A.numQ() >= 2 && "cannot mod-switch past the base modulus");
  countOp(telemetry::Counter::ModSwitch);
  for (auto &Poly : A.Polys)
    Poly.dropLastQ();
}

void Evaluator::modSwitchTo(Ciphertext &A, size_t NumQ) const {
  assert(NumQ >= 1 && NumQ <= A.numQ() && "bad mod-switch target");
  while (A.numQ() > NumQ)
    modSwitchInPlace(A);
}

void Evaluator::upscaleInPlace(Ciphertext &A, int LogFactor) const {
  assert(LogFactor >= 0 && LogFactor < 62 && "bad upscale factor");
  uint64_t Factor = 1ULL << LogFactor;
  for (auto &Poly : A.Polys)
    Poly.mulScalarInt(Factor);
  A.Scale *= static_cast<double>(Factor);
}

void Evaluator::downscaleInPlace(Ciphertext &A, double TargetScale) const {
  assert(A.numQ() >= 2 && "downscale needs a level to consume");
  // Multiply by 1 encoded at scale P = Target * (consumed primes) / Scale,
  // then rescale once per consumed prime: the final scale is exactly
  // TargetScale, and the value error is 0.5/round(P). Consuming extra
  // levels keeps P large enough (>= 2^40) that the error is negligible;
  // deep squaring chains would amplify anything coarser exponentially.
  double P = TargetScale * static_cast<double>(Ctx.qModulus(A.numQ() - 1)) /
             A.Scale;
  assert(P >= 1.0 && "downscale target too small for the available levels");
  int Levels = 1;
  while (P < 0x1.0p25 && A.numQ() > static_cast<size_t>(Levels) + 1 &&
         Levels < 3) {
    double Q = static_cast<double>(Ctx.qModulus(A.numQ() - 1 - Levels));
    if (P * Q >= 0x1.0p62)
      break;
    P *= Q;
    ++Levels;
  }
  assert(P < 0x1.0p62 && "downscale plaintext scale out of range");
  uint64_t V = static_cast<uint64_t>(llround(P));
  for (auto &Poly : A.Polys)
    Poly.mulScalarInt(V);
  A.Scale *= P;
  for (int I = 0; I < Levels; ++I)
    rescaleInPlace(A);
}

Plaintext Evaluator::encodeForMul(const Ciphertext &Ct,
                                  const std::vector<double> &Values) const {
  return Enc.encodeReal(Values, mulPlainScale(Ct), Ct.numQ());
}

Plaintext Evaluator::encodeForMulComplex(
    const Ciphertext &Ct,
    const std::vector<std::complex<double>> &Values) const {
  return Enc.encode(Values, mulPlainScale(Ct), Ct.numQ());
}

Plaintext Evaluator::encodeForAdd(const Ciphertext &Ct,
                                  const std::vector<double> &Values) const {
  return Enc.encodeReal(Values, Ct.Scale, Ct.numQ());
}

double Evaluator::mulPlainScale(const Ciphertext &Ct) const {
  // Encoding at the prime the next rescale drops makes mul + rescale
  // preserve the ciphertext scale exactly.
  assert(Ct.numQ() >= 2 && "no rescale prime available at the base level");
  return static_cast<double>(Ctx.qModulus(Ct.numQ() - 1));
}

void Evaluator::matchForAdd(Ciphertext &A, Ciphertext &B) const {
  if (A.numQ() > B.numQ())
    modSwitchTo(A, B.numQ());
  else if (B.numQ() > A.numQ())
    modSwitchTo(B, A.numQ());
  assert(scalesCloseOrReport("matchForAdd", A.Scale, B.Scale) &&
         "operands cannot be aligned: scales differ");
}

//===----------------------------------------------------------------------===//
// Checked entry points
//===----------------------------------------------------------------------===//

Status Evaluator::checkedMatchForAdd(Ciphertext &A, Ciphertext &B) const {
  ACE_RETURN_IF_ERROR(checkedEntry(Ctx, "matchForAdd", &A, &B));
  if (A.numQ() > B.numQ())
    modSwitchTo(A, B.numQ());
  else if (B.numQ() > A.numQ())
    modSwitchTo(B, A.numQ());
  if (!scalesClose(A.Scale, B.Scale))
    return Status::scaleMismatch(
        scaleMismatchMessage("matchForAdd", A.Scale, B.Scale) +
        " at " + std::to_string(A.numQ()) + " active primes");
  return Status::success();
}

StatusOr<Ciphertext> Evaluator::checkedAdd(const Ciphertext &A,
                                           const Ciphertext &B) const {
  Ciphertext X = A, Y = B;
  ACE_RETURN_IF_ERROR(checkedMatchForAdd(X, Y));
  if (X.Slots != Y.Slots)
    return Status::invalidArgument(
        "add: operands pack different slot counts (" +
        std::to_string(X.Slots) + " vs " + std::to_string(Y.Slots) + ")");
  addInPlace(X, Y);
  return X;
}

StatusOr<Ciphertext> Evaluator::checkedSub(const Ciphertext &A,
                                           const Ciphertext &B) const {
  Ciphertext X = A, Y = B;
  ACE_RETURN_IF_ERROR(checkedMatchForAdd(X, Y));
  if (X.Slots != Y.Slots)
    return Status::invalidArgument(
        "sub: operands pack different slot counts (" +
        std::to_string(X.Slots) + " vs " + std::to_string(Y.Slots) + ")");
  subInPlace(X, Y);
  return X;
}

/// True when the armed fault harness says this key lookup must fail.
static bool keyDropped(FaultKind Kind) {
  FaultInjector &Faults = FaultInjector::instance();
  return Faults.enabled() && Faults.shouldFire(Kind);
}

Status Evaluator::checkedRelinSupport(const char *What,
                                      size_t NumQ) const {
  if (!Keys.HasRelin || keyDropped(FaultKind::DropRelinKey))
    return Status::keyMissing(
        std::string(What) +
        ": relinearization key not generated (call keygen with relin "
        "enabled)");
  if (!Keys.Relin.covers(NumQ))
    return Status::keyMissing(
        std::string(What) + ": relinearization key truncated to " +
        keyLevel(Keys.Relin) + " but the ciphertext has " +
        std::to_string(NumQ) + " active primes");
  return Status::success();
}

Status Evaluator::checkedNoiseBudget(const char *What, const Ciphertext &A,
                                     double ExtraLogScale) const {
  // The product's scale is A.Scale * 2^ExtraLogScale; once log2 of that
  // exceeds log2 of the active modulus product the plaintext wraps around
  // the modulus and decrypts to unrelated values with no error indication.
  // Require one bit of headroom so near-misses (scale within rounding of
  // the modulus) are also rejected.
  double Budget = noiseBudgetBits(A) - ExtraLogScale;
  if (Budget < 1.0) {
    char Msg[256];
    std::snprintf(Msg, sizeof(Msg),
                  "%s: noise budget exhausted: product scale 2^%.1f would "
                  "overrun the active modulus (2^%.1f at %zu active "
                  "primes); rescale or bootstrap before multiplying",
                  What, std::log2(A.Scale) + ExtraLogScale,
                  noiseBudgetBits(A) + std::log2(A.Scale), A.numQ());
    return Status::depthExhausted(Msg);
  }
  return Status::success();
}

StatusOr<Ciphertext> Evaluator::checkedMul(const Ciphertext &A,
                                           const Ciphertext &B) const {
  Ciphertext X = A, Y = B;
  ACE_RETURN_IF_ERROR(checkedMatchForAdd(X, Y));
  if (X.size() != 2 || Y.size() != 2)
    return Status::invalidArgument(
        "mul: operands must be relinearized two-polynomial ciphertexts "
        "(got " + std::to_string(X.size()) + " and " +
        std::to_string(Y.size()) + " components)");
  ACE_RETURN_IF_ERROR(checkedRelinSupport("mul", X.numQ()));
  ACE_RETURN_IF_ERROR(checkedNoiseBudget("mul", X, std::log2(Y.Scale)));
  return mul(X, Y);
}

StatusOr<Ciphertext>
Evaluator::checkedMulPlain(const Ciphertext &A,
                           const std::vector<double> &Values) const {
  ACE_RETURN_IF_ERROR(checkedEntry(Ctx, "mulPlain", &A, nullptr));
  if (Values.size() > Ctx.slots())
    return Status::invalidArgument(
        "mulPlain: " + std::to_string(Values.size()) +
        " plaintext values exceed the context's " +
        std::to_string(Ctx.slots()) + " slots");
  if (A.numQ() < 2)
    return Status::depthExhausted(
        "mulPlain: ciphertext at the base modulus (1 active prime); no "
        "rescale prime is available to multiply against");
  ACE_RETURN_IF_ERROR(
      checkedNoiseBudget("mulPlain", A, std::log2(mulPlainScale(A))));
  std::vector<double> Padded = Values;
  Padded.resize(Ctx.slots(), 0.0);
  return mulPlain(A, encodeForMul(A, Padded));
}

StatusOr<Ciphertext>
Evaluator::checkedAddPlain(const Ciphertext &A,
                           const std::vector<double> &Values) const {
  ACE_RETURN_IF_ERROR(checkedEntry(Ctx, "addPlain", &A, nullptr));
  if (Values.size() > Ctx.slots())
    return Status::invalidArgument(
        "addPlain: " + std::to_string(Values.size()) +
        " plaintext values exceed the context's " +
        std::to_string(Ctx.slots()) + " slots");
  std::vector<double> Padded = Values;
  Padded.resize(Ctx.slots(), 0.0);
  return addPlain(A, encodeForAdd(A, Padded));
}

StatusOr<Ciphertext> Evaluator::checkedMulScalar(const Ciphertext &A,
                                                 double Value,
                                                 double TargetScale) const {
  ACE_RETURN_IF_ERROR(checkedEntry(Ctx, "mulScalar", &A, nullptr));
  if (A.numQ() < 2)
    return Status::depthExhausted(
        "mulScalar: ciphertext at the base modulus (1 active prime); no "
        "rescale prime is available to scale against");
  ACE_RETURN_IF_ERROR(
      checkedNoiseBudget("mulScalar", A, std::log2(mulPlainScale(A))));
  if (!std::isfinite(Value))
    return Status::invalidArgument("mulScalar: non-finite scalar operand");
  double Target = TargetScale <= 0.0 ? A.Scale : TargetScale;
  long double Raw = static_cast<long double>(std::fabs(Value)) *
                    static_cast<long double>(Target * mulPlainScale(A) /
                                             A.Scale);
  if (!(Raw < 0x1.0p62L))
    return Status::invalidArgument(
        "mulScalar: scalar " + std::to_string(Value) +
        " overflows the 62-bit encoding at target scale " +
        std::to_string(Target));
  return mulScalar(A, Value, TargetScale);
}

StatusOr<Ciphertext> Evaluator::checkedAddConst(Ciphertext A,
                                                double Value) const {
  ACE_RETURN_IF_ERROR(checkedEntry(Ctx, "addConst", &A, nullptr));
  long double Raw = static_cast<long double>(Value) *
                    static_cast<long double>(A.Scale);
  if (!std::isfinite(Value) || !(fabsl(Raw) < 0x1.0p62L))
    return Status::invalidArgument(
        "addConst: constant " + std::to_string(Value) +
        " overflows the 62-bit encoding at scale " +
        std::to_string(A.Scale));
  addConstInPlace(A, Value);
  return A;
}

StatusOr<Ciphertext> Evaluator::checkedRotate(const Ciphertext &A,
                                              int64_t Steps) const {
  ACE_RETURN_IF_ERROR(checkedEntry(Ctx, "rotate", &A, nullptr));
  if (A.size() != 2)
    return Status::invalidArgument(
        "rotate: relinearize before rotating (ciphertext has " +
        std::to_string(A.size()) + " components)");
  int64_t Slots = static_cast<int64_t>(A.Slots);
  int64_t K = ((Steps % Slots) + Slots) % Slots;
  if (K == 0)
    return A;
  uint64_t Galois = galoisForRotation(Ctx.degree(), A.Slots, K);
  ACE_ASSIGN_OR_RETURN(std::shared_ptr<const SwitchKey> Key,
                       checkedRotationKey(Steps, Galois, A.numQ()));
  telemetry::FheOpSpan Span;
  if (telemetry::enabled())
    Span.begin(telemetry::Counter::Rotate, A.numQ(), A.Scale,
               noiseBudgetBits(A));
  return applyGalois(A, Galois, *Key);
}

StatusOr<std::shared_ptr<const SwitchKey>>
Evaluator::checkedRotationKey(int64_t Steps, uint64_t Galois,
                              size_t NumQ) const {
  auto Key = KeyCache.get(Galois);
  if (!Key.ok() && Key.status().code() != ErrorCode::KeyMissing)
    return Key.status(); // budget refusal from keygen: ResourceExhausted
  if (!Key.ok() || keyDropped(FaultKind::DropGaloisKey))
    return Status::keyMissing(
        "rotate: no rotation key for step " + std::to_string(Steps) +
        " (galois element " + std::to_string(Galois) +
        "); the key analysis did not request this step");
  if (!(*Key)->covers(NumQ))
    return Status::keyMissing(
        "rotate: rotation key for step " + std::to_string(Steps) +
        " truncated to " + keyLevel(**Key) + " but the ciphertext has " +
        std::to_string(NumQ) + " active primes");
  return Key;
}

StatusOr<std::vector<Ciphertext>>
Evaluator::checkedRotateHoisted(const Ciphertext &A,
                                const std::vector<int64_t> &Steps) const {
  ACE_RETURN_IF_ERROR(checkedEntry(Ctx, "rotate", &A, nullptr));
  if (A.size() != 2)
    return Status::invalidArgument(
        "rotate: relinearize before rotating (ciphertext has " +
        std::to_string(A.size()) + " components)");
  int64_t Slots = static_cast<int64_t>(A.Slots);
  // Pin every key across the validation AND the rotation: the Pins
  // vector outlives the rotateHoisted call below, so a concurrent
  // eviction between check and use cannot free a key (the batch
  // re-resolves each key from the still-live cache entry).
  std::vector<std::shared_ptr<const SwitchKey>> Pins;
  for (int64_t Step : Steps) {
    int64_t K = ((Step % Slots) + Slots) % Slots;
    if (K == 0)
      continue;
    uint64_t Galois = galoisForRotation(Ctx.degree(), A.Slots, K);
    ACE_ASSIGN_OR_RETURN(std::shared_ptr<const SwitchKey> Key,
                         checkedRotationKey(Step, Galois, A.numQ()));
    Pins.push_back(std::move(Key));
  }
  return rotateHoisted(A, Steps);
}

StatusOr<Ciphertext> Evaluator::checkedConjugate(const Ciphertext &A) const {
  ACE_RETURN_IF_ERROR(checkedEntry(Ctx, "conjugate", &A, nullptr));
  if (A.size() != 2)
    return Status::invalidArgument(
        "conjugate: relinearize before conjugating (ciphertext has " +
        std::to_string(A.size()) + " components)");
  if (!Keys.HasConjugate || keyDropped(FaultKind::DropGaloisKey))
    return Status::keyMissing("conjugate: conjugation key not generated");
  if (!Keys.Conjugate.covers(A.numQ()))
    return Status::keyMissing(
        "conjugate: conjugation key truncated to " +
        keyLevel(Keys.Conjugate) + " but the ciphertext has " +
        std::to_string(A.numQ()) + " active primes");
  return conjugate(A);
}

StatusOr<Ciphertext> Evaluator::checkedRelinearize(const Ciphertext &A) const {
  ACE_RETURN_IF_ERROR(checkedEntry(Ctx, "relinearize", &A, nullptr));
  if (A.size() != 3)
    return Status::invalidArgument(
        "relinearize: expected a three-polynomial Cipher3, got " +
        std::to_string(A.size()) + " components");
  ACE_RETURN_IF_ERROR(checkedRelinSupport("relinearize", A.numQ()));
  return relinearize(A);
}

StatusOr<Ciphertext> Evaluator::checkedRescale(Ciphertext A) const {
  ACE_RETURN_IF_ERROR(checkedEntry(Ctx, "rescale", &A, nullptr));
  if (A.numQ() < 2)
    return Status::depthExhausted(
        "rescale: depth exhausted: ciphertext already at the base modulus "
        "(1 active prime)");
  rescaleInPlace(A);
  return A;
}

StatusOr<Ciphertext> Evaluator::checkedModSwitchTo(Ciphertext A,
                                                   size_t NumQ) const {
  ACE_RETURN_IF_ERROR(checkedEntry(Ctx, "modSwitch", &A, nullptr));
  if (NumQ < 1 || NumQ > A.numQ())
    return Status::levelMismatch(
        "modSwitch: target of " + std::to_string(NumQ) +
        " active primes is outside [1, " + std::to_string(A.numQ()) +
        "] for this ciphertext");
  modSwitchTo(A, NumQ);
  return A;
}
