//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "fhe/Bootstrapper.h"

#include "fhe/ModArith.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <cmath>

using namespace ace;
using namespace ace::fhe;

/// Levels Evaluator::downscaleInPlace consumes to multiply by a plaintext
/// scale of 2^LogP when each further level it drops is a prime of about
/// 2^LogPrime: it keeps the scale at least 2^25 and below 2^62.
static int downscaleLevels(double LogP, int LogPrime) {
  int Levels = 1;
  while (LogP < 25.0 && Levels < 3 && LogP + LogPrime < 62.0) {
    LogP += LogPrime;
    ++Levels;
  }
  return Levels;
}

int ace::fhe::estimateBootstrapDepth(size_t RingDegree, size_t Slots,
                                     const BootstrapConfig &Config,
                                     int LogScale, int LogFirstModulus) {
  size_t Span = (RingDegree / 2) / Slots;
  int LogSpan = 0;
  while ((size_t(1) << LogSpan) < Span)
    ++LogSpan;
  int K2 = Config.RangeK * static_cast<int>(Span);
  int EvalModDepth =
      ChebyshevEvaluator::depthForDegree(Config.ChebyshevDegree) +
      Config.DoubleAngleCount + LogSpan;
  // CoeffToSlot leaves scale q_0 (K2 + 1); its downscale to Delta
  // multiplies by Delta q_last / (q_0 (K2 + 1)). SlotToCoeff keeps
  // Delta, so the last downscale multiplies by about q_last.
  double LogP = 2.0 * LogScale - LogFirstModulus - std::log2(K2 + 1.0);
  return 1 /*CoeffToSlot*/ + downscaleLevels(LogP, LogScale) +
         EvalModDepth + 1 /*SlotToCoeff*/ +
         downscaleLevels(LogScale, LogScale);
}

Bootstrapper::Bootstrapper(const Evaluator &Eval, BootstrapConfig Config)
    : Eval(Eval), Config(Config), Cheb(Eval) {
  assert(Config.RangeK >= 1 && Config.DoubleAngleCount >= 0 &&
         Config.ChebyshevDegree >= 3 && "invalid bootstrap configuration");
  // The SubSum trace (which must run AFTER ModRaise so the overflow
  // polynomial is projected onto the packing subring - off-grid overflow
  // coefficients would otherwise fold back onto the grid inside EvalMod's
  // squarings) multiplies the overflow bound by span. The extra factor is
  // absorbed by log2(span) additional double-angle iterations, keeping
  // the Chebyshev degree constant.
  //
  // Approximate h(u) = cos((2 pi (K2+1) u - pi/2) / 2^r) on [-1, 1]. After
  // r double-angle steps, h becomes cos(2 pi t - pi/2) = sin(2 pi t) with
  // t = (K2+1) u.
  double K2Plus1 = static_cast<double>(rangeBound() + 1);
  double Divisor = std::ldexp(1.0, doubleAngles());
  SineCoeffs = chebyshevInterpolate(
      [&](double U) {
        return std::cos((2.0 * M_PI * K2Plus1 * U - M_PI / 2.0) / Divisor);
      },
      Config.ChebyshevDegree);
}

size_t Bootstrapper::span() const {
  const Context &Ctx = Eval.context();
  return (Ctx.degree() / 2) / Ctx.slots();
}

int Bootstrapper::rangeBound() const {
  return Config.RangeK * static_cast<int>(span());
}

int Bootstrapper::doubleAngles() const {
  int LogSpan = 0;
  while ((size_t(1) << LogSpan) < span())
    ++LogSpan;
  return Config.DoubleAngleCount + LogSpan;
}

int Bootstrapper::depthCost() const {
  const Context &Ctx = Eval.context();
  return estimateBootstrapDepth(Ctx.degree(), Ctx.slots(), Config,
                                Ctx.params().LogScale,
                                Ctx.params().LogFirstModulus);
}

size_t Bootstrapper::babySteps() const {
  size_t N = Eval.context().slots();
  size_t BS = 1;
  while (BS * BS < N)
    BS <<= 1;
  return BS;
}

std::vector<int64_t> Bootstrapper::requiredRotations() const {
  size_t N = Eval.context().slots();
  size_t BS = babySteps();
  std::vector<int64_t> Steps;
  for (size_t J = 1; J < BS; ++J)
    Steps.push_back(static_cast<int64_t>(J));
  for (size_t I = BS; I < N; I += BS)
    Steps.push_back(static_cast<int64_t>(I));
  return Steps;
}

std::vector<uint64_t> Bootstrapper::requiredGaloisElements() const {
  const Context &Ctx = Eval.context();
  size_t N = Ctx.degree();
  size_t Slots = Ctx.slots();
  size_t Span = (N / 2) / Slots;
  std::vector<uint64_t> Elements;
  uint64_t TwoN = 2 * N;
  for (size_t Step = Slots; Step * 2 <= Slots * Span; Step *= 2) {
    // Galois element 5^Step mod 2N: rotation by a multiple of the slot
    // count, which fixes the subring.
    uint64_t G = 1;
    for (size_t I = 0; I < Step; ++I)
      G = (G * 5) % TwoN;
    Elements.push_back(G);
  }
  return Elements;
}

std::complex<double> Bootstrapper::matrixEntry(int MatrixId, size_t Row,
                                               size_t Col) const {
  const Encoder &Enc = Eval.encoder();
  size_t N = Eval.context().slots();

  // The large constants (q_0, K2, Delta) are applied as exact scale-
  // metadata changes after each matvec, keeping the matrix entries O(1)
  // so their plaintext quantization error stays negligible.
  if (MatrixId == 0) {
    // CoeffToSlot: (1/2) * (1/n) * U^H with U[j][k] = zeta_j^k;
    // (U^H)[row][col] = conj(zeta_col^row). The 1/2 pre-halves the
    // real/imag separation sums.
    std::complex<double> Zeta = Enc.slotRoot(Col);
    std::complex<double> Entry =
        std::conj(std::pow(Zeta, static_cast<double>(Row)));
    return Entry * (0.5 / static_cast<double>(N));
  }
  // SlotToCoeff: U * q0 / (2 pi * span * Delta).
  std::complex<double> Zeta = Enc.slotRoot(Row);
  std::complex<double> Entry = std::pow(Zeta, static_cast<double>(Col));
  double Factor = Eval.context().firstModulus() /
                  (2.0 * M_PI * static_cast<double>(span()) *
                   Eval.context().scale());
  return Entry * Factor;
}

const std::vector<Plaintext> &Bootstrapper::diagonals(int MatrixId,
                                                      size_t NumQ) const {
  auto Key = std::make_pair(MatrixId, NumQ);
  auto It = DiagCache.find(Key);
  if (It != DiagCache.end())
    return It->second;

  const Context &Ctx = Eval.context();
  const Encoder &Enc = Eval.encoder();
  size_t N = Ctx.slots();
  size_t BS = babySteps();
  // The plaintext scale is the prime the post-matvec rescale drops, so the
  // ciphertext scale is preserved exactly.
  double Scale = static_cast<double>(Ctx.qModulus(NumQ - 1));

  // Each diagonal's entries and encoding depend only on its own index
  // (slotRoot/matrixEntry read precomputed tables, Encoder::encode is
  // pure on the encode path), so the N diagonals build in parallel into
  // a pre-sized vector - a large one-time cost per (matrix, level) pair.
  std::vector<Plaintext> Diags(N);
  parallelFor(0, N, [&](size_t D) {
    std::vector<std::complex<double>> DiagValues(N);
    size_t GiantBase = (D / BS) * BS;
    for (size_t T = 0; T < N; ++T) {
      // diag_d[t] = M[t][(t+d) mod n], pre-rotated right by the giant
      // base (rot_{-giant}) so the BSGS inner sums can be rotated as a
      // block afterwards.
      size_t Src = (T + N - GiantBase % N) % N;
      DiagValues[T] = matrixEntry(MatrixId, Src, (Src + D) % N);
    }
    Diags[D] = Enc.encode(DiagValues, Scale, NumQ);
  });
  auto [Inserted, Ok] = DiagCache.emplace(Key, std::move(Diags));
  (void)Ok;
  return Inserted->second;
}

Ciphertext Bootstrapper::matvec(const Ciphertext &Ct, int MatrixId) const {
  size_t N = Ct.Slots;
  size_t BS = babySteps();
  size_t GS = (N + BS - 1) / BS;
  const std::vector<Plaintext> &Diags = diagonals(MatrixId, Ct.numQ());

  // Baby rotations of the input, hoisted: all BS-1 rotations share one
  // digit decomposition of Ct's c1 (the giant rotations below each act
  // on a distinct Inner ciphertext, so they cannot share one).
  std::vector<int64_t> BabySteps;
  BabySteps.reserve(BS - 1);
  for (size_t J = 1; J < BS; ++J)
    BabySteps.push_back(static_cast<int64_t>(J));
  std::vector<Ciphertext> Rotated;
  Rotated.reserve(BS);
  Rotated.push_back(Ct);
  for (Ciphertext &R : Eval.rotateHoisted(Ct, BabySteps))
    Rotated.push_back(std::move(R));

  bool HaveAcc = false;
  Ciphertext Acc;
  for (size_t I = 0; I < GS; ++I) {
    bool HaveInner = false;
    Ciphertext Inner;
    for (size_t J = 0; J < BS; ++J) {
      size_t D = I * BS + J;
      if (D >= N)
        break;
      // First term materializes the accumulator; the rest ride the
      // fused backend multiply-accumulate (bit-identical to the old
      // mulPlain + addInPlace pair, without the Term temporary).
      if (!HaveInner) {
        Inner = Eval.mulPlain(Rotated[J], Diags[D]);
        HaveInner = true;
      } else {
        Eval.mulPlainAddInPlace(Inner, Rotated[J], Diags[D]);
      }
    }
    if (!HaveInner)
      continue;
    Ciphertext Shifted =
        Eval.rotate(Inner, static_cast<int64_t>(I * BS));
    if (!HaveAcc) {
      Acc = std::move(Shifted);
      HaveAcc = true;
    } else {
      Eval.addInPlace(Acc, Shifted);
    }
  }
  assert(HaveAcc && "matrix-vector product over zero diagonals");
  Eval.rescaleInPlace(Acc);
  return Acc;
}

Ciphertext Bootstrapper::evalMod(const Ciphertext &U) const {
  // Chebyshev series of the scaled cosine.
  Ciphertext C = Cheb.evaluate(U, SineCoeffs);
  // Double-angle reconstruction: cos(2x) = 2 cos^2 x - 1.
  for (int R = 0; R < doubleAngles(); ++R) {
    Ciphertext Sq = Eval.mul(C, C);
    Eval.rescaleInPlace(Sq);
    Eval.mulIntegerInPlace(Sq, 2);
    Eval.addConstInPlace(Sq, -1.0);
    C = std::move(Sq);
  }
  return C;
}

Ciphertext Bootstrapper::modRaise(const Ciphertext &Ct, size_t NumQ) const {
  const Context &Ctx = Eval.context();
  assert(Ct.numQ() == 1 && "mod-raise expects a level-0 ciphertext");
  size_t N = Ctx.degree();
  uint64_t Q0 = Ctx.qModulus(0);

  Ciphertext Out;
  Out.Scale = Ct.Scale;
  Out.Slots = Ct.Slots;
  for (const RnsPoly &Poly : Ct.Polys) {
    RnsPoly Coeff = Poly;
    Coeff.toCoeff();
    const uint64_t *Src = Coeff.component(0);
    RnsPoly Raised(Ctx, NumQ, /*HasSpecial=*/false, /*NttForm=*/false);
    parallelFor(0, NumQ, [&](size_t C) {
      uint64_t Q = Ctx.qModulus(C);
      const Barrett &Red = Ctx.barrett(C);
      // Magnitudes are below q0; one conditional subtraction reduces them
      // when q0 < 2q, Barrett otherwise.
      bool OneSubtraction = Q0 < 2 * Q;
      auto Reduce = [&](uint64_t V) {
        return OneSubtraction ? (V >= Q ? V - Q : V) : Red.reduce(V);
      };
      uint64_t *Dst = Raised.component(C);
      for (size_t K = 0; K < N; ++K) {
        uint64_t V = Src[K];
        // Centered lift: values above q0/2 represent negatives.
        if (V <= Q0 / 2)
          Dst[K] = Reduce(V);
        else
          Dst[K] = negMod(Reduce(Q0 - V), Q);
      }
    });
    Raised.toNtt();
    Out.Polys.push_back(std::move(Raised));
  }
  return Out;
}

StatusOr<Ciphertext> Bootstrapper::checkedBootstrap(const Ciphertext &Ct,
                                                    size_t TargetNumQ) const {
  const Context &Ctx = Eval.context();
  ACE_RETURN_IF_ERROR(validateCiphertext(Ctx, Ct, "bootstrap"));
  if (Ct.size() != 2)
    return Status::invalidArgument(
        "bootstrap: relinearize before bootstrapping (ciphertext has " +
        std::to_string(Ct.size()) + " components)");
  if (!Ctx.params().SparseSecret)
    return Status::invalidArgument(
        "bootstrap: parameters use a dense secret; bootstrapping "
        "requires the sparse secret that bounds the ModRaise overflow");
  if (!scalesClose(Ct.Scale, Ctx.scale()))
    return Status::scaleMismatch(
        scaleMismatchMessage("bootstrap", Ct.Scale, Ctx.scale()) +
        "; the input must be at the context scale");
  if (TargetNumQ < 1)
    return Status::invalidArgument("bootstrap: target of 0 active primes");
  size_t Raised = TargetNumQ + static_cast<size_t>(depthCost());
  if (Raised > Ctx.chainLength())
    return Status::depthExhausted(
        "bootstrap: target of " + std::to_string(TargetNumQ) +
        " active primes needs a raised chain of " + std::to_string(Raised) +
        " primes but the modulus chain holds " +
        std::to_string(Ctx.chainLength()));
  const EvalKeys &Keys = Eval.keys();
  if (!Keys.HasRelin)
    return Status::keyMissing(
        "bootstrap: relinearization key not generated");
  if (!Keys.HasConjugate)
    return Status::keyMissing("bootstrap: conjugation key not generated");
  // Materialize and pin every rotation/Galois key the refresh will use
  // BEFORE entering the unchecked hot tier. A key generated here (first
  // use, or after an eviction) goes through the governor, so under budget
  // pressure the refusal comes back in-band as ResourceExhausted instead
  // of hitting reportFatalError mid-bootstrap; the pins keep the keys
  // resident for the whole refresh (eviction skips held keys), so every
  // hot-tier lookup below is a guaranteed hit. SubSum and CoeffToSlot
  // run at the raised level, so each key must cover Raised digits.
  std::vector<std::shared_ptr<const SwitchKey>> Pins;
  for (uint64_t Galois : requiredGaloisElements()) {
    Status S = Eval.materializeGaloisKey(Galois, Raised, Pins);
    if (!S.ok())
      return Status::error(S.code(), "bootstrap: SubSum Galois key for "
                                     "element " +
                                         std::to_string(Galois) + ": " +
                                         S.message());
  }
  for (int64_t Step : requiredRotations()) {
    uint64_t Galois = galoisForRotation(Ctx.degree(), Ctx.slots(), Step);
    if (Galois == 1)
      continue;
    Status S = Eval.materializeGaloisKey(Galois, Raised, Pins);
    if (!S.ok())
      return Status::error(S.code(), "bootstrap: BSGS rotation key for "
                                     "step " +
                                         std::to_string(Step) + ": " +
                                         S.message());
  }
  return bootstrap(Ct, TargetNumQ);
}

Ciphertext Bootstrapper::bootstrap(const Ciphertext &Ct,
                                   size_t TargetNumQ) const {
  telemetry::FheOpSpan Span;
  if (telemetry::enabled())
    Span.begin(telemetry::Counter::Bootstrap, Ct.numQ(), Ct.Scale,
               Eval.noiseBudgetBits(Ct));
  assert(Eval.context().params().SparseSecret &&
         "bootstrapping requires the sparse secret (bounds RangeK)");
  assert(scalesCloseOrReport("bootstrap", Ct.Scale, Eval.context().scale()) &&
         "bootstrap input must be at the context scale");
  size_t Raised = TargetNumQ + static_cast<size_t>(depthCost());
  assert(Raised <= Eval.context().chainLength() &&
         "modulus chain too short for this bootstrap target");

  double InputScale = Ct.Scale;

  // 1. Down to q_0 and back up onto the working chain. The plaintext
  //    becomes p + q_0 * I with |I| <= K.
  Ciphertext Work = Ct;
  {
    telemetry::TraceSpan Stage("bootstrap", "ModRaise");
    Eval.modSwitchTo(Work, 1);
    Work = modRaise(Work, Raised);
  }

  // 2. SubSum trace: projects the (general) overflow polynomial onto the
  //    packing subring, multiplying message and overflow by span. The
  //    overflow bound becomes K2 = span * K; EvalMod's extra double-angle
  //    iterations absorb it.
  {
    telemetry::TraceSpan Stage("bootstrap", "SubSum");
    for (uint64_t Galois : requiredGaloisElements()) {
      Ciphertext Rotated = Eval.rotateGalois(Work, Galois);
      Eval.addInPlace(Work, Rotated);
    }
  }

  // 3. CoeffToSlot, then normalize into [-1, 1]: first a pure metadata
  //    scale change (exact; see matrixEntry), then an exact downscale
  //    back to Delta so EvalMod's multiplications stay on the rescale
  //    waterline.
  Ciphertext Z = [&] {
    telemetry::TraceSpan Stage("bootstrap", "CoeffToSlot");
    Ciphertext R = matvec(Work, /*MatrixId=*/0);
    R.Scale = Eval.context().firstModulus() * (rangeBound() + 1);
    Eval.downscaleInPlace(R, Eval.context().scale());
    return R;
  }();

  // 4. Separate real and imaginary coefficient vectors.
  Ciphertext ZConj = Eval.conjugate(Z);
  Ciphertext CtA = Eval.add(Z, ZConj);
  Ciphertext CtB = Eval.negate(Eval.mulByI(Eval.sub(Z, ZConj)));

  // 5. EvalMod on both.
  Ciphertext YA, YB;
  {
    telemetry::TraceSpan Stage("bootstrap", "EvalMod");
    YA = evalMod(CtA);
    YB = evalMod(CtB);
  }

  // 6. Recombine and SlotToCoeff (whose constants restore the original
  //    message normalization).
  Ciphertext YBi = Eval.mulByI(YB);
  Eval.matchForAdd(YA, YBi);
  Ciphertext Combined = Eval.add(YA, YBi);
  Ciphertext Out = [&] {
    telemetry::TraceSpan Stage("bootstrap", "SlotToCoeff");
    return matvec(Combined, /*MatrixId=*/1);
  }();

  // 7. The doubling chain's multiplicative scale drift lands the result
  //    slightly off the input scale; one exact downscale restores it.
  Eval.downscaleInPlace(Out, InputScale);

  assert(Out.numQ() == TargetNumQ &&
         "bootstrap consumed other than depthCost() levels");
  return Out;
}

size_t Bootstrapper::cachedPlaintextBytes() const {
  size_t Sum = 0;
  for (const auto &[Key, Diags] : DiagCache)
    for (const Plaintext &P : Diags)
      Sum += P.byteSize();
  return Sum;
}
