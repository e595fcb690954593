//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "fhe/RnsPoly.h"

#include "fhe/ModArith.h"
#include "fhe/PolyBackend.h"
#include "support/ThreadPool.h"

#include <algorithm>

using namespace ace;
using namespace ace::fhe;

RnsPoly::RnsPoly(const Context &Ctx, size_t NumQ, bool HasSpecial,
                 bool NttForm)
    : Ctx(&Ctx), NumQ(NumQ), HasSpecial(HasSpecial), NttForm(NttForm) {
  assert(NumQ >= 1 && NumQ <= Ctx.chainLength() &&
         "active prime count out of range");
  Data.assignZero(numComponents() * Ctx.degree());
}

// Every loop below is parallel over RNS components (limbs): each index
// touches only its own limb's residues, the arithmetic is exact modular
// integer math, and the chunk partition is fixed - results are
// bit-identical at any thread count (see support/ThreadPool.h). Within
// one limb the element loop is a poly-ops backend kernel (scalar or
// vectorized; bit-identical by contract, see docs/kernels.md) - so
// threading partitions ABOVE the backend and the two compose.

void RnsPoly::toNtt() {
  if (NttForm)
    return;
  parallelFor(0, numComponents(), [&](size_t I) {
    Ctx->nttTable(modIndex(I)).forward(component(I));
  });
  NttForm = true;
}

void RnsPoly::toCoeff() {
  if (!NttForm)
    return;
  parallelFor(0, numComponents(), [&](size_t I) {
    Ctx->nttTable(modIndex(I)).inverse(component(I));
  });
  NttForm = false;
}

void RnsPoly::addInPlace(const RnsPoly &Other) {
  checkCompatible(Other);
  size_t N = Ctx->degree();
  const PolyBackend &B = activePolyBackend();
  parallelFor(0, numComponents(), [&](size_t I) {
    B.add(component(I), Other.component(I), N, modulus(I));
  });
}

void RnsPoly::subInPlace(const RnsPoly &Other) {
  checkCompatible(Other);
  size_t N = Ctx->degree();
  const PolyBackend &B = activePolyBackend();
  parallelFor(0, numComponents(), [&](size_t I) {
    B.sub(component(I), Other.component(I), N, modulus(I));
  });
}

void RnsPoly::negateInPlace() {
  size_t N = Ctx->degree();
  const PolyBackend &B = activePolyBackend();
  parallelFor(0, numComponents(), [&](size_t I) {
    B.negate(component(I), N, modulus(I));
  });
}

void RnsPoly::mulInPlace(const RnsPoly &Other) {
  checkCompatible(Other);
  assert(NttForm && "pointwise product requires NTT domain");
  size_t N = Ctx->degree();
  const PolyBackend &B = activePolyBackend();
  parallelFor(0, numComponents(), [&](size_t I) {
    B.mul(component(I), Other.component(I), N, modulus(I));
  });
}

RnsPoly RnsPoly::mul(const RnsPoly &Other) const {
  RnsPoly Result = *this;
  Result.mulInPlace(Other);
  return Result;
}

void RnsPoly::mulAddInPlace(const RnsPoly &A, const RnsPoly &B) {
  A.checkCompatible(B);
  checkCompatible(A);
  assert(NttForm && "fused multiply-add requires NTT domain");
  size_t N = Ctx->degree();
  const PolyBackend &Backend = activePolyBackend();
  parallelFor(0, numComponents(), [&](size_t I) {
    Backend.mulAcc(component(I), A.component(I), B.component(I), N,
                   modulus(I));
  });
}

void RnsPoly::mulScalarPerComponent(
    const std::vector<uint64_t> &ScalarPerComp) {
  assert(ScalarPerComp.size() == numComponents() &&
         "scalar table size mismatch");
  size_t N = Ctx->degree();
  const PolyBackend &B = activePolyBackend();
  parallelFor(0, numComponents(), [&](size_t I) {
    uint64_t P = modulus(I);
    uint64_t S = ScalarPerComp[I] % P;
    B.scalarMul(component(I), S, shoupPrecompute(S, P), N, P);
  });
}

void RnsPoly::mulScalarInt(uint64_t Scalar) {
  std::vector<uint64_t> Table(numComponents());
  for (size_t I = 0, E = numComponents(); I < E; ++I)
    Table[I] = Scalar % modulus(I);
  mulScalarPerComponent(Table);
}

RnsPoly RnsPoly::automorphism(uint64_t Galois) const {
  assert(!NttForm && "automorphism implemented in coefficient domain");
  size_t N = Ctx->degree();
  uint64_t TwoN = 2 * N;
  assert(Galois % 2 == 1 && Galois < TwoN && "invalid Galois element");
  RnsPoly Result(*Ctx, NumQ, HasSpecial, /*NttForm=*/false);
  parallelFor(0, numComponents(), [&](size_t I) {
    uint64_t P = modulus(I);
    const uint64_t *Src = component(I);
    uint64_t *Dst = Result.component(I);
    for (size_t J = 0; J < N; ++J) {
      uint64_t T = (static_cast<uint64_t>(J) * Galois) % TwoN;
      if (T < N)
        Dst[T] = Src[J];
      else
        Dst[T - N] = negMod(Src[J], P);
    }
  });
  return Result;
}

RnsPoly RnsPoly::automorphismNtt(uint64_t Galois) const {
  assert(NttForm && "automorphismNtt requires the NTT domain");
  const std::vector<uint32_t> &Perm = Ctx->galoisNttPermutation(Galois);
  size_t N = Ctx->degree();
  RnsPoly Result(*Ctx, NumQ, HasSpecial, /*NttForm=*/true);
  parallelFor(0, numComponents(), [&](size_t I) {
    const uint64_t *Src = component(I);
    uint64_t *Dst = Result.component(I);
    for (size_t J = 0; J < N; ++J)
      Dst[J] = Src[Perm[J]];
  });
  return Result;
}

RnsPoly RnsPoly::restrictedCopy(size_t NewNumQ, bool KeepSpecial) const {
  assert(NewNumQ >= 1 && NewNumQ <= NumQ && "restriction out of range");
  assert((!KeepSpecial || HasSpecial) && "no special component to keep");
  RnsPoly Result(*Ctx, NewNumQ, KeepSpecial, NttForm);
  size_t N = Ctx->degree();
  std::copy(component(0), component(0) + NewNumQ * N, Result.component(0));
  if (KeepSpecial)
    std::copy(component(NumQ), component(NumQ) + numSpecial() * N,
              Result.component(NewNumQ));
  return Result;
}

void RnsPoly::dropLastQ() {
  assert(NumQ > 1 && "cannot drop the base modulus");
  assert(!HasSpecial && "drop the special prime first");
  --NumQ;
  Data.shrinkTo(numComponents() * Ctx->degree());
}
