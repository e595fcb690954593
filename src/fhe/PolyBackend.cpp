//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
//
// The scalar reference backend plus the process-wide backend selection.
// The scalar loops here ARE the contract: they were lifted verbatim from
// the pre-backend Ntt.cpp / RnsPoly.cpp hot loops, and every other
// backend must reproduce their results bit-for-bit
// (tests/fhe/PolyBackendTest.cpp).
//
//===----------------------------------------------------------------------===//

#include "fhe/PolyBackend.h"

#include "fhe/ModArith.h"
#include "fhe/Ntt.h"
#include "support/Env.h"
#include "support/Telemetry.h"

#include <atomic>
#include <mutex>

using namespace ace;
using namespace ace::fhe;

//===----------------------------------------------------------------------===//
// Scalar reference backend
//===----------------------------------------------------------------------===//

namespace {

class ScalarPolyBackend final : public PolyBackend {
public:
  const char *name() const override { return "scalar"; }

  void forwardNtt(const NttTable &Table, uint64_t *Data) const override {
    // Cooley-Tukey decimation-in-time; merges the psi twist into the
    // butterflies so no separate pre-multiplication pass is needed.
    size_t N = Table.degree();
    uint64_t P = Table.modulus();
    const uint64_t *RP = Table.rootPowers().data();
    const uint64_t *RPS = Table.rootPowersShoup().data();
    size_t T = N;
    for (size_t M = 1; M < N; M <<= 1) {
      T >>= 1;
      for (size_t I = 0; I < M; ++I) {
        size_t J1 = 2 * I * T;
        size_t J2 = J1 + T;
        uint64_t W = RP[M + I];
        uint64_t WShoup = RPS[M + I];
        for (size_t J = J1; J < J2; ++J) {
          uint64_t U = Data[J];
          uint64_t V = mulModShoup(Data[J + T], W, WShoup, P);
          Data[J] = addMod(U, V, P);
          Data[J + T] = subMod(U, V, P);
        }
      }
    }
  }

  void inverseNtt(const NttTable &Table, uint64_t *Data) const override {
    // Gentleman-Sande decimation-in-frequency with inverse twiddles.
    size_t N = Table.degree();
    uint64_t P = Table.modulus();
    const uint64_t *IRP = Table.invRootPowers().data();
    const uint64_t *IRPS = Table.invRootPowersShoup().data();
    size_t T = 1;
    for (size_t M = N; M > 1; M >>= 1) {
      size_t J1 = 0;
      size_t H = M >> 1;
      for (size_t I = 0; I < H; ++I) {
        size_t J2 = J1 + T;
        uint64_t W = IRP[H + I];
        uint64_t WShoup = IRPS[H + I];
        for (size_t J = J1; J < J2; ++J) {
          uint64_t U = Data[J];
          uint64_t V = Data[J + T];
          Data[J] = addMod(U, V, P);
          Data[J + T] = mulModShoup(subMod(U, V, P), W, WShoup, P);
        }
        J1 += 2 * T;
      }
      T <<= 1;
    }
    uint64_t InvN = Table.invDegree();
    uint64_t InvNShoup = Table.invDegreeShoup();
    for (size_t J = 0; J < N; ++J)
      Data[J] = mulModShoup(Data[J], InvN, InvNShoup, P);
  }

  void mul(uint64_t *A, const uint64_t *B, size_t N,
           uint64_t P) const override {
    for (size_t J = 0; J < N; ++J)
      A[J] = mulMod(A[J], B[J], P);
  }

  void add(uint64_t *A, const uint64_t *B, size_t N,
           uint64_t P) const override {
    for (size_t J = 0; J < N; ++J)
      A[J] = addMod(A[J], B[J], P);
  }

  void sub(uint64_t *A, const uint64_t *B, size_t N,
           uint64_t P) const override {
    for (size_t J = 0; J < N; ++J)
      A[J] = subMod(A[J], B[J], P);
  }

  void negate(uint64_t *A, size_t N, uint64_t P) const override {
    for (size_t J = 0; J < N; ++J)
      A[J] = negMod(A[J], P);
  }

  void scalarMul(uint64_t *A, uint64_t S, uint64_t SShoup, size_t N,
                 uint64_t P) const override {
    for (size_t J = 0; J < N; ++J)
      A[J] = mulModShoup(A[J], S, SShoup, P);
  }

  void mulAcc(uint64_t *Acc, const uint64_t *X, const uint64_t *Y,
              size_t N, uint64_t P) const override {
    for (size_t J = 0; J < N; ++J)
      Acc[J] = addMod(Acc[J], mulMod(X[J], Y[J], P), P);
  }
};

} // namespace

const PolyBackend &ace::fhe::scalarPolyBackend() {
  static ScalarPolyBackend Backend;
  return Backend;
}

bool ace::fhe::simdPolyBackendSupported() {
  return simdPolyBackend() != nullptr;
}

//===----------------------------------------------------------------------===//
// Selection
//===----------------------------------------------------------------------===//

namespace {

// The active backend, published once resolution has run. Reads on the
// hot path are one relaxed atomic load; writes (env resolution, the
// knob, the C API) serialize on SelectionMutex, which env resolution
// holds while it hands the value to selectPolyBackend.
std::atomic<const PolyBackend *> Active{nullptr};
std::recursive_mutex SelectionMutex;

// Records the choice where perf artifacts can see it: the Chrome-trace
// "otherData" block and the ace_build_info Prometheus gauge
// (docs/observability.md). Metadata is recorded even with telemetry
// disabled - it is one string move per (re)selection, not a hot path.
void publish(const PolyBackend &B) {
  telemetry::Telemetry::instance().setMetadata("poly_backend", B.name());
  Active.store(&B, std::memory_order_release);
}

const PolyBackend &autoBackend() {
  if (const PolyBackend *Simd = simdPolyBackend())
    return *Simd;
  return scalarPolyBackend();
}

// Resolves ACE_POLY_BACKEND once, through the strict selection. A value
// it rejects (including "simd" on a host without vector support) warns
// and keeps the builtin auto choice (support/Env.h).
const PolyBackend &resolveFromEnv() {
  std::lock_guard<std::recursive_mutex> Lock(SelectionMutex);
  if (const PolyBackend *B = Active.load(std::memory_order_acquire))
    return *B;
  if (!env::read(env::Setting::PolyBackend, [](const char *Spec) {
        return selectPolyBackend(Spec).ok();
      }))
    publish(autoBackend());
  return *Active.load(std::memory_order_acquire);
}

} // namespace

const PolyBackend &ace::fhe::activePolyBackend() {
  if (const PolyBackend *B = Active.load(std::memory_order_acquire))
    return *B;
  return resolveFromEnv();
}

const char *ace::fhe::activePolyBackendName() {
  return activePolyBackend().name();
}

Status ace::fhe::selectPolyBackend(const std::string &Spec) {
  std::lock_guard<std::recursive_mutex> Lock(SelectionMutex);
  if (Spec == "scalar") {
    publish(scalarPolyBackend());
    return Status::success();
  }
  if (Spec == "simd") {
    if (const PolyBackend *Simd = simdPolyBackend()) {
      publish(*Simd);
      return Status::success();
    }
    return Status::invalidArgument(
        "poly backend 'simd' is not supported on this host/build");
  }
  if (Spec == "auto") {
    publish(autoBackend());
    return Status::success();
  }
  return Status::invalidArgument("unknown poly backend '" + Spec +
                                 "' (want scalar|simd|auto)");
}
