//===----------------------------------------------------------------------===//
// Microbenchmarks of the ACEfhe primitives backing the paper's cost
// discussion (Sec. 2.3: multiplications and rotations are
// O(N log N r^2) and dominate): add, ct-pt mul, ct-ct mul+relin,
// rotation, rescale and a full bootstrap, across ring degrees.
//===----------------------------------------------------------------------===//

#include "fhe/Bootstrapper.h"
#include "fhe/Encryptor.h"
#include "fhe/ModArith.h"
#include "fhe/Ntt.h"
#include "fhe/PolyBackend.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <string>

using namespace ace;
using namespace ace::fhe;

namespace {

struct Fixture {
  std::unique_ptr<Context> Ctx;
  std::unique_ptr<Encoder> Enc;
  std::unique_ptr<KeyGenerator> Gen;
  std::unique_ptr<RotationKeyCache> Cache;
  PublicKey Pub;
  EvalKeys Keys;
  std::unique_ptr<Evaluator> Eval;
  std::unique_ptr<Bootstrapper> Boot;
  std::unique_ptr<Encryptor> Encrypt;
  Ciphertext CtA, CtB;
  Plaintext Pt;

  explicit Fixture(size_t N, bool WithBootstrap = false)
      : Fixture(defaultParams(N, WithBootstrap), WithBootstrap) {}

  static CkksParams defaultParams(size_t N, bool WithBootstrap) {
    CkksParams P;
    P.RingDegree = N;
    P.Slots = N / 2;
    P.LogScale = 45;
    P.LogFirstModulus = 55;
    P.NumRescaleModuli = WithBootstrap ? 22 : 8;
    P.LogSpecialModulus = 60;
    P.SparseSecret = WithBootstrap;
    P.Seed = 5;
    return P;
  }

  explicit Fixture(const CkksParams &P, bool WithBootstrap = false) {
    Ctx = std::make_unique<Context>(P);
    Enc = std::make_unique<Encoder>(*Ctx);
    Gen = std::make_unique<KeyGenerator>(*Ctx);
    Pub = Gen->makePublicKey();
    Cache = std::make_unique<RotationKeyCache>(*Ctx, *Gen);
    Eval = std::make_unique<Evaluator>(*Ctx, *Enc, Keys, *Cache);
    Keys.Relin = Gen->makeRelinKey();
    Keys.HasRelin = true;
    if (WithBootstrap) {
      Boot = std::make_unique<Bootstrapper>(*Eval);
      Keys.Conjugate = Gen->makeConjugationKey();
      Keys.HasConjugate = true;
      makeRotationKeys(Boot->requiredRotations());
      for (uint64_t Galois : Boot->requiredGaloisElements()) {
        Cache->declareGalois(Galois);
        (void)Cache->get(Galois);
      }
    } else {
      makeRotationKeys({1});
    }
    Encrypt = std::make_unique<Encryptor>(*Ctx, Pub);

    Rng R(3);
    std::vector<double> X(Ctx->slots());
    for (auto &V : X)
      V = R.uniformReal(-0.5, 0.5);
    CtA = Encrypt->encryptValues(*Enc, X, Ctx->chainLength());
    CtB = Encrypt->encryptValues(*Enc, X, Ctx->chainLength());
    Pt = Eval->encodeForMul(CtA, X);
  }

  /// Declares each step and generates its key now, so the benchmark
  /// loops measure rotations, not keygen.
  void makeRotationKeys(const std::vector<int64_t> &Steps) {
    for (int64_t Step : Steps)
      (void)Cache->get(Cache->declareRotation(Step));
  }
};

void BM_Add(benchmark::State &State) {
  Fixture F(State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(F.Eval->add(F.CtA, F.CtB));
}
BENCHMARK(BM_Add)->Arg(1024)->Arg(4096)->Unit(benchmark::kMicrosecond);

void BM_MulPlain(benchmark::State &State) {
  Fixture F(State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(F.Eval->mulPlain(F.CtA, F.Pt));
}
BENCHMARK(BM_MulPlain)->Arg(1024)->Arg(4096)->Unit(benchmark::kMicrosecond);

void BM_MulRelin(benchmark::State &State) {
  Fixture F(State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(F.Eval->mul(F.CtA, F.CtB));
}
BENCHMARK(BM_MulRelin)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_Rotate(benchmark::State &State) {
  Fixture F(State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(F.Eval->rotate(F.CtA, 1));
}
BENCHMARK(BM_Rotate)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

// Rotation batches, naive vs hoisted (the tentpole of the hoisting PR):
// the naive loop pays one digit decomposition (ModUp) per rotation, the
// hoisted batch pays ONE for the whole batch and spreads the remaining
// per-rotation inner products over the thread pool. Results are
// bit-identical (tests/fhe/HoistedRotationTest.cpp); this measures the
// speedup. Batch of 8 matches a BSGS baby-step sweep at BS = 8.
const std::vector<int64_t> &batchSteps() {
  static const std::vector<int64_t> Steps = {1, 2, 3, 4, 5, 6, 7, 8};
  return Steps;
}

Fixture &batchFixture(size_t N) {
  // The key set covers every batch step; shared across iterations so the
  // benchmark loop measures rotations, not keygen.
  static std::map<size_t, std::unique_ptr<Fixture>> Cache;
  auto It = Cache.find(N);
  if (It == Cache.end()) {
    auto F = std::make_unique<Fixture>(N);
    F->makeRotationKeys(batchSteps());
    It = Cache.emplace(N, std::move(F)).first;
  }
  return *It->second;
}

void BM_RotateBatchNaive(benchmark::State &State) {
  Fixture &F = batchFixture(State.range(0));
  for (auto _ : State)
    for (int64_t S : batchSteps())
      benchmark::DoNotOptimize(F.Eval->rotate(F.CtA, S));
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(batchSteps().size()));
  State.counters["modups_per_batch"] =
      static_cast<double>(batchSteps().size());
}
BENCHMARK(BM_RotateBatchNaive)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_RotateBatchHoisted(benchmark::State &State) {
  Fixture &F = batchFixture(State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(F.Eval->rotateHoisted(F.CtA, batchSteps()));
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(batchSteps().size()));
  State.counters["modups_per_batch"] = 1.0;
}
BENCHMARK(BM_RotateBatchHoisted)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// One key switch (a rotation: ModUp, inner product, ModDown, plus the
// automorphism of c0) at the contract MLP's geometry - N = 128, the
// 37-prime chain (q_0 of 55 bits, 45-bit rescale primes, 60-bit special
// primes) - at 4, 19 and 37 active primes. The hybrid digit rule
// (Context.h, keySwitchShape) was chosen on these rows: see
// EXPERIMENTS.md.
void BM_KeySwitchByLevel(benchmark::State &State) {
  static std::unique_ptr<Fixture> F = [] {
    CkksParams P;
    P.RingDegree = 128;
    P.Slots = 64;
    P.LogScale = 45;
    P.LogFirstModulus = 55;
    P.NumRescaleModuli = 36;
    P.LogSpecialModulus = 60;
    P.SparseSecret = true;
    P.Seed = 5;
    return std::make_unique<Fixture>(P);
  }();
  Ciphertext Ct = F->CtA;
  F->Eval->modSwitchTo(Ct, static_cast<size_t>(State.range(0)));
  for (auto _ : State)
    benchmark::DoNotOptimize(F->Eval->rotate(Ct, 1));
  State.counters["digits"] = static_cast<double>(
      F->Ctx->keySwitch().digits(Ct.numQ()));
}
BENCHMARK(BM_KeySwitchByLevel)
    ->Arg(4)
    ->Arg(19)
    ->Arg(37)
    ->Unit(benchmark::kMicrosecond);

void BM_Rescale(benchmark::State &State) {
  Fixture F(State.range(0));
  for (auto _ : State) {
    Ciphertext C = F.CtA;
    F.Eval->rescaleInPlace(C);
    benchmark::DoNotOptimize(C);
  }
}
BENCHMARK(BM_Rescale)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_Bootstrap(benchmark::State &State) {
  Fixture F(State.range(0), /*WithBootstrap=*/true);
  Ciphertext Low = F.CtA;
  F.Eval->modSwitchTo(Low, 1);
  for (auto _ : State)
    benchmark::DoNotOptimize(F.Boot->bootstrap(Low, 3));
}
BENCHMARK(BM_Bootstrap)->Arg(1024)->Unit(benchmark::kMillisecond);

// Telemetry overhead guard (docs/observability.md): with telemetry
// disabled the hook sites must reduce to a branch on a cached flag, so
// the disabled and never-instrumented rotate paths should be
// indistinguishable. Compare BM_Rotate (above; telemetry off = the
// default) against this enabled variant: the enabled cost bounds the
// hook overhead from above, and any disabled-path regression shows up
// as BM_Rotate drift against its recorded baseline.
void BM_RotateTelemetryEnabled(benchmark::State &State) {
  Fixture F(State.range(0));
  telemetry::Telemetry::instance().setEnabled(true);
  for (auto _ : State)
    benchmark::DoNotOptimize(F.Eval->rotate(F.CtA, 1));
  telemetry::Telemetry::instance().setEnabled(false);
  telemetry::Telemetry::instance().clear();
}
BENCHMARK(BM_RotateTelemetryEnabled)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// The disabled-path branch in isolation: telemetry::enabled() is all a
// counter-only hook site pays when telemetry is off.
void BM_TelemetryDisabledCheck(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(telemetry::enabled());
}
BENCHMARK(BM_TelemetryDisabledCheck)->Unit(benchmark::kNanosecond);

//===----------------------------------------------------------------------===//
// Per-kernel roofline numbers (docs/performance.md "Kernel roofline"):
// one RNS limb through each backend, no thread pool, no evaluator
// bookkeeping - the raw cost of a butterfly and a modular multiply that
// everything above is built from. Arg 0 = ring degree, arg 1 = backend
// (0 = scalar reference, 1 = simd); the simd rows skip cleanly on hosts
// without vector support. ns_per_butterfly divides by the (N/2)*log2(N)
// butterflies of one transform; ns_per_modmul by the N lane multiplies
// of one pointwise pass.
//===----------------------------------------------------------------------===//

const PolyBackend *kernelBackend(benchmark::State &State) {
  if (State.range(1) == 0)
    return &scalarPolyBackend();
  const PolyBackend *B = simdPolyBackend();
  if (!B)
    State.SkipWithError("simd backend not supported on this host/build");
  return B;
}

void addButterflyRate(benchmark::State &State, size_t N) {
  double Bf = (static_cast<double>(N) / 2) * std::log2(N);
  State.counters["ns_per_butterfly"] = benchmark::Counter(
      State.iterations() * Bf / 1e9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_NttForwardKernel(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  const PolyBackend *B = kernelBackend(State);
  if (!B)
    return;
  uint64_t P = generateNttPrimes(55, 2 * N, 1, {})[0];
  NttTable Table(N, P);
  Rng R(7);
  std::vector<uint64_t> Data;
  R.uniformVector(P, N, Data);
  for (auto _ : State) {
    B->forwardNtt(Table, Data.data());
    benchmark::DoNotOptimize(Data.data());
  }
  addButterflyRate(State, N);
}
BENCHMARK(BM_NttForwardKernel)
    ->ArgsProduct({{1024, 4096, 16384}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_NttInverseKernel(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  const PolyBackend *B = kernelBackend(State);
  if (!B)
    return;
  uint64_t P = generateNttPrimes(55, 2 * N, 1, {})[0];
  NttTable Table(N, P);
  Rng R(7);
  std::vector<uint64_t> Data;
  R.uniformVector(P, N, Data);
  for (auto _ : State) {
    B->inverseNtt(Table, Data.data());
    benchmark::DoNotOptimize(Data.data());
  }
  addButterflyRate(State, N);
}
BENCHMARK(BM_NttInverseKernel)
    ->ArgsProduct({{1024, 4096, 16384}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_PointwiseMulKernel(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  const PolyBackend *B = kernelBackend(State);
  if (!B)
    return;
  uint64_t P = generateNttPrimes(55, 2 * N, 1, {})[0];
  Rng R(7);
  std::vector<uint64_t> A, X;
  R.uniformVector(P, N, A);
  R.uniformVector(P, N, X);
  for (auto _ : State) {
    B->mul(A.data(), X.data(), N, P);
    benchmark::DoNotOptimize(A.data());
  }
  State.counters["ns_per_modmul"] = benchmark::Counter(
      State.iterations() * static_cast<double>(N) / 1e9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_PointwiseMulKernel)
    ->ArgsProduct({{1024, 4096, 16384}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_MulAccKernel(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  const PolyBackend *B = kernelBackend(State);
  if (!B)
    return;
  uint64_t P = generateNttPrimes(55, 2 * N, 1, {})[0];
  Rng R(7);
  std::vector<uint64_t> Acc, X, Y;
  R.uniformVector(P, N, Acc);
  R.uniformVector(P, N, X);
  R.uniformVector(P, N, Y);
  for (auto _ : State) {
    B->mulAcc(Acc.data(), X.data(), Y.data(), N, P);
    benchmark::DoNotOptimize(Acc.data());
  }
  State.counters["ns_per_modmul"] = benchmark::Counter(
      State.iterations() * static_cast<double>(N) / 1e9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_MulAccKernel)
    ->ArgsProduct({{1024, 4096, 16384}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

} // namespace

// Custom main instead of BENCHMARK_MAIN(): stamp the JSON/console output
// with the metadata that makes BENCH_*.json files comparable across
// machines and revisions (git revision, build type, pool thread count).
int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::AddCustomContext("git_rev", ACE_GIT_REV);
  benchmark::AddCustomContext("build_type", ACE_BUILD_TYPE);
  benchmark::AddCustomContext(
      "threads", std::to_string(ThreadPool::instance().numThreads()));
  benchmark::AddCustomContext("poly_backend", activePolyBackendName());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
