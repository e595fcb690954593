//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two workloads (perfbench/README.md explains each choice):
///
///  - mlp-infer: one closed-loop caller drives a CkksExecutor at pool
///    width 1 (encrypt, run, decrypt per request).
///  - mlp-serve: four closed-loop clients, each on its own session,
///    drive one InferenceService at pool width 2; about one request in
///    25 first closes and reopens its client's session.
///
/// Every workload checks each result against an independent reference
/// and counts what it attempted and what failed. Set-up runs several
/// times and reports its median; the timed loop follows the last set-up.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "LayerTrace.h"

#include "codegen/CkksExecutor.h"
#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "service/InferenceService.h"
#include "support/LimbPool.h"
#include "support/MemTrack.h"
#include "support/ResourceGovernor.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#ifdef __GLIBC__
#include <malloc.h>
#endif

using namespace ace;
using namespace perfbench;

namespace {

using telemetry::Counter;
using telemetry::RequestContext;
using telemetry::RequestScope;
using telemetry::Telemetry;
using telemetry::TraceSpan;

constexpr const char *kBench = "bench";
/// Trace id of spans recorded while a workload sets up.
constexpr uint64_t kSetupTraceId = 1;
/// Trace id of the first timed request; later ones count up from it.
constexpr uint64_t kFirstRequestTraceId = 1000;
/// Trace id of the first request of a traced run's traced phase, clear
/// of every id its untraced phase used.
constexpr uint64_t kFirstTracedRequestTraceId = 1000000000;

/// The MLP whose compiled op budget tests/passes/OpBudgetTest pins.
const std::vector<int64_t> kMlpDims = {64, 48, 32, 10};
constexpr uint64_t kMlpWeightSeed = 7;
/// The MLP's task is fixed like a dataset's: its class prototypes and
/// the compiler's calibration set come from this seed, so every run
/// serves the same compiled program. The run's seed draws the request
/// images around the prototypes.
constexpr uint64_t kMlpTaskSeed = 7;
/// Calibration images passed to the compiler (its API asks for the
/// dataset's images; activation bounds are their maximum plus slack).
constexpr int kMlpCalibrationImages = 64;
constexpr int kMlpClasses = 10;
constexpr double kMlpImageNoise = 0.1;
/// Distinct synthetic images per run; requests cycle through them.
constexpr int kImagePool = 512;
/// Set-up repetitions per untraced run (the median is reported).
constexpr int kSetupRepeats = 5;
/// mlp-serve shape: closed-loop clients over pool workers.
constexpr size_t kServeClients = 4;
constexpr size_t kServeWorkers = 2;
/// A client closes and reopens its session before one request in this
/// many.
constexpr uint64_t kChurnPeriod = 25;

double mib(double Bytes) { return Bytes / (1024.0 * 1024.0); }

/// Seconds on the steady clock since an arbitrary epoch.
double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs \p One(I) for I = 0, 1, ... until \p Seconds have passed, or
/// exactly \p Count times when \p Count is nonzero.
template <class Fn> void closedLoop(double Seconds, uint64_t Count, Fn One) {
  double End = nowSeconds() + Seconds;
  for (uint64_t I = 0; Count ? I < Count : nowSeconds() < End; ++I)
    One(I);
}

/// The per-phase budget: half of the run each for the untraced and the
/// traced phase of a traced run.
struct PhaseBudget {
  double Seconds;
  uint64_t Count;
};

PhaseBudget phaseBudget(const RunOptions &Opt) {
  if (!Opt.Trace)
    return {Opt.Seconds, Opt.Requests};
  return {Opt.Seconds / 2, Opt.Requests};
}

/// Latency samples of one timed phase plus its correctness record.
struct PhaseRecord {
  std::vector<double> Latency;
  std::vector<double> PrecisionBits;
  std::vector<uint64_t> TraceIds;
  std::vector<telemetry::CounterSnapshot> Ops;
  std::vector<double> QueueSeconds, ExecSeconds;
  double WallSeconds = 0;
};

/// The stated accuracy bound: an encrypted result must match its
/// cleartext reference to within half the largest reference logit. An
/// approximation pushed outside its domain decrypts to garbage far below
/// it; ordinary precision loss (a few bits here) stays above it.
constexpr double kPrecisionFloorBits = 1.0;
/// What -log2 of a zero relative error reads (an exact result).
constexpr double kExactBits = 64.0;

double precisionBits(double MaxErr, double MaxRef) {
  if (MaxErr <= 0)
    return kExactBits;
  if (MaxRef <= 0)
    return 0.0;
  return std::min(kExactBits, -std::log2(MaxErr / MaxRef));
}

/// Compares decrypted logits with the cleartext reference. A request
/// passes when both succeeded and the logits agree within the stated
/// bound; its precision is -log2(max|enc - clear| / max|clear|). A
/// changed decision (argmax) is only possible between logits closer than
/// twice the error, so within the bound it is reported, not failed.
bool checkLogits(const StatusOr<std::vector<double>> &Enc,
                 const StatusOr<nn::Tensor> &Clear, double &Bits, bool &Flip,
                 std::string &Why) {
  if (!Clear.ok()) {
    Why = "cleartext reference: " + Clear.status().message();
    return false;
  }
  if (!Enc.ok()) {
    Why = "encrypted inference: " + Enc.status().message();
    return false;
  }
  const std::vector<double> &E = *Enc;
  const std::vector<float> &C = Clear->Values;
  if (E.size() != C.size()) {
    Why = "logit count " + std::to_string(E.size()) + " != " +
          std::to_string(C.size());
    return false;
  }
  double MaxErr = 0, MaxClear = 0;
  size_t EncTop = 0;
  for (size_t I = 0; I < E.size(); ++I) {
    MaxErr = std::max(MaxErr, std::fabs(E[I] - C[I]));
    MaxClear = std::max(MaxClear, std::fabs(static_cast<double>(C[I])));
    if (E[I] > E[EncTop])
      EncTop = I;
  }
  Bits = precisionBits(MaxErr, MaxClear);
  Flip = EncTop != nn::argmax(*Clear);
  if (!(Bits >= kPrecisionFloorBits)) {
    Why = "logits off by " + std::to_string(MaxErr) + " (" +
          std::to_string(Bits) + " bits, bound " +
          std::to_string(kPrecisionFloorBits) + ")";
    return false;
  }
  return true;
}

/// FNV-1a over the bytes of \p Images: a fingerprint of a run's inputs.
uint64_t digestImages(const std::vector<nn::Tensor> &Images) {
  uint64_t Hash = 1469598103934665603ull;
  for (const nn::Tensor &T : Images)
    for (float V : T.Values) {
      uint32_t Bits;
      std::memcpy(&Bits, &V, sizeof(Bits));
      for (int B = 0; B < 4; ++B) {
        Hash ^= (Bits >> (8 * B)) & 0xffu;
        Hash *= 1099511628211ull;
      }
    }
  return Hash;
}

CompileFigures figuresOf(const driver::CompileResult &R) {
  CompileFigures F;
  auto It = R.PhaseNodeCounts.find("CKKS");
  F.CkksNodes = It == R.PhaseNodeCounts.end() ? 0.0 : It->second;
  F.Bootstraps = R.State.Budget.Bootstrap;
  F.Rescales = R.State.Budget.Rescale;
  F.Relins = R.State.Budget.Relinearize;
  F.Rotations = R.State.Budget.Rotate;
  F.RotationKeys = R.State.RotationSteps.size();
  return F;
}

StatusOr<std::unique_ptr<driver::CompileResult>>
compileTraced(const onnx::Model &Model,
              const std::vector<nn::Tensor> &Calibration) {
  TraceSpan Span(kBench, "driver.compile");
  driver::AceCompiler Compiler{air::CompileOptions()};
  return Compiler.compile(Model, Calibration);
}

/// The end-to-end metrics shared by every workload.
void addEndToEnd(RunResult &Out, const std::vector<double> &SetupSeconds,
                 const PhaseRecord &Timed) {
  Out.Metrics.push_back({"setup_s", median(SetupSeconds), "s"});
  Out.Metrics.push_back({"latency_p50_s", median(Timed.Latency), "s"});
  Out.Metrics.push_back(
      {"latency_p90_s", quantile(Timed.Latency, 0.9), "s"});
  Out.Metrics.push_back(
      {"throughput_per_s",
       Timed.WallSeconds > 0 ? Timed.Latency.size() / Timed.WallSeconds
                             : 0.0,
       "1/s"});
  Out.Metrics.push_back(
      {"peak_rss_mb", mib(static_cast<double>(peakRssBytes())), "MiB"});
  Out.Metrics.push_back(
      {"precision_bits", median(Timed.PrecisionBits), "bits"});
}

/// Support-layer and op-counter readings bracketing a traced phase.
struct SupportMark {
  uint64_t LimbMisses = 0;
  uint64_t ParallelFors = 0;
  uint64_t KeyHits = 0, KeyMisses = 0;

  static SupportMark now() {
    SupportMark M;
    M.LimbMisses = LimbPool::instance().stats().Misses;
    M.ParallelFors =
        Telemetry::instance().counterValue(Counter::ParallelFor);
    GovernorStats G = ResourceGovernor::instance().stats();
    M.KeyHits = G.KeyCacheHits;
    M.KeyMisses = G.KeyCacheMisses;
    return M;
  }
};

void fillSupport(LayerInputs &In, const SupportMark &Begin,
                 const SupportMark &End) {
  In.LimbPoolMisses = static_cast<double>(End.LimbMisses - Begin.LimbMisses);
  In.ParallelFors = static_cast<double>(End.ParallelFors - Begin.ParallelFors);
  In.KeyCacheHits = static_cast<double>(End.KeyHits - Begin.KeyHits);
  In.KeyCacheLookups = static_cast<double>(End.KeyHits - Begin.KeyHits +
                                           End.KeyMisses - Begin.KeyMisses);
  In.GovernorChargedMiB =
      mib(static_cast<double>(ResourceGovernor::instance().stats()
                                  .totalChargedBytes()));
}

/// Shared tail of a traced run: fold the trace, derive the per-layer
/// metrics, and write the Chrome trace.
Status finishTrace(RunResult &Out, const LayerInputs &In,
                   const std::string &Path) {
  LayerTrace Trace;
  ACE_RETURN_IF_ERROR(Trace.collect());
  Out.Metrics = layerMetrics(Trace, In);
  return Path.empty() ? Status::success()
                      : Telemetry::instance().writeChromeTraceFile(Path);
}

/// How one checked request ended.
struct Verdict {
  bool Ok = false;
  double Bits = 0;
  bool Flip = false;
  std::string Why;
};

Verdict check(const StatusOr<std::vector<double>> &Enc,
              const StatusOr<nn::Tensor> &Clear) {
  Verdict V;
  V.Ok = checkLogits(Enc, Clear, V.Bits, V.Flip, V.Why);
  return V;
}

void recordOutcome(RunResult &Out, std::mutex &Lock, PhaseRecord &Rec,
                   const Verdict &V) {
  std::lock_guard<std::mutex> G(Lock);
  ++Out.Attempted;
  Out.DecisionFlips += V.Flip;
  if (!V.Ok)
    Out.fail(V.Why);
  else
    Rec.PrecisionBits.push_back(V.Bits);
}

//===----------------------------------------------------------------------===//
// mlp-infer / mlp-serve: the compiled contract MLP
//===----------------------------------------------------------------------===//

/// The MLP, the run's images, and its compiled program. Held by
/// pointer: the compiled state points at the model.
struct CompiledMlp {
  onnx::Model Model;
  std::vector<nn::Tensor> Images;
  std::unique_ptr<driver::CompileResult> Compiled;
};

/// Draws \p Count images around the task's class prototypes, the way
/// nn::makeSyntheticDataset samples them, from the run's \p Seed.
std::vector<nn::Tensor> drawImages(const std::vector<nn::Tensor> &Prototypes,
                                   int Count, uint64_t Seed) {
  Rng R(Seed);
  std::vector<nn::Tensor> Images;
  for (int I = 0; I < Count; ++I) {
    nn::Tensor X = Prototypes[R.uniform(Prototypes.size())];
    for (float &V : X.Values)
      V = std::clamp(V + static_cast<float>(R.gaussian() * kMlpImageNoise),
                     -1.0f, 1.0f);
    Images.push_back(std::move(X));
  }
  return Images;
}

/// Builds the MLP, compiles it with the builtin defaults on the task's
/// calibration images, and draws the run's images from \p Seed.
StatusOr<std::unique_ptr<CompiledMlp>> compileMlp(uint64_t Seed,
                                                  uint64_t &Digest) {
  auto M = std::make_unique<CompiledMlp>();
  M->Model = nn::buildMlp(kMlpDims, kMlpWeightSeed);
  nn::Dataset Task =
      nn::makeSyntheticDataset({1, kMlpDims[0]}, kMlpClasses,
                               kMlpCalibrationImages, kMlpImageNoise,
                               kMlpTaskSeed);
  M->Images = drawImages(Task.Prototypes, kImagePool, Seed);
  Digest = digestImages(M->Images);
  auto R = compileTraced(M->Model, Task.Images);
  if (!R.ok())
    return Status::error("compile: " + R.status().message());
  M->Compiled = R.take();
  return M;
}

const nn::Tensor &imageFor(const CompiledMlp &M, uint64_t Index) {
  return M.Images[Index % M.Images.size()];
}

/// mlp-infer's set-up product: the compiled MLP and an executor with
/// eager keys that has served one warm-up request.
struct InferSetup {
  std::unique_ptr<CompiledMlp> Mlp;
  std::unique_ptr<codegen::CkksExecutor> Exec;
};

/// One mlp-infer request, timed from encrypt to decrypted logits.
Verdict inferOne(codegen::CkksExecutor &Exec, const CompiledMlp &M,
                 uint64_t ImageIndex, RequestContext &Ctx, double &Latency) {
  const nn::Tensor &Image = imageFor(M, ImageIndex);
  StatusOr<nn::Tensor> Clear = nn::executeSingle(M.Model.MainGraph, Image);
  StatusOr<std::vector<double>> Logits = Status::error("not run");
  double Start = nowSeconds();
  {
    RequestScope Scope(Ctx);
    StatusOr<fhe::Ciphertext> In = [&] {
      TraceSpan S(kBench, "codegen.encrypt");
      return Exec.encryptInput(Image);
    }();
    if (!In.ok()) {
      Logits = In.status();
    } else {
      StatusOr<fhe::Ciphertext> Res = [&] {
        TraceSpan S(kBench, "codegen.run");
        return Exec.run(*In);
      }();
      if (!Res.ok()) {
        Logits = Res.status();
      } else {
        TraceSpan S(kBench, "codegen.decrypt");
        Logits = Exec.decryptLogits(*Res);
      }
    }
  }
  Latency = nowSeconds() - Start;
  return check(Logits, Clear);
}

StatusOr<InferSetup> setupInfer(uint64_t Seed, uint64_t &Digest) {
  InferSetup S;
  ACE_ASSIGN_OR_RETURN(S.Mlp, compileMlp(Seed, Digest));
  S.Exec = std::make_unique<codegen::CkksExecutor>(S.Mlp->Compiled->Program,
                                                   S.Mlp->Compiled->State);
  {
    TraceSpan Span(kBench, "codegen.setup");
    if (Status St = S.Exec->setup())
      return Status::error("executor setup: " + St.message());
  }
  // Warm-up: fills the plaintext cache and the limb pool.
  RequestContext Ctx;
  double Latency = 0;
  Verdict V = inferOne(*S.Exec, *S.Mlp, kImagePool - 1, Ctx, Latency);
  if (!V.Ok)
    return Status::error("warm-up request: " + V.Why);
  return S;
}

PhaseRecord inferPhase(InferSetup &S, const PhaseBudget &B,
                       uint64_t FirstTraceId, RunResult &Out) {
  PhaseRecord Rec;
  std::mutex Lock;
  double Start = nowSeconds();
  closedLoop(B.Seconds, B.Count, [&](uint64_t I) {
    RequestContext Ctx;
    Ctx.TraceId = FirstTraceId + I;
    double Latency = 0;
    Verdict V = inferOne(*S.Exec, *S.Mlp, I, Ctx, Latency);
    Rec.Latency.push_back(Latency);
    Rec.TraceIds.push_back(Ctx.TraceId);
    Rec.Ops.push_back(Ctx.opSnapshot());
    recordOutcome(Out, Lock, Rec, V);
  });
  Rec.WallSeconds = nowSeconds() - Start;
  return Rec;
}

//===----------------------------------------------------------------------===//
// mlp-serve
//===----------------------------------------------------------------------===//

/// mlp-serve's set-up product: the service with one open, warmed-up
/// session per client.
struct ServeSetup {
  std::unique_ptr<CompiledMlp> Mlp;
  std::unique_ptr<service::InferenceService> Svc;
  std::vector<uint64_t> Sessions;
};

StatusOr<uint64_t> openSession(service::InferenceService &Svc) {
  TraceSpan Span(kBench, "service.open_session");
  return Svc.openSession();
}

/// One request through the service.
struct ServeOutcome {
  Verdict V;
  /// From encryptRequest to decryptResponse, queue wait included.
  double Latency = 0;
  double QueueSeconds = 0, ExecSeconds = 0;
  telemetry::CounterSnapshot ServerOps;
};

ServeOutcome serveOne(service::InferenceService &Svc, uint64_t Session,
                      const CompiledMlp &M, uint64_t ImageIndex,
                      RequestContext &Ctx) {
  ServeOutcome R;
  const nn::Tensor &Image = imageFor(M, ImageIndex);
  StatusOr<nn::Tensor> Clear = nn::executeSingle(M.Model.MainGraph, Image);
  StatusOr<std::vector<double>> Logits = Status::error("not run");
  double Start = nowSeconds();
  {
    RequestScope Scope(Ctx);
    StatusOr<std::vector<uint8_t>> Frame = [&] {
      TraceSpan S(kBench, "service.encrypt_request");
      return Svc.encryptRequest(Session, Image, /*ClientTag=*/ImageIndex,
                                /*DeadlineSeconds=*/-1.0, Ctx.TraceId);
    }();
    if (!Frame.ok()) {
      Logits = Frame.status();
    } else {
      StatusOr<service::InferenceService::Ticket> Ticket = [&] {
        TraceSpan S(kBench, "service.submit");
        return Svc.submit(std::move(*Frame));
      }();
      if (!Ticket.ok()) {
        Logits = Ticket.status();
      } else {
        service::InferenceResponse Resp = Ticket->Result.get();
        R.QueueSeconds = Resp.QueueSeconds;
        R.ExecSeconds = Resp.ExecSeconds;
        R.ServerOps = Resp.OpDelta;
        TraceSpan S(kBench, "service.decrypt_response");
        Logits = Svc.decryptResponse(Session, Resp.Bytes);
      }
    }
  }
  R.Latency = nowSeconds() - Start;
  R.V = check(Logits, Clear);
  return R;
}

StatusOr<ServeSetup> setupServe(uint64_t Seed, uint64_t &Digest) {
  ServeSetup S;
  ACE_ASSIGN_OR_RETURN(S.Mlp, compileMlp(Seed, Digest));
  S.Svc = std::make_unique<service::InferenceService>(
      S.Mlp->Compiled->Program, S.Mlp->Compiled->State);
  for (size_t C = 0; C < kServeClients; ++C) {
    auto Id = openSession(*S.Svc);
    if (!Id.ok())
      return Status::error("openSession: " + Id.status().message());
    S.Sessions.push_back(*Id);
  }
  // Warm-up: one request per session, concurrently, which materializes
  // each session's lazy rotation keys and fills the pools.
  std::vector<ServeOutcome> Warm(kServeClients);
  std::vector<std::thread> Clients;
  for (size_t C = 0; C < kServeClients; ++C)
    Clients.emplace_back([&, C] {
      RequestContext Ctx;
      Warm[C] = serveOne(*S.Svc, S.Sessions[C], *S.Mlp, kImagePool - 1 - C,
                         Ctx);
    });
  for (std::thread &T : Clients)
    T.join();
  for (const ServeOutcome &W : Warm)
    if (!W.V.Ok)
      return Status::error("warm-up request: " + W.V.Why);
  return S;
}

PhaseRecord servePhase(ServeSetup &S, const PhaseBudget &B,
                       uint64_t FirstTraceId, RunResult &Out) {
  PhaseRecord Rec;
  std::mutex Lock;
  // Fixed-count phases split the count over the clients.
  uint64_t PerClient =
      B.Count ? std::max<uint64_t>(1, B.Count / kServeClients) : 0;
  double Start = nowSeconds();
  std::vector<std::thread> Clients;
  for (size_t C = 0; C < kServeClients; ++C)
    Clients.emplace_back([&, C] {
      uint64_t &Session = S.Sessions[C];
      closedLoop(B.Seconds, PerClient, [&](uint64_t I) {
        // Staggered churn: each client reopens its session before one
        // request in kChurnPeriod, at a different phase per client.
        if ((I + 1 + 6 * C) % kChurnPeriod == 0) {
          Status Closed = S.Svc->closeSession(Session);
          StatusOr<uint64_t> Id =
              Closed.ok() ? openSession(*S.Svc) : StatusOr<uint64_t>(Closed);
          if (!Id.ok()) {
            Verdict V;
            V.Why = "reopen session: " + Id.status().message();
            recordOutcome(Out, Lock, Rec, V);
            return;
          }
          Session = *Id;
        }
        uint64_t Image = C + kServeClients * I;
        RequestContext Ctx;
        Ctx.TraceId = FirstTraceId + Image;
        ServeOutcome R = serveOne(*S.Svc, Session, *S.Mlp, Image, Ctx);
        // Client-side (encrypt, decrypt) plus server-side op counts.
        telemetry::CounterSnapshot Ops = R.ServerOps;
        for (size_t K = 0; K < telemetry::kCounterCount; ++K)
          Ops.Values[K] += Ctx.OpDelta[K];
        {
          std::lock_guard<std::mutex> G(Lock);
          Rec.Latency.push_back(R.Latency);
          Rec.TraceIds.push_back(Ctx.TraceId);
          Rec.Ops.push_back(Ops);
          Rec.QueueSeconds.push_back(R.QueueSeconds);
          Rec.ExecSeconds.push_back(R.ExecSeconds);
        }
        recordOutcome(Out, Lock, Rec, R.V);
      });
    });
  for (std::thread &T : Clients)
    T.join();
  Rec.WallSeconds = nowSeconds() - Start;
  return Rec;
}

/// Runs \p Setup \p Repeats times (timing each) and keeps the last
/// product. Each set-up starts, like a fresh process, with an empty limb
/// pool and the heap's free pages returned, so every sample pays for
/// filling both and earlier set-ups leave no fragments resident. Set-up
/// work is traced under kSetupTraceId.
template <class T, class SetupFn>
StatusOr<T> repeatSetup(int Repeats, std::vector<double> &Seconds,
                        uint64_t &Digest, SetupFn Setup) {
  StatusOr<T> Last = Status::error("no set-up ran");
  for (int R = 0; R < Repeats; ++R) {
    Last = Status::error("replaced"); // free the previous product first
    LimbPool::instance().trim();
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    RequestContext Ctx;
    Ctx.TraceId = kSetupTraceId;
    double T0 = nowSeconds();
    {
      RequestScope Scope(Ctx);
      Last = Setup(Digest);
    }
    Seconds.push_back(nowSeconds() - T0);
    if (!Last.ok())
      return Last.status();
  }
  return Last;
}

/// Shared shape of both workloads: set-up (its product \p T holds the
/// compiled MLP as Mlp), then either one untraced timed phase
/// (end-to-end metrics) or an untraced and a traced phase (per-layer
/// metrics). \p Layers adds the workload's own per-layer inputs.
template <class T, class SetupFn, class PhaseFn, class LayersFn>
RunResult runWorkload(const RunOptions &Opt, size_t PoolWidth, SetupFn Setup,
                      PhaseFn Phase, LayersFn Layers) {
  RunResult Out;
  if (Status St = ThreadPool::instance().setNumThreads(PoolWidth)) {
    Out.fail("pool width: " + St.message());
    return Out;
  }
  std::vector<double> SetupSeconds;
  if (Opt.Trace)
    LayerTrace::start();
  StatusOr<T> S = repeatSetup<T>(Opt.Trace ? 1 : kSetupRepeats, SetupSeconds,
                                 Out.InputDigest, Setup);
  if (!S.ok()) {
    Out.fail("set-up: " + S.status().message());
    return Out;
  }
  PhaseBudget B = phaseBudget(Opt);
  if (!Opt.Trace) {
    PhaseRecord Timed = Phase(*S, B, kFirstRequestTraceId, Out);
    addEndToEnd(Out, SetupSeconds, Timed);
    return Out;
  }
  Telemetry::instance().setEnabled(false);
  // Checked and counted like the traced phase; only its p50 is reported.
  RunResult Discard;
  PhaseRecord Untraced = Phase(*S, B, kFirstRequestTraceId, Discard);
  Out.Attempted += Discard.Attempted;
  Out.Failed += Discard.Failed;
  Out.DecisionFlips += Discard.DecisionFlips;
  Out.Failures = Discard.Failures;
  Telemetry::instance().setEnabled(true);
  LayerInputs In;
  SupportMark Begin = SupportMark::now();
  PhaseRecord Traced = Phase(*S, B, kFirstTracedRequestTraceId, Out);
  SupportMark End = SupportMark::now();
  Telemetry::instance().setEnabled(false);
  fillSupport(In, Begin, End);
  In.Compile = figuresOf(*S->Mlp->Compiled);
  In.CompileSamples = {kSetupTraceId};
  In.Requests = Traced.TraceIds;
  In.RequestOps = Traced.Ops;
  In.QueueSeconds = Traced.QueueSeconds;
  In.ExecSeconds = Traced.ExecSeconds;
  In.UntracedP50 = median(Untraced.Latency);
  In.TracedP50 = median(Traced.Latency);
  Layers(*S, In);
  if (Status St = finishTrace(Out, In, Opt.TracePath))
    Out.fail("trace: " + St.message());
  return Out;
}

} // namespace

void RunResult::fail(std::string Why) {
  ++Failed;
  if (Failures.size() < 8)
    Failures.push_back(std::move(Why));
}

double perfbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

RunResult perfbench::runMlpInfer(const RunOptions &Opt) {
  return runWorkload<InferSetup>(
      Opt, /*PoolWidth=*/1,
      [&](uint64_t &Digest) { return setupInfer(Opt.Seed, Digest); },
      inferPhase, [](InferSetup &, LayerInputs &) {});
}

RunResult perfbench::runMlpServe(const RunOptions &Opt) {
  return runWorkload<ServeSetup>(
      Opt, kServeWorkers,
      [&](uint64_t &Digest) { return setupServe(Opt.Seed, Digest); },
      servePhase,
      [](ServeSetup &S, LayerInputs &In) {
        service::ServiceStats St = S.Svc->stats();
        In.KeyCacheMiB = mib(static_cast<double>(St.KeyCacheBytes));
        In.ServiceRejected = static_cast<double>(St.Rejected);
        In.ServiceFailed = static_cast<double>(St.Failed);
      });
}
