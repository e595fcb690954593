//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "LayerTrace.h"

#include <initializer_list>

using namespace ace;
using namespace perfbench;
using telemetry::Counter;
using telemetry::Telemetry;

void LayerTrace::start() {
  Telemetry &T = Telemetry::instance();
  T.clear();
  T.setEnabled(true);
}

Status LayerTrace::collect() {
  Telemetry &T = Telemetry::instance();
  if (size_t Dropped = T.droppedEventCount())
    return Status::error("telemetry dropped " + std::to_string(Dropped) +
                         " trace events; per-layer sums would be short");
  for (const telemetry::TraceEvent &E : T.eventsCopy()) {
    if (E.Phase != 'X')
      continue;
    double Seconds = E.DurUs * 1e-6;
    std::string Key = std::string(E.Category) + "/" + E.Name;
    std::string AnyName = std::string(E.Category) + "/*";
    auto &Sums = PerId[E.Id];
    Sums[Key] += Seconds;
    Sums[AnyName] += Seconds;
    Single[Key].push_back(Seconds);
  }
  return Status::success();
}

std::vector<double> LayerTrace::perRequest(const std::vector<uint64_t> &Ids,
                                           const std::string &Key) const {
  std::vector<double> Out;
  Out.reserve(Ids.size());
  for (uint64_t Id : Ids) {
    double Sum = 0.0;
    auto It = PerId.find(Id);
    if (It != PerId.end()) {
      auto KIt = It->second.find(Key);
      if (KIt != It->second.end())
        Sum = KIt->second;
    }
    Out.push_back(Sum);
  }
  return Out;
}

const std::vector<double> &LayerTrace::spans(const std::string &Key) const {
  static const std::vector<double> None;
  auto It = Single.find(Key);
  return It == Single.end() ? None : It->second;
}

namespace {

std::vector<double> minus(std::vector<double> A, const std::vector<double> &B) {
  for (size_t I = 0; I < A.size(); ++I)
    A[I] -= B[I];
  return A;
}

std::vector<double> plus(std::vector<double> A, const std::vector<double> &B) {
  for (size_t I = 0; I < A.size(); ++I)
    A[I] += B[I];
  return A;
}

} // namespace

std::vector<Metric> perfbench::layerMetrics(const LayerTrace &Trace,
                                            const LayerInputs &In) {
  std::vector<Metric> M;
  auto Add = [&](const char *Name, double Value, const char *Unit) {
    M.push_back({Name, Value, Unit});
  };
  const std::vector<uint64_t> &Req = In.Requests;
  auto ReqMedian = [&](const std::string &Key) {
    return median(Trace.perRequest(Req, Key));
  };
  // A module the benchmark calls directly is timed by the benchmark's
  // own span; one it reaches only through another module (codegen
  // behind the service) by the program's span for the same call.
  auto CallKey = [&](const char *Bench, const char *Program) {
    return Trace.has(Bench) ? std::string(Bench) : std::string(Program);
  };

  // driver / passes / air: one value per compile sample.
  auto CompileMedian = [&](const char *Key) {
    return median(Trace.perRequest(In.CompileSamples, Key));
  };
  Add("driver.compile_s", CompileMedian("bench/driver.compile"), "s");
  Add("passes.nn_s", CompileMedian("phase/NN"), "s");
  Add("passes.vector_s", CompileMedian("phase/VECTOR"), "s");
  Add("passes.sihe_s", CompileMedian("phase/SIHE"), "s");
  Add("passes.ckks_s", CompileMedian("phase/CKKS"), "s");
  Add("air.ckks_nodes", In.Compile.CkksNodes, "count");
  Add("passes.bootstraps", In.Compile.Bootstraps, "count");
  Add("passes.rescales", In.Compile.Rescales, "count");
  Add("passes.relins", In.Compile.Relins, "count");
  Add("passes.rotations", In.Compile.Rotations, "count");
  Add("passes.rotation_keys", In.Compile.RotationKeys, "count");

  // codegen: per request, except set-up (per executor set-up).
  Add("codegen.setup_s",
      median(Trace.spans(CallKey("bench/codegen.setup", "executor/setup"))),
      "s");
  std::string RunKey = CallKey("bench/codegen.run", "executor/run");
  std::vector<double> Run = Trace.perRequest(Req, RunKey);
  Add("codegen.encrypt_s",
      ReqMedian(CallKey("bench/codegen.encrypt", "executor/encrypt")), "s");
  Add("codegen.run_s", median(Run), "s");
  Add("codegen.decrypt_s",
      ReqMedian(CallKey("bench/codegen.decrypt", "executor/decrypt")), "s");
  Add("codegen.run_self_s",
      median(minus(Run, Trace.perRequest(Req, "region/*"))), "s");
  Add("codegen.gemm_s", ReqMedian("region/gemm"), "s");
  Add("codegen.relu_s", ReqMedian("region/relu"), "s");

  // fhe: op counts from each request's telemetry context, time from the
  // bootstrap op span and its stage spans.
  auto Count = [&](std::initializer_list<Counter> Cs) {
    std::vector<double> V;
    for (const auto &Ops : In.RequestOps) {
      double Sum = 0;
      for (Counter C : Cs)
        Sum += static_cast<double>(Ops.get(C));
      V.push_back(Sum);
    }
    return median(V);
  };
  Add("fhe.bootstraps", Count({Counter::Bootstrap}), "count");
  Add("fhe.rotations", Count({Counter::Rotate}), "count");
  Add("fhe.keyswitches", Count({Counter::KeySwitch}), "count");
  Add("fhe.modups", Count({Counter::ModUp}), "count");
  Add("fhe.ntts", Count({Counter::NttForward, Counter::NttInverse}), "count");
  Add("fhe.rescales", Count({Counter::Rescale}), "count");
  Add("fhe.relins", Count({Counter::Relinearize}), "count");
  Add("fhe.ct_ct_muls", Count({Counter::CtCtMul}), "count");
  Add("fhe.ct_pt_muls", Count({Counter::CtPtMul}), "count");
  Add("fhe.bootstrap_s", ReqMedian("fhe/bootstrap"), "s");
  Add("fhe.mod_raise_s", ReqMedian("bootstrap/ModRaise"), "s");
  Add("fhe.sub_sum_s", ReqMedian("bootstrap/SubSum"), "s");
  Add("fhe.coeff_to_slot_s", ReqMedian("bootstrap/CoeffToSlot"), "s");
  Add("fhe.eval_mod_s", ReqMedian("bootstrap/EvalMod"), "s");
  Add("fhe.slot_to_coeff_s", ReqMedian("bootstrap/SlotToCoeff"), "s");

  // service: the benchmark's client-side spans plus the stage times the
  // service reports per request.
  Add("service.open_session_s",
      median(Trace.spans("bench/service.open_session")), "s");
  Add("service.submit_s", ReqMedian("bench/service.submit"), "s");
  Add("service.queue_s", median(In.QueueSeconds), "s");
  Add("service.exec_s", median(In.ExecSeconds), "s");
  Add("service.client_s",
      median(plus(Trace.perRequest(Req, "bench/service.encrypt_request"),
                  Trace.perRequest(Req, "bench/service.decrypt_response"))),
      "s");
  Add("service.key_cache_hit_ratio",
      In.KeyCacheLookups > 0 ? In.KeyCacheHits / In.KeyCacheLookups : 0.0,
      "ratio");
  Add("service.key_cache_lookups", In.KeyCacheLookups, "count");
  Add("service.key_cache_mb", In.KeyCacheMiB, "MiB");
  Add("service.rejected", In.ServiceRejected, "count");
  Add("service.failed", In.ServiceFailed, "count");

  // support: per traced request.
  double N = Req.empty() ? 1.0 : static_cast<double>(Req.size());
  Add("support.limb_pool_misses_per_request", In.LimbPoolMisses / N, "count");
  Add("support.parallel_for_per_request", In.ParallelFors / N, "count");
  Add("support.governor_charged_mb", In.GovernorChargedMiB, "MiB");

  Add("trace.overhead_ratio",
      In.UntracedP50 > 0 ? In.TracedP50 / In.UntracedP50 : 0.0, "ratio");
  Add("trace.requests", static_cast<double>(Req.size()), "count");
  return M;
}
