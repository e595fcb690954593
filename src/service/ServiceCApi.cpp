//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "service/ServiceCApi.h"

#include "driver/AceCompiler.h"
#include "fhe/CApiInternal.h"
#include "nn/ModelZoo.h"
#include "service/InferenceService.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

using namespace ace;

namespace {

/// Handle magic tag (same best-effort freed/corrupt-handle detection as
/// fhe/CApi.cpp): cleared on destroy so a use-after-free is reported
/// instead of dereferenced.
constexpr uint32_t kServiceMagic = 0x41435356u; // "ACSV"

} // namespace

struct AceService {
  uint32_t Magic = kServiceMagic;
  std::unique_ptr<driver::CompileResult> Compiled;
  std::unique_ptr<service::InferenceService> Service;
  size_t InputWidth = 0;
  size_t OutputCount = 0;
};

namespace {

bool validHandle(const AceService *Svc, const char *What) {
  if (Svc && Svc->Magic == kServiceMagic)
    return true;
  capi::setLastErrorCode(ACE_ERR_INVALID_ARGUMENT,
                         std::string(What) +
                             ": NULL, freed, or corrupted service handle");
  return false;
}

} // namespace

AceService *ace_service_create_mlp(const int64_t *dims, size_t ndims,
                                   uint64_t seed, size_t queue_capacity,
                                   double default_deadline_seconds) {
  if (!dims || ndims < 2) {
    capi::setLastErrorCode(ACE_ERR_INVALID_ARGUMENT,
                           "ace_service_create_mlp: need at least an input "
                           "and an output layer width");
    return nullptr;
  }
  std::vector<int64_t> Dims(dims, dims + ndims);
  for (int64_t D : Dims)
    if (D <= 0) {
      capi::setLastErrorCode(ACE_ERR_INVALID_ARGUMENT,
                             "ace_service_create_mlp: layer widths must be "
                             "positive");
      return nullptr;
    }
  onnx::Model Model = nn::buildMlp(Dims, seed);

  // Calibration inputs for activation-range analysis.
  Rng R(seed + 1);
  std::vector<nn::Tensor> Calibration;
  for (int I = 0; I < 4; ++I) {
    nn::Tensor T;
    T.Shape = {1, Dims.front()};
    T.Values.resize(static_cast<size_t>(Dims.front()));
    for (auto &V : T.Values)
      V = static_cast<float>(R.uniformReal(-1.0, 1.0));
    Calibration.push_back(std::move(T));
  }

  air::CompileOptions Opt;
  Opt.Seed = seed;
  driver::AceCompiler Compiler(Opt);
  auto Result = Compiler.compile(Model, Calibration);
  if (!Result.ok()) {
    capi::setLastStatus(Result.status());
    return nullptr;
  }

  auto *Svc = new AceService();
  Svc->Compiled = Result.take();
  Svc->InputWidth = static_cast<size_t>(Dims.front());
  Svc->OutputCount = static_cast<size_t>(Dims.back());
  service::ServiceConfig Config;
  if (queue_capacity > 0)
    Config.QueueCapacity = queue_capacity;
  Config.DefaultDeadlineSeconds = default_deadline_seconds;
  Svc->Service = std::make_unique<service::InferenceService>(
      Svc->Compiled->Program, Svc->Compiled->State, Config);
  return Svc;
}

void ace_service_destroy(AceService *svc) {
  if (!svc)
    return;
  svc->Magic = 0;
  delete svc;
}

uint64_t ace_service_open_session(AceService *svc) {
  if (!validHandle(svc, "ace_service_open_session"))
    return 0;
  auto Id = svc->Service->openSession();
  if (!Id.ok()) {
    capi::setLastStatus(Id.status());
    return 0;
  }
  return *Id;
}

int ace_service_close_session(AceService *svc, uint64_t session) {
  if (!validHandle(svc, "ace_service_close_session"))
    return ace_last_error();
  Status S = svc->Service->closeSession(session);
  if (!S.ok()) {
    capi::setLastStatus(S);
    return ace_last_error();
  }
  return ACE_OK;
}

int ace_service_infer(AceService *svc, uint64_t session,
                      const double *input, size_t n, double deadline_seconds,
                      double *out, size_t out_n, size_t *out_count) {
  if (!validHandle(svc, "ace_service_infer"))
    return ace_last_error();
  if (!input || !out) {
    capi::setLastErrorCode(ACE_ERR_INVALID_ARGUMENT,
                           "ace_service_infer: NULL input or output buffer");
    return ace_last_error();
  }
  if (n != svc->InputWidth) {
    capi::setLastErrorCode(ACE_ERR_INVALID_ARGUMENT,
                           "ace_service_infer: input length " +
                               std::to_string(n) + " does not match the "
                               "model's input width " +
                               std::to_string(svc->InputWidth));
    return ace_last_error();
  }
  if (out_n < svc->OutputCount) {
    capi::setLastErrorCode(ACE_ERR_INVALID_ARGUMENT,
                           "ace_service_infer: output buffer holds " +
                               std::to_string(out_n) + " doubles, model "
                               "produces " +
                               std::to_string(svc->OutputCount));
    return ace_last_error();
  }

  nn::Tensor T;
  T.Shape = {1, static_cast<int64_t>(n)};
  T.Values.resize(n);
  for (size_t I = 0; I < n; ++I)
    T.Values[I] = static_cast<float>(input[I]);

  auto Frame = svc->Service->encryptRequest(
      session, T, /*ClientTag=*/0,
      deadline_seconds > 0.0 ? deadline_seconds : -1.0);
  if (!Frame.ok()) {
    capi::setLastStatus(Frame.status());
    return ace_last_error();
  }
  auto Ticket = svc->Service->submit(Frame.take());
  if (!Ticket.ok()) {
    capi::setLastStatus(Ticket.status());
    return ace_last_error();
  }
  service::InferenceResponse Resp = Ticket->Result.get();
  if (!Resp.Outcome.ok()) {
    capi::setLastStatus(Resp.Outcome);
    return ace_last_error();
  }
  auto Logits = svc->Service->decryptResponse(session, Resp.Bytes);
  if (!Logits.ok()) {
    capi::setLastStatus(Logits.status());
    return ace_last_error();
  }
  size_t Count = std::min(out_n, Logits->size());
  for (size_t I = 0; I < Count; ++I)
    out[I] = (*Logits)[I];
  if (out_count)
    *out_count = Logits->size();
  return ACE_OK;
}

char *ace_service_stats_json(AceService *svc) {
  if (!validHandle(svc, "ace_service_stats_json"))
    return nullptr;
  std::string Json = svc->Service->stats().json();
  char *Out = static_cast<char *>(std::malloc(Json.size() + 1));
  if (!Out) {
    capi::setLastErrorCode(ACE_ERR_RESOURCE_EXHAUSTED,
                           "ace_service_stats_json: allocation failed");
    return nullptr;
  }
  std::memcpy(Out, Json.c_str(), Json.size() + 1);
  return Out;
}
