//===----------------------------------------------------------------------===//
// Serving-layer walkthrough (docs/serving.md): compile an MLP once, stand
// up an InferenceService over it, and drive the request lifecycle end to
// end - two independent client sessions, a normal request, an
// already-expired deadline, an explicit cancellation, and a ciphertext
// routed to the wrong session - then print the service stats.
//===----------------------------------------------------------------------===//

#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "service/InferenceService.h"
#include "support/Crc32c.h"
#include "support/MetricsRegistry.h"
#include "support/Rng.h"
#include "support/Telemetry.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace ace;

// Prints the per-request diagnostics every completed response carries:
// trace id, stage latencies, and (when telemetry is on) the request's
// own FHE op-count delta.
static void printDiagnostics(const service::InferenceResponse &Resp) {
  std::printf("  trace 0x%016llx: queue %.6fs, exec %.6fs, total %.6fs",
              static_cast<unsigned long long>(Resp.TraceId),
              Resp.QueueSeconds, Resp.ExecSeconds, Resp.LatencySeconds);
  if (Resp.HasMinNoiseBudget)
    std::printf(", min budget %.1f bits", Resp.MinNoiseBudgetBits);
  std::printf("\n  ops:");
  bool Any = false;
  for (size_t I = 0; I < telemetry::kCounterCount; ++I)
    if (Resp.OpDelta.Values[I] > 0) {
      std::printf(" %s=%llu",
                  telemetry::counterName(
                      static_cast<telemetry::Counter>(I)),
                  static_cast<unsigned long long>(Resp.OpDelta.Values[I]));
      Any = true;
    }
  std::printf(Any ? "\n" : " (telemetry disabled)\n");
}

static nn::Tensor randomInput(Rng &R, int64_t Width) {
  nn::Tensor T;
  T.Shape = {1, Width};
  T.Values.resize(static_cast<size_t>(Width));
  for (auto &V : T.Values)
    V = static_cast<float>(R.uniformReal(-1.0, 1.0));
  return T;
}

int main(int argc, char **argv) {
  std::string MetricsDump;
  for (int I = 1; I < argc; ++I)
    if (std::strncmp(argv[I], "--metrics-dump=", 15) == 0)
      MetricsDump = argv[I] + 15;
  if (!MetricsDump.empty())
    telemetry::Telemetry::instance().setEnabled(true);
  // Compile once (fast toy parameters; the service shape is the point).
  // Three ReLUs, so each request runs a bootstrap (encryption carries the
  // first two).
  onnx::Model Model = nn::buildMlp({16, 12, 12, 12, 8}, 5);
  Rng R(19);
  std::vector<nn::Tensor> Calib;
  for (int I = 0; I < 4; ++I)
    Calib.push_back(randomInput(R, 16));

  air::CompileOptions Opt;
  Opt.Seed = 11;
  driver::AceCompiler Compiler(Opt);
  auto Compiled = Compiler.compile(Model, Calib);
  if (!Compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 Compiled.status().message().c_str());
    return 1;
  }

  // Serve many: each session generates its own keys.
  service::ServiceConfig Config;
  Config.QueueCapacity = 8;
  service::InferenceService Svc((*Compiled)->Program, (*Compiled)->State,
                                Config);
  auto Alice = Svc.openSession();
  auto Bob = Svc.openSession();
  if (!Alice.ok() || !Bob.ok()) {
    std::fprintf(stderr, "session setup failed\n");
    return 1;
  }

  // 1. A normal request: encrypt -> submit -> await -> decrypt.
  auto Frame = Svc.encryptRequest(*Alice, randomInput(R, 16));
  auto Ticket = Svc.submit(Frame.take());
  auto Resp = Ticket->Result.get();
  auto Logits = Svc.decryptResponse(*Alice, Resp.Bytes);
  std::printf("normal request: %s, %zu logits, latency %.3fs\n",
              Resp.Outcome.ok() ? "ok" : Resp.Outcome.message().c_str(),
              Logits.ok() ? Logits->size() : 0, Resp.LatencySeconds);
  printDiagnostics(Resp);

  // A client-chosen trace id round-trips through both frames, so a log
  // pipeline can join client- and server-side records on it.
  Frame = Svc.encryptRequest(*Alice, randomInput(R, 16), /*ClientTag=*/7,
                             /*DeadlineSeconds=*/-1.0,
                             /*TraceId=*/0xace0000000000001ull);
  Ticket = Svc.submit(Frame.take());
  Resp = Ticket->Result.get();
  std::printf("traced request: [%s] client-chosen trace id echoed: %s\n",
              errorCodeName(Resp.Outcome.code()),
              Resp.TraceId == 0xace0000000000001ull ? "yes" : "NO");
  printDiagnostics(Resp);

  // 2. A request whose deadline already passed when it was submitted.
  Frame = Svc.encryptRequest(*Bob, randomInput(R, 16), /*ClientTag=*/1,
                             /*DeadlineSeconds=*/1e-6);
  Ticket = Svc.submit(Frame.take());
  Resp = Ticket->Result.get();
  std::printf("expired deadline: [%s] %s\n",
              errorCodeName(Resp.Outcome.code()),
              Resp.Outcome.message().c_str());

  // 3. Explicit cancellation of an admitted request.
  Frame = Svc.encryptRequest(*Bob, randomInput(R, 16), /*ClientTag=*/2);
  Ticket = Svc.submit(Frame.take());
  Svc.cancel(Ticket->Id);
  Resp = Ticket->Result.get();
  std::printf("cancelled: [%s] %s\n", errorCodeName(Resp.Outcome.code()),
              Resp.Outcome.message().c_str());

  // 4. Key isolation: Alice's ciphertext submitted as Bob's request is
  // rejected before it can decrypt to garbage under the wrong keys.
  Frame = Svc.encryptRequest(*Alice, randomInput(R, 16));
  std::vector<uint8_t> Forged = Frame.take();
  // Patch the session id to Bob's and re-seal the header CRC the way a
  // confused proxy would.
  for (int I = 0; I < 8; ++I)
    Forged[6 + I] = static_cast<uint8_t>(*Bob >> (8 * I));
  {
    uint32_t Crc = crc32c(Forged.data(), service::frame::kHeaderCrcOffset);
    for (int I = 0; I < 4; ++I)
      Forged[service::frame::kHeaderCrcOffset + I] =
          static_cast<uint8_t>(Crc >> (8 * I));
  }
  auto Misrouted = Svc.submit(std::move(Forged));
  std::printf("misrouted ciphertext: [%s] %s\n",
              errorCodeName(Misrouted.status().code()),
              Misrouted.status().message().c_str());

  std::printf("stats: %s\n", Svc.stats().json().c_str());
  for (size_t I = 0;
       I < static_cast<size_t>(service::InferenceService::kStageCount); ++I) {
    auto Stage = static_cast<service::InferenceService::Stage>(I);
    auto Snap = Svc.latencySnapshot(Stage);
    if (Snap.Count == 0)
      continue;
    std::printf("stage %s: %s\n",
                service::InferenceService::stageName(Stage),
                Snap.quantilesJson().c_str());
  }
  if (!MetricsDump.empty()) {
    // While the service is still alive, so its gauges and stage
    // histograms are part of the exposition.
    Status S =
        metrics::MetricsRegistry::instance().writePrometheusFile(MetricsDump);
    if (!S.ok()) {
      std::fprintf(stderr, "metrics-dump failed: %s\n",
                   S.message().c_str());
      return 1;
    }
    std::printf("metrics exposition written to %s\n", MetricsDump.c_str());
  }
  return 0;
}
