//===----------------------------------------------------------------------===//
// Service stress bench: N client sessions x M requests each against one
// compiled model, driven from concurrent client threads so admission
// control, per-session serialization, and cross-request parallelism are
// all exercised. Reports throughput and latency percentiles; tolerates
// per-request failures (expected when run under ACE_FAULT_INJECT - the
// CI soak job does exactly that) and counts them by error code.
//
//   bench_service_stress [--clients=N] [--requests=M] [--queue=K]
//                        [--deadline=SECONDS] [--budget=BYTES]
//                        [--threads=N] [--json=PATH]
//
// --budget installs a hard process memory budget (accepts the same
// "512m"/"8g" suffixes as ACE_MEMORY_BUDGET). Under a tight budget the
// expected outcome mix shifts toward ResourceExhausted: requests are
// shed in-band, never by crashing the process.
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "service/InferenceService.h"
#include "support/ResourceGovernor.h"
#include "support/Rng.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

using namespace ace;

int main(int Argc, char **Argv) {
  size_t Clients = 3, Requests = 4, QueueCap = 32;
  double DeadlineSeconds = 0.0;
  size_t BudgetBytes = 0;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strncmp(Argv[I], "--clients=", 10))
      Clients = std::strtoul(Argv[I] + 10, nullptr, 10);
    else if (!std::strncmp(Argv[I], "--requests=", 11))
      Requests = std::strtoul(Argv[I] + 11, nullptr, 10);
    else if (!std::strncmp(Argv[I], "--queue=", 8))
      QueueCap = std::strtoul(Argv[I] + 8, nullptr, 10);
    else if (!std::strncmp(Argv[I], "--deadline=", 11))
      DeadlineSeconds = std::strtod(Argv[I] + 11, nullptr);
    else if (!std::strncmp(Argv[I], "--budget=", 9)) {
      if (!parseByteSize(Argv[I] + 9, BudgetBytes)) {
        std::fprintf(stderr, "bad --budget value '%s'\n", Argv[I] + 9);
        return 1;
      }
    }
  }
  bench::BenchArgs Args(Argc, Argv, 1, 1); // applies --threads, --json

  // Compile once. Three ReLUs, so every request runs a bootstrap
  // (encryption carries the first two).
  onnx::Model Model = nn::buildMlp({16, 12, 12, 12, 8}, 5);
  Rng R(23);
  std::vector<nn::Tensor> Calib;
  for (int I = 0; I < 4; ++I) {
    nn::Tensor T;
    T.Shape = {1, 16};
    T.Values.resize(16);
    for (auto &V : T.Values)
      V = static_cast<float>(R.uniformReal(-1.0, 1.0));
    Calib.push_back(std::move(T));
  }
  air::CompileOptions Opt = bench::benchOptions(11);
  driver::AceCompiler Compiler(Opt);
  auto Compiled = Compiler.compile(Model, Calib);
  if (!Compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 Compiled.status().message().c_str());
    return 1;
  }

  if (BudgetBytes > 0) // 0 keeps the ACE_MEMORY_BUDGET default
    ResourceGovernor::instance().setBudgetBytes(BudgetBytes);
  service::ServiceConfig Config;
  Config.QueueCapacity = QueueCap;
  Config.DefaultDeadlineSeconds = DeadlineSeconds;
  service::InferenceService Svc((*Compiled)->Program, (*Compiled)->State,
                                Config);

  // Sessions + one request frame per client, prepared up front so the
  // timed region measures serving, not keygen.
  std::vector<uint64_t> SessionIds;
  std::vector<std::vector<uint8_t>> Frames;
  for (size_t C = 0; C < Clients; ++C) {
    auto Id = Svc.openSession();
    if (!Id.ok()) {
      std::fprintf(stderr, "openSession failed: %s\n",
                   Id.status().message().c_str());
      return 1;
    }
    nn::Tensor T;
    T.Shape = {1, 16};
    T.Values.resize(16);
    for (auto &V : T.Values)
      V = static_cast<float>(R.uniformReal(-1.0, 1.0));
    auto Frame = Svc.encryptRequest(*Id, T, /*ClientTag=*/C);
    if (!Frame.ok()) {
      std::fprintf(stderr, "encryptRequest failed: %s\n",
                   Frame.status().message().c_str());
      return 1;
    }
    SessionIds.push_back(*Id);
    Frames.push_back(Frame.take());
  }

  // N client threads, M requests each. Failures (queue overflow under a
  // small --queue, injected faults under ACE_FAULT_INJECT) are counted,
  // not fatal: graceful degradation is the property under test.
  std::mutex OutcomeMutex;
  std::map<std::string, uint64_t> Outcomes;
  std::atomic<uint64_t> OkCount{0};
  WallTimer Wall;
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Clients; ++C) {
    Threads.emplace_back([&, C] {
      for (size_t Q = 0; Q < Requests; ++Q) {
        auto Ticket = Svc.submit(Frames[C]);
        Status Outcome = Ticket.ok() ? Ticket->Result.get().Outcome
                                     : Ticket.status();
        if (Outcome.ok())
          ++OkCount;
        std::lock_guard<std::mutex> Lock(OutcomeMutex);
        ++Outcomes[errorCodeName(Outcome.code())];
      }
    });
  }
  for (auto &T : Threads)
    T.join();
  double Seconds = Wall.seconds();

  service::ServiceStats Stats = Svc.stats();
  uint64_t Total = static_cast<uint64_t>(Clients * Requests);
  std::printf("service stress: %zu clients x %zu requests, %zu queue cap, "
              "%zu pool threads\n",
              Clients, Requests, QueueCap,
              ThreadPool::instance().numThreads());
  std::printf("  wall %.3fs, %.2f req/s, %llu/%llu ok\n", Seconds,
              Seconds > 0 ? static_cast<double>(OkCount) / Seconds : 0.0,
              static_cast<unsigned long long>(OkCount.load()),
              static_cast<unsigned long long>(Total));
  for (const auto &KV : Outcomes)
    std::printf("  outcome %-20s %llu\n", KV.first.c_str(),
                static_cast<unsigned long long>(KV.second));
  std::printf("  stats %s\n", Stats.json().c_str());

  // Per-stage latency quantiles from the service's lock-free histograms
  // (queue wait, execution, end-to-end; p50/p90/p99/p99.9).
  std::string StageJson = "{";
  bool FirstStage = true;
  for (size_t I = 0;
       I < static_cast<size_t>(service::InferenceService::kStageCount);
       ++I) {
    auto Stage = static_cast<service::InferenceService::Stage>(I);
    auto Snap = Svc.latencySnapshot(Stage);
    if (Snap.Count == 0)
      continue;
    std::printf("  stage %-8s %s\n",
                service::InferenceService::stageName(Stage),
                Snap.quantilesJson().c_str());
    if (!FirstStage)
      StageJson += ", ";
    FirstStage = false;
    StageJson += std::string("\"") +
                 service::InferenceService::stageName(Stage) +
                 "\": " + Snap.quantilesJson();
  }
  StageJson += "}";

  if (!Args.JsonPath.empty()) {
    char Results[1536];
    std::snprintf(Results, sizeof(Results),
                  "{\"clients\": %zu, \"requests_per_client\": %zu, "
                  "\"queue_capacity\": %zu, \"wall_seconds\": %.6f, "
                  "\"throughput_rps\": %.3f, \"ok\": %llu, \"total\": %llu, "
                  "\"service\": %s, \"stages\": %s}",
                  Clients, Requests, QueueCap, Seconds,
                  Seconds > 0 ? static_cast<double>(OkCount) / Seconds : 0.0,
                  static_cast<unsigned long long>(OkCount.load()),
                  static_cast<unsigned long long>(Total),
                  Stats.json().c_str(), StageJson.c_str());
    bench::writeBenchJson(Args.JsonPath, "service_stress", Results);
  }
  return 0;
}
