//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "service/InferenceService.h"

#include "fhe/Serializer.h"
#include "support/ByteReader.h"
#include "support/ByteWriter.h"
#include "support/Crc32c.h"
#include "support/EventLog.h"
#include "support/MetricsRegistry.h"
#include "support/ResourceGovernor.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>

using namespace ace;
using namespace ace::service;

namespace {

inline void countSvc(telemetry::Counter C) {
  if (telemetry::enabled())
    telemetry::Telemetry::instance().count(C, 1);
}

/// Largest ErrorCode value a response frame may carry; anything above is
/// a corrupt frame, not a future compatibility case.
constexpr uint8_t kMaxWireErrorCode =
    static_cast<uint8_t>(ErrorCode::DeadlineExceeded);

/// SplitMix64 finisher (the same mix Rng uses to expand seeds). Bijective
/// over u64: for a fixed params seed, distinct session ids can never
/// produce the same key seed.
uint64_t splitmix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

} // namespace

std::string ServiceStats::json() const {
  char Buf[768];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"accepted\":%llu,\"rejected\":%llu,\"completed\":%llu,"
      "\"failed\":%llu,\"deadline_expired\":%llu,\"cancelled\":%llu,"
      "\"queue_depth\":%zu,\"in_flight\":%zu,\"open_sessions\":%zu,"
      "\"budget_shed\":%llu,\"key_cache_bytes\":%zu,"
      "\"p50_latency_seconds\":%.6f,\"p99_latency_seconds\":%.6f}",
      static_cast<unsigned long long>(Accepted),
      static_cast<unsigned long long>(Rejected),
      static_cast<unsigned long long>(Completed),
      static_cast<unsigned long long>(Failed),
      static_cast<unsigned long long>(DeadlineExpired),
      static_cast<unsigned long long>(Cancelled), QueueDepth, InFlight,
      OpenSessions, static_cast<unsigned long long>(BudgetShed),
      KeyCacheBytes, P50LatencySeconds, P99LatencySeconds);
  return Buf;
}

/// One client: private key material over the shared compiled program.
/// RunMutex serializes everything that touches the executor's mutable
/// state (RNG in the encryptor, plaintext cache and timing registries in
/// run()); requests on different sessions never contend on it.
struct InferenceService::Session {
  uint64_t Id = 0;
  std::unique_ptr<codegen::CkksExecutor> Exec;
  uint32_t Fingerprint = 0;
  std::mutex RunMutex;
};

struct InferenceService::Request {
  uint64_t Id = 0;
  uint64_t SessionId = 0;
  uint64_t ClientTag = 0;
  /// Client-chosen (nonzero) or server-assigned trace id.
  uint64_t TraceId = 0;
  uint32_t Fingerprint = 0;
  Deadline Limit;
  CancellationSource Source;
  std::vector<uint8_t> Bytes; // full request frame; payload after header
  std::promise<InferenceResponse> Promise;
  std::chrono::steady_clock::time_point EnqueuedAt;
  /// Stage seconds, filled in as the request moves; negative = the
  /// stage never ran.
  double QueueSeconds = -1.0;
  double ExecSeconds = -1.0;
  /// Per-request telemetry attribution (op deltas, min noise budget,
  /// span breakdown), populated while execute() holds a RequestScope.
  telemetry::RequestContext Ctx;
};

const char *InferenceService::stageName(Stage S) {
  switch (S) {
  case Stage::Queue:
    return "queue";
  case Stage::Exec:
    return "exec";
  case Stage::EndToEnd:
    return "e2e";
  case Stage::Decrypt:
    return "decrypt";
  case Stage::StageCount:
    break;
  }
  return "unknown";
}

Histogram::Snapshot InferenceService::latencySnapshot(Stage S) const {
  return StageHist[static_cast<size_t>(S)].snapshot();
}

InferenceService::InferenceService(const air::IrFunction &F,
                                   const air::CompileState &State,
                                   ServiceConfig Config)
    : F(F), State(State), Config(Config) {
  // Export the service's health through the process metrics registry
  // (docs/observability.md). Callbacks run at export time only and take
  // the same locks stats() does; registrations are released in
  // shutdown() before the dispatcher joins.
  auto &Reg = metrics::MetricsRegistry::instance();
  for (size_t I = 0; I < kStageCount; ++I)
    MetricIds.push_back(Reg.addHistogram(
        "ace_service_stage_seconds",
        "Per-stage request latency (queue wait, execution, end-to-end, "
        "client decrypt).",
        std::string("stage=\"") + stageName(static_cast<Stage>(I)) + "\"",
        &StageHist[I]));
  MetricIds.push_back(Reg.addGauge(
      "ace_service_queue_depth", "Requests waiting for a dispatcher wave.",
      "", [this] {
        std::lock_guard<std::mutex> Lock(QueueMutex);
        return static_cast<double>(Queue.size());
      }));
  MetricIds.push_back(Reg.addGauge(
      "ace_service_in_flight", "Requests currently executing.", "",
      [this] {
        std::lock_guard<std::mutex> Lock(QueueMutex);
        return static_cast<double>(InFlight);
      }));
  MetricIds.push_back(Reg.addGauge(
      "ace_service_open_sessions", "Sessions currently open.", "",
      [this] {
        std::lock_guard<std::mutex> Lock(SessionsMutex);
        return static_cast<double>(Sessions.size());
      }));
  MetricIds.push_back(Reg.addGauge(
      "ace_service_key_cache_bytes",
      "Rotation-key bytes cached across all open sessions.", "", [this] {
        std::lock_guard<std::mutex> Lock(SessionsMutex);
        size_t Bytes = 0;
        for (const auto &[Id, S] : Sessions)
          Bytes += S->Exec->keyCache()->stats().ResidentBytes;
        return static_cast<double>(Bytes);
      }));
  Dispatcher = std::thread([this] { dispatchLoop(); });
}

InferenceService::~InferenceService() { shutdown(); }

StatusOr<uint64_t> InferenceService::openSession() {
  auto S = std::make_shared<Session>();
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    S->Id = NextSessionId++;
  }
  S->Exec = std::make_unique<codegen::CkksExecutor>(F, State);
  // Resident-server key discipline: rotation keys materialize on first
  // use instead of all at setup (docs/memory.md). Relin/conjugation keys
  // stay eager.
  S->Exec->enableLazyRotationKeys();
  // Reseed key generation per session: the compiled parameters carry one
  // deterministic seed, and two sessions sharing it would generate
  // IDENTICAL keys - indistinguishable fingerprints, no client isolation.
  // The SplitMix64 mix is bijective in the session id for a fixed params
  // seed, so no two sessions of one service can alias, and it stays
  // deterministic for a given (params, id) pair.
  uint64_t KeySeed =
      splitmix64(State.SelectedParams.Seed * 0x9E3779B97F4A7C15ull + S->Id);
  if (KeySeed == 0) // setup(0) means "keep the compiled params seed"
    KeySeed = 0x9E3779B97F4A7C15ull;
  ACE_RETURN_IF_ERROR(S->Exec->setup(KeySeed));
  std::vector<uint8_t> PubBytes;
  ACE_RETURN_IF_ERROR(fhe::wire::save(S->Exec->publicKey(), PubBytes));
  S->Fingerprint = crc32c(PubBytes.data(), PubBytes.size());
  std::lock_guard<std::mutex> Lock(SessionsMutex);
  Sessions[S->Id] = S;
  return S->Id;
}

Status InferenceService::closeSession(uint64_t SessionId) {
  std::shared_ptr<Session> S;
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    auto It = Sessions.find(SessionId);
    if (It == Sessions.end())
      return Status::invalidArgument("closeSession: unknown session id " +
                                     std::to_string(SessionId));
    S = std::move(It->second);
    Sessions.erase(It);
  }
  // Release cached keys through the governor NOW rather than waiting for
  // the last shared_ptr to drop: the dispatcher can briefly hold a
  // reference past finish(), and a close that leaves governor charges
  // behind reads as a leak in ace_memory_charged_bytes until teardown.
  // The session is already out of the map, so only an in-flight wave can
  // hold RunMutex; blocking here orders the release after that request.
  std::lock_guard<std::mutex> Run(S->RunMutex);
  S->Exec->keyCache()->releaseAll();
  return Status::success();
}

std::shared_ptr<InferenceService::Session>
InferenceService::findSession(uint64_t SessionId) const {
  std::lock_guard<std::mutex> Lock(SessionsMutex);
  auto It = Sessions.find(SessionId);
  return It == Sessions.end() ? nullptr : It->second;
}

uint32_t InferenceService::sessionKeyFingerprint(uint64_t SessionId) const {
  auto S = findSession(SessionId);
  return S ? S->Fingerprint : 0;
}

StatusOr<std::vector<uint8_t>>
InferenceService::encryptRequest(uint64_t SessionId, const nn::Tensor &Input,
                                 uint64_t ClientTag, double DeadlineSeconds,
                                 uint64_t TraceId) {
  auto S = findSession(SessionId);
  if (!S)
    return Status::keyMissing("encryptRequest: unknown session id " +
                              std::to_string(SessionId));
  std::vector<uint8_t> CtBytes;
  {
    // Lock-order discipline (see dispatchLoop): a session mutex is
    // always acquired BEFORE the pool's fork lock, so while holding it
    // we must not fork - InlineRegion keeps the encode/encrypt kernels
    // on this thread.
    std::lock_guard<std::mutex> Run(S->RunMutex);
    ThreadPool::InlineRegion Inline;
    ACE_ASSIGN_OR_RETURN(fhe::Ciphertext Ct, S->Exec->encryptInput(Input));
    ACE_RETURN_IF_ERROR(fhe::wire::save(Ct, CtBytes));
  }
  // Deadline wire encoding: negative defers to the server default (0 on
  // the wire); 0 is explicitly unbounded; positive budgets are clamped
  // to >= 1 micro so a tiny-but-positive budget still expires instead of
  // truncating to 0 and silently picking up the server default.
  uint64_t Micros = 0;
  if (DeadlineSeconds == 0.0)
    Micros = frame::kUnboundedDeadlineMicros;
  else if (DeadlineSeconds > 0.0)
    Micros = std::max<uint64_t>(
        1, static_cast<uint64_t>(DeadlineSeconds * 1e6 + 0.5));

  std::vector<uint8_t> Out;
  ByteWriter W(Out);
  W.u32(frame::kRequestMagic);
  W.u16(frame::kVersion);
  W.u64(SessionId);
  W.u64(ClientTag);
  W.u64(TraceId);
  W.u64(Micros);
  W.u32(S->Fingerprint);
  W.u32(crc32c(Out.data(), Out.size())); // header CRC seals the routing
  W.bytes(CtBytes.data(), CtBytes.size());
  return Out;
}

StatusOr<InferenceService::Ticket>
InferenceService::submit(std::vector<uint8_t> RequestBytes) {
  // Synchronous header validation: cheap, and it keeps garbage out of
  // the queue so a flood of malformed frames cannot displace real work.
  if (RequestBytes.size() < frame::kRequestHeaderBytes)
    return Status::dataCorrupt(
        "request frame truncated: " + std::to_string(RequestBytes.size()) +
        " bytes, header alone is " +
        std::to_string(frame::kRequestHeaderBytes));
  ByteReader Rd(RequestBytes.data(), RequestBytes.size());
  uint32_t Magic = 0, Fp = 0, Crc = 0;
  uint16_t Version = 0;
  uint64_t SessionId = 0, Tag = 0, TraceId = 0, Micros = 0;
  Rd.u32(Magic);
  Rd.u16(Version);
  Rd.u64(SessionId);
  Rd.u64(Tag);
  Rd.u64(TraceId);
  Rd.u64(Micros);
  Rd.u32(Fp);
  Rd.u32(Crc);
  if (Magic != frame::kRequestMagic)
    return Status::dataCorrupt("request frame: bad magic");
  if (Version != frame::kVersion)
    return Status::dataCorrupt("request frame: version " +
                               std::to_string(Version) +
                               " unsupported (this build reads " +
                               std::to_string(frame::kVersion) + ")");
  if (crc32c(RequestBytes.data(), frame::kHeaderCrcOffset) != Crc)
    return Status::dataCorrupt(
        "request frame: header checksum mismatch (bytes corrupted in "
        "transit)");
  if (Rd.atEnd())
    return Status::dataCorrupt("request frame carries no ciphertext payload");
  auto S = findSession(SessionId);
  if (!S)
    return Status::keyMissing("request names unknown session id " +
                              std::to_string(SessionId));
  if (Fp != S->Fingerprint) {
    char Msg[160];
    std::snprintf(Msg, sizeof(Msg),
                  "request key fingerprint %08x does not match session "
                  "%llu's key %08x; the ciphertext was encrypted under "
                  "different keys",
                  Fp, static_cast<unsigned long long>(SessionId),
                  S->Fingerprint);
    return Status::keyMissing(Msg);
  }

  auto R = std::make_shared<Request>();
  R->SessionId = SessionId;
  R->ClientTag = Tag;
  R->TraceId = TraceId;
  R->Fingerprint = Fp;
  R->Bytes = std::move(RequestBytes);
  // kUnboundedDeadlineMicros leaves Limit at never(): the client
  // explicitly opted out of the server default.
  if (Micros > 0 && Micros != frame::kUnboundedDeadlineMicros)
    R->Limit = Deadline::afterMicros(Micros);
  else if (Micros == 0 && Config.DefaultDeadlineSeconds > 0.0)
    R->Limit = Deadline::afterSeconds(Config.DefaultDeadlineSeconds);
  R->EnqueuedAt = std::chrono::steady_clock::now();

  Ticket T;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (Stopping)
      return Status::invalidArgument("submit: service is shut down");
    if (Queue.size() >= Config.QueueCapacity) {
      {
        std::lock_guard<std::mutex> SLock(StatsMutex);
        ++Counters.Rejected;
      }
      countSvc(telemetry::Counter::SvcRejected);
      return Status::resourceExhausted(
          "request queue full (" + std::to_string(Queue.size()) +
          " queued, capacity " + std::to_string(Config.QueueCapacity) +
          "); retry after backpressure clears");
    }
    R->Id = NextRequestId++;
    // Server-assigned trace id when the client passed 0: the SplitMix64
    // mix keeps ids well-spread even for consecutive request ids (the
    // raw id is the astronomically-unlikely fallback for a zero mix).
    if (R->TraceId == 0) {
      R->TraceId = splitmix64(R->Id);
      if (R->TraceId == 0)
        R->TraceId = R->Id;
    }
    T.Id = R->Id;
    T.Result = R->Promise.get_future();
    Queue.push_back(R);
    Active[R->Id] = R;
  }
  {
    std::lock_guard<std::mutex> SLock(StatsMutex);
    ++Counters.Accepted;
  }
  countSvc(telemetry::Counter::SvcAccepted);
  QueueCv.notify_one();
  return StatusOr<Ticket>(std::move(T));
}

Status InferenceService::cancel(uint64_t RequestId) {
  std::lock_guard<std::mutex> Lock(QueueMutex);
  auto It = Active.find(RequestId);
  if (It == Active.end())
    return Status::invalidArgument("cancel: unknown or already-completed "
                                   "request id " +
                                   std::to_string(RequestId));
  It->second->Source.cancel();
  return Status::success();
}

void InferenceService::dispatchLoop() {
  telemetry::Telemetry::instance().nameThread("ace-svc-dispatcher");
  while (true) {
    std::vector<std::shared_ptr<Request>> Batch;
    bool Draining = false;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCv.wait(Lock, [&] { return Stopping || !Queue.empty(); });
      if (Stopping) {
        Batch.assign(Queue.begin(), Queue.end());
        Queue.clear();
        Draining = true;
      } else {
        size_t MaxBatch =
            Config.MaxBatch ? Config.MaxBatch
                            : ThreadPool::instance().numThreads();
        if (MaxBatch == 0)
          MaxBatch = 1;
        // At most one request per session per wave: the wave holds
        // every batched session's mutex across the fork (below), and a
        // second same-session request would self-deadlock. Skipped
        // requests keep their queue position for the next wave.
        std::set<uint64_t> WaveSessions;
        for (auto It = Queue.begin();
             It != Queue.end() && Batch.size() < MaxBatch;) {
          if (!WaveSessions.insert((*It)->SessionId).second) {
            ++It;
            continue;
          }
          Batch.push_back(*It);
          It = Queue.erase(It);
        }
        InFlight += Batch.size();
      }
    }
    if (Draining) {
      for (const auto &R : Batch)
        finish(R,
               Status::cancelled(
                   "service shut down with the request still queued"),
               {});
      return;
    }
    // Lock-order discipline: session mutexes are ALWAYS acquired
    // before the pool's fork lock, and only this thread ever holds
    // both. The wave pre-locks every batched session here; client
    // threads holding a session mutex (encrypt/decrypt) run inline and
    // never touch the fork lock. Workers below therefore take no locks
    // at all - the inversion cycle (fork lock -> session in a worker
    // vs session -> fork lock in a client) cannot form.
    std::vector<std::shared_ptr<Session>> WaveSessions;
    for (const auto &R : Batch)
      if (auto S = findSession(R->SessionId))
        WaveSessions.push_back(S);
    // Canonical acquisition order (session id) so two waves can never
    // hold-and-wait against each other in opposite orders.
    std::sort(WaveSessions.begin(), WaveSessions.end(),
              [](const auto &A, const auto &B) { return A->Id < B->Id; });
    std::vector<std::unique_lock<std::mutex>> WaveLocks;
    WaveLocks.reserve(WaveSessions.size());
    for (const auto &S : WaveSessions)
      WaveLocks.emplace_back(S->RunMutex);
    // Cross-request parallelism: the batch fans out over the pool's
    // workers; each request's own FHE kernels then run inline on that
    // worker (nested parallelFor serializes), so results stay
    // bit-identical at every thread count. A singleton batch runs on
    // this thread and keeps full within-op parallelism.
    if (Batch.size() == 1)
      execute(Batch[0]);
    else
      ThreadPool::instance().parallelFor(
          0, Batch.size(), [&](size_t I) { execute(Batch[I]); });
    WaveLocks.clear();
    WaveSessions.clear();
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      InFlight -= Batch.size();
    }
  }
}

void InferenceService::execute(const std::shared_ptr<Request> &R) {
  // The queue stage ends the moment a worker picks the request up.
  auto DequeuedAt = std::chrono::steady_clock::now();
  R->QueueSeconds =
      std::chrono::duration<double>(DequeuedAt - R->EnqueuedAt).count();
  StageHist[static_cast<size_t>(Stage::Queue)].recordSeconds(
      R->QueueSeconds);

  CancellationToken Token = R->Source.token(R->Limit);
  // Pre-flight poll covers time spent queued: an expired or cancelled
  // request unwinds before its ciphertext is even parsed.
  Status Gate = Token.check("request");
  if (!Gate.ok()) {
    finish(R, std::move(Gate), {});
    return;
  }
  auto S = findSession(R->SessionId);
  if (!S) {
    finish(R,
           Status::keyMissing("session " + std::to_string(R->SessionId) +
                              " was closed while the request was queued"),
           {});
    return;
  }
  // Memory-budget preflight (graceful degradation): when the process is
  // over budget even after the governor reclaims cold keys and trims the
  // limb pool, shed THIS incoming request in-band with ResourceExhausted
  // rather than letting an allocation fail deep inside an op. The
  // working-set estimate is a small multiple of the ciphertext payload
  // (input + output + temporaries at the same level).
  {
    size_t PayloadBytes = R->Bytes.size() > frame::kRequestHeaderBytes
                              ? R->Bytes.size() - frame::kRequestHeaderBytes
                              : 0;
    Status Admit = ResourceGovernor::instance().admit(
        4 * PayloadBytes,
        "request " + std::to_string(R->Id) + " admission");
    if (!Admit.ok()) {
      {
        std::lock_guard<std::mutex> SLock(StatsMutex);
        ++Counters.BudgetShed;
      }
      finish(R, std::move(Admit), {});
      return;
    }
  }
  std::vector<uint8_t> CtBytes;
  Status Outcome;
  {
    // Request-scoped attribution: every telemetry counter bumped, span
    // closed, and noise budget observed from here to the end of the
    // block lands on this request's context (payload parse included,
    // so wire bytes attribute too). Nested FHE kernels run inline on
    // this thread (the pool's nesting rule), so the thread-local scope
    // covers the whole execution.
    R->Ctx.TraceId = R->TraceId;
    telemetry::RequestScope Scope(R->Ctx);
    auto Ct = fhe::wire::loadCiphertext(
        S->Exec->context(), R->Bytes.data() + frame::kRequestHeaderBytes,
        R->Bytes.size() - frame::kRequestHeaderBytes);
    if (!Ct.ok()) {
      Outcome = Ct.status();
    } else {
      // No lock here: the dispatcher holds this session's RunMutex for
      // the whole wave (one request per session per wave), so the
      // executor is exclusively ours.
      auto Result = S->Exec->run(*Ct, Token);
      if (Result.ok())
        Outcome =
            fhe::wire::save(*Result, CtBytes); // injected faults land here
      else
        Outcome = Result.status();
    }
  }
  R->ExecSeconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - DequeuedAt)
                       .count();
  StageHist[static_cast<size_t>(Stage::Exec)].recordSeconds(R->ExecSeconds);
  if (!Outcome.ok())
    CtBytes.clear();
  finish(R, std::move(Outcome), std::move(CtBytes));
}

void InferenceService::finish(const std::shared_ptr<Request> &R,
                              Status Outcome,
                              std::vector<uint8_t> CtBytes) {
  InferenceResponse Resp;
  Resp.RequestId = R->Id;
  Resp.ClientTag = R->ClientTag;
  Resp.TraceId = R->TraceId;
  Resp.LatencySeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    R->EnqueuedAt)
          .count();
  Resp.QueueSeconds = R->QueueSeconds;
  Resp.ExecSeconds = R->ExecSeconds;
  Resp.OpDelta = R->Ctx.opSnapshot();
  if (R->Ctx.SawHealth) {
    Resp.MinNoiseBudgetBits = R->Ctx.MinNoiseBudgetBits;
    Resp.HasMinNoiseBudget = true;
  }

  ByteWriter W(Resp.Bytes);
  W.u32(frame::kResponseMagic);
  W.u16(frame::kVersion);
  W.u64(R->SessionId);
  W.u64(R->ClientTag);
  W.u64(R->Id);
  W.u64(R->TraceId);
  W.u8(static_cast<uint8_t>(Outcome.code()));
  const std::string &Msg = Outcome.message();
  W.u32(static_cast<uint32_t>(Msg.size()));
  W.bytes(Msg.data(), Msg.size());
  W.u32(R->Fingerprint);
  if (Outcome.ok())
    W.bytes(CtBytes.data(), CtBytes.size());

  if (Outcome.ok())
    StageHist[static_cast<size_t>(Stage::EndToEnd)].recordSeconds(
        Resp.LatencySeconds);

  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Active.erase(R->Id);
  }
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    switch (Outcome.code()) {
    case ErrorCode::Ok:
      ++Counters.Completed;
      break;
    case ErrorCode::DeadlineExceeded:
      ++Counters.DeadlineExpired;
      break;
    case ErrorCode::Cancelled:
      ++Counters.Cancelled;
      break;
    default:
      ++Counters.Failed;
      break;
    }
  }

  if (telemetry::enabled()) {
    // One async span per request in the Chrome trace, back-dated to
    // admission so queue wait and execution render as one bar,
    // correlated across threads by the trace id.
    auto &T = telemetry::Telemetry::instance();
    double EndUs = T.nowUs();
    telemetry::TraceEvent B;
    B.Name = "request";
    B.Category = "service";
    B.Phase = 'b';
    B.Id = R->TraceId;
    B.TsUs = EndUs - Resp.LatencySeconds * 1e6;
    T.addEvent(std::move(B));
    telemetry::TraceEvent E;
    E.Name = "request";
    E.Category = "service";
    E.Phase = 'e';
    E.Id = R->TraceId;
    E.TsUs = EndUs;
    T.addEvent(std::move(E));
  }

  if (obs::EventLog::instance().enabled()) {
    obs::RequestLogEntry LE;
    LE.SessionId = R->SessionId;
    LE.TraceId = R->TraceId;
    LE.RequestId = R->Id;
    LE.ClientTag = R->ClientTag;
    LE.StatusName = errorCodeName(Outcome.code());
    LE.QueueSeconds = R->QueueSeconds;
    LE.ExecSeconds = R->ExecSeconds;
    LE.TotalSeconds = Resp.LatencySeconds;
    LE.OpDelta = Resp.OpDelta;
    LE.MinNoiseBudgetBits = Resp.MinNoiseBudgetBits;
    LE.HasMinNoiseBudget = Resp.HasMinNoiseBudget;
    LE.Spans = R->Ctx.Spans;
    obs::EventLog::instance().record(LE);
  }
  switch (Outcome.code()) {
  case ErrorCode::Ok:
    countSvc(telemetry::Counter::SvcCompleted);
    break;
  case ErrorCode::DeadlineExceeded:
    countSvc(telemetry::Counter::SvcDeadlineExpired);
    break;
  case ErrorCode::Cancelled:
    countSvc(telemetry::Counter::SvcCancelled);
    break;
  default:
    countSvc(telemetry::Counter::SvcFailed);
    break;
  }
  Resp.Outcome = std::move(Outcome);
  R->Promise.set_value(std::move(Resp));
}

StatusOr<std::vector<double>>
InferenceService::decryptResponse(uint64_t SessionId,
                                  const std::vector<uint8_t> &Bytes) {
  auto S = findSession(SessionId);
  if (!S)
    return Status::keyMissing("decryptResponse: unknown session id " +
                              std::to_string(SessionId));
  auto DecryptStart = std::chrono::steady_clock::now();
  ByteReader Rd(Bytes.data(), Bytes.size());
  uint32_t Magic = 0, Fp = 0, MsgLen = 0;
  uint16_t Version = 0;
  uint64_t Sid = 0, Tag = 0, Rid = 0, TraceId = 0;
  uint8_t Code = 0;
  if (!Rd.u32(Magic) || Magic != frame::kResponseMagic)
    return Status::dataCorrupt("response frame: bad magic");
  if (!Rd.u16(Version) || Version != frame::kVersion)
    return Status::dataCorrupt("response frame: unsupported version");
  if (!Rd.u64(Sid) || !Rd.u64(Tag) || !Rd.u64(Rid) || !Rd.u64(TraceId) ||
      !Rd.u8(Code) || !Rd.u32(MsgLen))
    return Status::dataCorrupt("response frame: truncated header");
  (void)TraceId; // parsed for layout; InferenceResponse carries it
  if (Code > kMaxWireErrorCode)
    return Status::dataCorrupt("response frame: unknown status code " +
                               std::to_string(Code));
  if (MsgLen > Rd.remaining())
    return Status::dataCorrupt("response frame: message length overruns "
                               "the frame");
  std::string Msg(MsgLen, '\0');
  if (MsgLen > 0)
    Rd.bytes(&Msg[0], MsgLen);
  if (!Rd.u32(Fp))
    return Status::dataCorrupt("response frame: truncated fingerprint");
  if (Sid != SessionId || Fp != S->Fingerprint)
    return Status::keyMissing(
        "response belongs to session " + std::to_string(Sid) +
        ", not session " + std::to_string(SessionId));
  if (Code != static_cast<uint8_t>(ErrorCode::Ok))
    return Status::error(static_cast<ErrorCode>(Code), std::move(Msg));
  ACE_ASSIGN_OR_RETURN(fhe::Ciphertext Ct,
                       fhe::wire::loadCiphertext(S->Exec->context(),
                                                 Rd.cursor(),
                                                 Rd.remaining()));
  // Same lock-order discipline as encryptRequest: never fork while
  // holding a session mutex.
  StatusOr<std::vector<double>> Logits = [&] {
    std::lock_guard<std::mutex> Run(S->RunMutex);
    ThreadPool::InlineRegion Inline;
    return S->Exec->decryptLogits(Ct);
  }();
  StageHist[static_cast<size_t>(Stage::Decrypt)].recordSeconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    DecryptStart)
          .count());
  return Logits;
}

ServiceStats InferenceService::stats() const {
  ServiceStats Out;
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    Out = Counters;
  }
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Out.QueueDepth = Queue.size();
    Out.InFlight = InFlight;
  }
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    Out.OpenSessions = Sessions.size();
    for (const auto &[Id, S] : Sessions)
      Out.KeyCacheBytes += S->Exec->keyCache()->stats().ResidentBytes;
  }
  // Percentiles come from the end-to-end histogram (completed requests
  // only, matching the counter semantics): within one log-linear bucket
  // - at most ~12.5% relative error - of the exact order statistic,
  // over EVERY completed request, not a sliding sample window.
  Histogram::Snapshot E2e = latencySnapshot(Stage::EndToEnd);
  Out.P50LatencySeconds = E2e.quantileSeconds(0.50);
  Out.P99LatencySeconds = E2e.quantileSeconds(0.99);
  return Out;
}

void InferenceService::shutdown() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Stopping = true;
  }
  QueueCv.notify_all();
  std::lock_guard<std::mutex> Lock(ShutdownMutex);
  if (Dispatcher.joinable())
    Dispatcher.join();
  // Release metric registrations: the gauge callbacks capture `this`
  // and must not outlive the service (an at-exit exposition dump may
  // run long after this object is gone).
  auto &Reg = metrics::MetricsRegistry::instance();
  for (uint64_t Id : MetricIds)
    Reg.remove(Id);
  MetricIds.clear();
}
