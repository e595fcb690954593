//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-client encrypted-inference service (see docs/serving.md) - the
/// deployment shape the paper's Fig. 2 implies but its benches never
/// build: compile a model ONCE, then serve many independent encrypted
/// requests against it. The robustness contract is the point:
///
///  - Admission control: a bounded request queue. When it is full,
///    submit() sheds load immediately with Status(ResourceExhausted) -
///    backpressure, never unbounded memory growth.
///  - Sessions: each client opens a session with its OWN key material (a
///    private CkksExecutor over the shared compiled program). Request
///    frames carry a fingerprint of the session's public key, so a
///    ciphertext routed to the wrong session fails that request with
///    Status(KeyMissing) instead of silently decrypting garbage.
///  - Deadlines + cancellation: every request carries an optional
///    deadline; cancel() abandons a queued or running request. Both
///    unwind cooperatively between CKKS ops (support/Cancellation.h)
///    with Status(DeadlineExceeded/Cancelled).
///  - Isolation: requests are framed over the hardened wire format
///    (PR 4), so malformed, truncated, or fault-injected bytes fail only
///    their own request; concurrent requests on other sessions are
///    unaffected and their results stay bit-identical to a single-client
///    run.
///
/// Concurrency model: submit() enqueues; a dispatcher thread pops bounded
/// batches and executes them via ace::ThreadPool::parallelFor - requests
/// run in parallel ACROSS pool workers, and the FHE kernels' own nested
/// parallelFor calls serialize inline on those workers (the pool's
/// documented nesting rule), which keeps results bit-identical at every
/// thread count. Requests on the SAME session additionally serialize
/// (an executor's plaintext cache and timing registries are per-session
/// state): each wave takes at most one request per session and the
/// dispatcher holds every batched session's mutex across the fork.
/// Lock-order discipline: a session mutex is always acquired before the
/// pool's fork lock, and a thread holding a session mutex never forks -
/// client-side encrypt/decrypt run inline (ThreadPool::InlineRegion) -
/// so the service cannot deadlock against the pool.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_SERVICE_INFERENCESERVICE_H
#define ACE_SERVICE_INFERENCESERVICE_H

#include "codegen/CkksExecutor.h"
#include "support/Cancellation.h"
#include "support/Histogram.h"
#include "support/Status.h"
#include "support/Telemetry.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ace {
namespace service {

/// Request/response byte-frame layout (little-endian, see
/// docs/serving.md). A request is
///
///   magic "ACRQ" | version u16 | session id u64 | client tag u64 |
///   trace id u64 (0 = let the server assign one) | deadline budget in
///   micros u64 (0 = none carried, server default applies; 2^64-1 =
///   explicitly unbounded) | key fingerprint u32 |
///   header CRC-32C u32 | framed ciphertext ("ACEW"...)
///
/// and a response is
///
///   magic "ACRS" | version u16 | session id u64 | client tag u64 |
///   request id u64 | trace id u64 (echo, or the server-assigned id) |
///   status code u8 | message length u32 | message |
///   key fingerprint u32 | framed ciphertext (present only on success)
///
/// The header CRC covers every request-header byte before it, so a
/// bit-flipped session id or fingerprint is detected as DataCorrupt
/// before any routing decision is made; the ciphertext payload carries
/// its own frame CRC (PR 4).
///
/// Version history: v1 had no trace id; v2 (this build) inserts it
/// after the client tag in both frames. Versions are checked exactly -
/// a v1 frame fails with DataCorrupt, never a silent field shift.
namespace frame {
constexpr uint32_t kRequestMagic = 0x51524341u;  // "ACRQ"
constexpr uint32_t kResponseMagic = 0x53524341u; // "ACRS"
constexpr uint16_t kVersion = 2;
/// Deadline-budget wire value for "the client explicitly requested NO
/// deadline". Distinct from 0 ("frame carries no deadline"), which lets
/// the server apply ServiceConfig::DefaultDeadlineSeconds.
constexpr uint64_t kUnboundedDeadlineMicros = ~0ull;
/// Offset of the key fingerprint in a request frame (tests forge
/// mismatches by patching it and re-sealing the header CRC).
constexpr size_t kFingerprintOffset = 4 + 2 + 8 + 8 + 8 + 8;
/// Offset of the header CRC-32C (covers bytes [0, kFingerprintOffset+4)).
constexpr size_t kHeaderCrcOffset = kFingerprintOffset + 4;
/// Total request-header bytes before the ciphertext payload.
constexpr size_t kRequestHeaderBytes = kHeaderCrcOffset + 4;
} // namespace frame

/// Service tuning knobs.
struct ServiceConfig {
  /// Maximum requests waiting for a worker. Admissions beyond this are
  /// rejected with ResourceExhausted.
  size_t QueueCapacity = 16;
  /// Upper bound on requests executed concurrently per dispatcher wave;
  /// 0 = the pool's thread count.
  size_t MaxBatch = 0;
  /// Deadline applied to requests that carry none (0 = no default). A
  /// client opts out explicitly with encryptRequest(DeadlineSeconds=0).
  double DefaultDeadlineSeconds = 0.0;
};

/// Point-in-time service health, the serving analogue of the bench
/// metadata block. Counter semantics: every submit() either Accepted or
/// Rejected; every accepted request ends in exactly one of Completed,
/// Failed, DeadlineExpired, or Cancelled.
struct ServiceStats {
  uint64_t Accepted = 0;
  uint64_t Rejected = 0;
  uint64_t Completed = 0;
  uint64_t Failed = 0;
  uint64_t DeadlineExpired = 0;
  uint64_t Cancelled = 0;
  size_t QueueDepth = 0;
  size_t InFlight = 0;
  size_t OpenSessions = 0;
  /// Requests shed by the memory-budget preflight (each also counts as
  /// Failed — it resolved with a failure Status).
  uint64_t BudgetShed = 0;
  /// Rotation-key bytes currently cached across all open sessions.
  size_t KeyCacheBytes = 0;
  /// Submit-to-completion latency percentiles over completed requests.
  double P50LatencySeconds = 0.0;
  double P99LatencySeconds = 0.0;

  /// One-line JSON object with every field above.
  std::string json() const;
};

/// What a request resolves to. The service never throws and the future
/// never breaks: every accepted request eventually carries either a
/// response frame (ok Outcome) or the Status that failed it.
struct InferenceResponse {
  uint64_t RequestId = 0;
  /// Echo of the client-chosen tag from the request frame.
  uint64_t ClientTag = 0;
  /// The request's trace id: the client's if nonzero, otherwise the
  /// server-assigned one. Also echoed in the response frame and stamped
  /// on every trace event and event-log line the request produced.
  uint64_t TraceId = 0;
  /// Success, or why the request failed (the same code travels in-band
  /// in Bytes so a remote client decodes it without this struct).
  Status Outcome;
  /// Response frame ("ACRS"...); present for failures too, with an empty
  /// ciphertext payload.
  std::vector<uint8_t> Bytes;
  /// Submit-to-completion wall time.
  double LatencySeconds = 0.0;
  /// Stage breakdown: admission-to-dispatch wait and execution wall
  /// time. Negative when the stage never ran (e.g. shed at shutdown).
  double QueueSeconds = -1.0;
  double ExecSeconds = -1.0;
  /// Per-request FHE op-count delta (ct-ct muls, rotations, bootstraps,
  /// wire bytes, ...), populated when telemetry is enabled; all-zero
  /// otherwise. Exact when the request executed on one thread (the
  /// service's per-request fan-out; see docs/serving.md).
  telemetry::CounterSnapshot OpDelta;
  /// Minimum noise budget any FHE op in this request observed.
  double MinNoiseBudgetBits = 0.0;
  bool HasMinNoiseBudget = false;
};

/// Compile once, serve many: one instance owns the worker machinery for
/// one compiled program. Thread-safe: every public method may be called
/// from any thread.
class InferenceService {
public:
  /// \p F / \p State must outlive the service (they are the compiler's
  /// output; sessions share them read-only).
  InferenceService(const air::IrFunction &F, const air::CompileState &State,
                   ServiceConfig Config = ServiceConfig());
  /// Shuts down (failing queued requests) and joins the dispatcher.
  ~InferenceService();

  InferenceService(const InferenceService &) = delete;
  InferenceService &operator=(const InferenceService &) = delete;

  /// Creates a session with fresh key material (runs key generation -
  /// seconds at realistic parameters) and returns its id.
  StatusOr<uint64_t> openSession();

  /// Forgets a session. A request the dispatcher is already executing
  /// completes normally (the worker holds a reference to the key
  /// material); requests still queued fail with KeyMissing when they
  /// reach a worker, as do later submits.
  Status closeSession(uint64_t SessionId);

  /// Client-side: encrypts \p Input under the session's keys into a
  /// request frame. \p DeadlineSeconds < 0 defers to the server's
  /// DefaultDeadlineSeconds; 0 means explicitly unbounded (overriding
  /// that default); positive values bound queue wait + execution,
  /// clamped to at least one microsecond so a tiny budget expires
  /// instead of silently degrading to the default.
  /// \p TraceId propagates end-to-end: it is carried in the request
  /// frame, stamped on every trace event the request produces, echoed
  /// in the response frame, and surfaced in InferenceResponse. 0 lets
  /// the server assign one.
  StatusOr<std::vector<uint8_t>> encryptRequest(uint64_t SessionId,
                                                const nn::Tensor &Input,
                                                uint64_t ClientTag = 0,
                                                double DeadlineSeconds = -1.0,
                                                uint64_t TraceId = 0);

  /// Client-side: decrypts a response frame produced for \p SessionId.
  /// A failure response reconstructs and returns the server's Status.
  StatusOr<std::vector<double>>
  decryptResponse(uint64_t SessionId, const std::vector<uint8_t> &Bytes);

  /// An admitted request: the id cancels it; the future resolves when it
  /// completes (in any state).
  struct Ticket {
    uint64_t Id = 0;
    std::future<InferenceResponse> Result;
  };

  /// Validates the request header synchronously (magic, version, header
  /// CRC, session existence, key fingerprint) and admits the request.
  /// Synchronous failures: DataCorrupt (malformed header), KeyMissing
  /// (unknown session or fingerprint mismatch), ResourceExhausted (queue
  /// full), InvalidArgument (service shut down). Payload problems -
  /// truncated or corrupted ciphertext bytes - surface asynchronously in
  /// the ticket's response.
  StatusOr<Ticket> submit(std::vector<uint8_t> RequestBytes);

  /// Requests cooperative cancellation of a queued or running request.
  /// InvalidArgument when the id is unknown or already resolved.
  Status cancel(uint64_t RequestId);

  /// Snapshot of counters, queue depth, and latency percentiles.
  ServiceStats stats() const;

  /// The per-stage latency histograms (lock-free, unbounded count; see
  /// support/Histogram.h). Queue = admission to dispatch, Exec =
  /// execution wall time, EndToEnd = submit to completion (completed
  /// requests only, matching ServiceStats percentiles), Decrypt =
  /// client-side decryptResponse calls.
  enum class Stage { Queue = 0, Exec, EndToEnd, Decrypt, StageCount };
  static constexpr size_t kStageCount = static_cast<size_t>(Stage::StageCount);
  /// Stable exposition/JSON name ("queue", "exec", "e2e", "decrypt").
  static const char *stageName(Stage S);
  Histogram::Snapshot latencySnapshot(Stage S) const;

  /// Stops admission, fails every queued request with Cancelled, waits
  /// for running requests to finish, and joins the dispatcher.
  /// Idempotent.
  void shutdown();

  /// The CRC-32C fingerprint of a session's public key (what request
  /// frames must carry). 0 for unknown sessions.
  uint32_t sessionKeyFingerprint(uint64_t SessionId) const;

private:
  struct Session;
  struct Request;

  std::shared_ptr<Session> findSession(uint64_t SessionId) const;
  void dispatchLoop();
  void execute(const std::shared_ptr<Request> &R);
  void finish(const std::shared_ptr<Request> &R, Status Outcome,
              std::vector<uint8_t> ResponseBytes);

  const air::IrFunction &F;
  const air::CompileState &State;
  const ServiceConfig Config;

  mutable std::mutex SessionsMutex;
  std::map<uint64_t, std::shared_ptr<Session>> Sessions;
  uint64_t NextSessionId = 1;

  mutable std::mutex QueueMutex;
  std::condition_variable QueueCv;
  std::deque<std::shared_ptr<Request>> Queue;
  std::map<uint64_t, std::shared_ptr<Request>> Active; // queued or running
  uint64_t NextRequestId = 1;
  size_t InFlight = 0;
  bool Stopping = false;

  mutable std::mutex StatsMutex;
  ServiceStats Counters;                 // queue/latency fields unused here

  /// Per-stage latency histograms (replaces the PR 6 sample ring:
  /// lock-free recording, unbounded request counts, mergeable).
  std::array<Histogram, kStageCount> StageHist;

  /// Metric registrations (ace_service_*) released in shutdown().
  std::vector<uint64_t> MetricIds;

  std::mutex ShutdownMutex; // serializes the dispatcher join
  std::thread Dispatcher;
};

} // namespace service
} // namespace ace

#endif // ACE_SERVICE_INFERENCESERVICE_H
