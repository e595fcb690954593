//===----------------------------------------------------------------------===//
// InferenceService acceptance tests: the robustness contract of
// docs/serving.md under concurrency. Injected per-request faults -
// truncated wire bytes, a forged key fingerprint, a misrouted session id,
// a mid-request serializer fault, an expired deadline, an explicit
// cancel - must each fail ONLY their own request with the documented
// Status code, while every healthy request in the same wave completes
// bit-identical to its single-client run, at 1 and 4 pool threads. Queue
// overflow must shed load with ResourceExhausted instead of growing
// without bound, and shutdown must fail queued requests cleanly.
//===----------------------------------------------------------------------===//

#include "service/InferenceService.h"

#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "service/ServiceCApi.h"
#include "support/Crc32c.h"
#include "support/EventLog.h"
#include "support/FaultInjector.h"
#include "support/LimbPool.h"
#include "support/ResourceGovernor.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <thread>

using namespace ace;
using namespace ace::service;

namespace {

nn::Tensor makeInput(uint64_t Seed) {
  Rng R(Seed);
  nn::Tensor T;
  T.Shape = {1, 16};
  T.Values.resize(16);
  for (auto &V : T.Values)
    V = static_cast<float>(R.uniformReal(-1.0, 1.0));
  return T;
}

/// Compiling the MLP takes seconds, so the suite does it once and every
/// test builds services over the shared program (which is exactly the
/// compile-once-serve-many deployment shape anyway).
class InferenceServiceTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    // Three ReLUs: every request runs one bootstrap (encryption carries
    // the first two ReLUs).
    onnx::Model Model = nn::buildMlp({16, 12, 12, 12, 8}, 5);
    std::vector<nn::Tensor> Calibration;
    for (uint64_t I = 0; I < 4; ++I)
      Calibration.push_back(makeInput(100 + I));
    air::CompileOptions Opt;
    Opt.Seed = 11;
    auto Result = driver::AceCompiler(Opt).compile(Model, Calibration);
    ASSERT_TRUE(Result.ok()) << Result.status().message();
    Compiled = Result.take();
  }

  static void TearDownTestSuite() { Compiled.reset(); }

  void TearDown() override {
    FaultInjector::instance().reset();
    ThreadPool::instance().setNumThreads(0);
  }

  static std::unique_ptr<driver::CompileResult> Compiled;
};

std::unique_ptr<driver::CompileResult> InferenceServiceTest::Compiled;

/// Overwrites the 4 bytes at \p Offset and re-seals the request-header
/// CRC, producing a frame that passes integrity checks but carries a
/// forged field - the shape of a correctly-transported, wrongly-routed
/// request.
void patchHeaderU32(std::vector<uint8_t> &Frame, size_t Offset,
                    uint32_t Value) {
  ASSERT_GE(Frame.size(), frame::kRequestHeaderBytes);
  std::memcpy(Frame.data() + Offset, &Value, sizeof(Value));
  uint32_t Crc = crc32c(Frame.data(), frame::kHeaderCrcOffset);
  std::memcpy(Frame.data() + frame::kHeaderCrcOffset, &Crc, sizeof(Crc));
}

void patchHeaderU64(std::vector<uint8_t> &Frame, size_t Offset,
                    uint64_t Value) {
  ASSERT_GE(Frame.size(), frame::kRequestHeaderBytes);
  std::memcpy(Frame.data() + Offset, &Value, sizeof(Value));
  uint32_t Crc = crc32c(Frame.data(), frame::kHeaderCrcOffset);
  std::memcpy(Frame.data() + frame::kHeaderCrcOffset, &Crc, sizeof(Crc));
}

/// Waits (bounded) for the dispatcher to retire every in-flight batch so
/// queue-depth assertions do not race the final InFlight decrement.
void drain(const InferenceService &Svc) {
  for (int I = 0; I < 200; ++I) {
    ServiceStats S = Svc.stats();
    if (S.QueueDepth == 0 && S.InFlight == 0)
      return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "service never drained: " << Svc.stats().json();
}

/// Malformed or misrouted frames must be rejected synchronously, before
/// they consume queue capacity or a worker.
TEST_F(InferenceServiceTest, MalformedFramesAreRejectedSynchronously) {
  InferenceService Svc(Compiled->Program, Compiled->State);
  auto Sid = Svc.openSession();
  ASSERT_TRUE(Sid.ok()) << Sid.status().message();
  auto Frame = Svc.encryptRequest(*Sid, makeInput(1));
  ASSERT_TRUE(Frame.ok()) << Frame.status().message();

  // Empty and header-truncated requests.
  EXPECT_EQ(Svc.submit({}).status().code(), ErrorCode::DataCorrupt);
  std::vector<uint8_t> Short(Frame->begin(),
                             Frame->begin() + frame::kRequestHeaderBytes / 2);
  EXPECT_EQ(Svc.submit(Short).status().code(), ErrorCode::DataCorrupt);

  // Wrong magic.
  auto BadMagic = *Frame;
  BadMagic[0] ^= 0xFF;
  EXPECT_EQ(Svc.submit(BadMagic).status().code(), ErrorCode::DataCorrupt);

  // A bit-flipped session id fails the header CRC - corruption is
  // detected BEFORE any routing decision.
  auto FlippedSid = *Frame;
  FlippedSid[6] ^= 0x01;
  EXPECT_EQ(Svc.submit(FlippedSid).status().code(), ErrorCode::DataCorrupt);

  // A frame with no ciphertext payload at all.
  std::vector<uint8_t> HeaderOnly(Frame->begin(),
                                  Frame->begin() +
                                      frame::kRequestHeaderBytes);
  EXPECT_EQ(Svc.submit(HeaderOnly).status().code(), ErrorCode::DataCorrupt);

  // A forged fingerprint (valid CRC, wrong key) is a key mismatch.
  auto Forged = *Frame;
  patchHeaderU32(Forged, frame::kFingerprintOffset,
                 Svc.sessionKeyFingerprint(*Sid) ^ 0xDEADBEEFu);
  EXPECT_EQ(Svc.submit(Forged).status().code(), ErrorCode::KeyMissing);

  // A misrouted session id (valid CRC, other session's id) carries the
  // wrong key fingerprint for that session: same key-mismatch failure.
  auto Sid2 = Svc.openSession();
  ASSERT_TRUE(Sid2.ok());
  auto Misrouted = *Frame;
  patchHeaderU64(Misrouted, 6, *Sid2);
  EXPECT_EQ(Svc.submit(Misrouted).status().code(), ErrorCode::KeyMissing);

  // Unknown session after close.
  ASSERT_TRUE(Svc.closeSession(*Sid).ok());
  EXPECT_EQ(Svc.submit(*Frame).status().code(), ErrorCode::KeyMissing);

  // None of the rejects were admitted.
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.Accepted, 0u);
  EXPECT_EQ(S.QueueDepth, 0u);
}

/// Regression for a key-seed collision: the seed derivation used to end
/// in `setup(KeySeed | 1)`, which maps an even seed and the next odd one
/// to the SAME value - consecutive sessions (2 and 3 under the default
/// params seed) generated identical keys and fingerprints, so one
/// client's frames were accepted by and decryptable under another's
/// session. Every session must draw distinct key material.
TEST_F(InferenceServiceTest, ConsecutiveSessionsGetDistinctKeys) {
  InferenceService Svc(Compiled->Program, Compiled->State);
  constexpr size_t kSessions = 8;
  std::set<uint32_t> Fingerprints;
  uint64_t FirstSid = 0, LastSid = 0;
  for (size_t I = 0; I < kSessions; ++I) {
    auto Sid = Svc.openSession();
    ASSERT_TRUE(Sid.ok()) << Sid.status().message();
    if (I == 0)
      FirstSid = *Sid;
    LastSid = *Sid;
    uint32_t Fp = Svc.sessionKeyFingerprint(*Sid);
    EXPECT_NE(Fp, 0u);
    Fingerprints.insert(Fp);
  }
  EXPECT_EQ(Fingerprints.size(), kSessions)
      << "consecutive sessions share key material";

  // Cross-acceptance really is refused: a frame encrypted under the
  // first session, re-routed to the last, is a key mismatch.
  auto Frame = Svc.encryptRequest(FirstSid, makeInput(12));
  ASSERT_TRUE(Frame.ok());
  auto Misrouted = *Frame;
  patchHeaderU64(Misrouted, 6, LastSid);
  EXPECT_EQ(Svc.submit(Misrouted).status().code(), ErrorCode::KeyMissing);
}

/// Deadline wire semantics: DeadlineSeconds=0 is EXPLICITLY unbounded and
/// must override a server default that would otherwise expire the
/// request; a sub-microsecond positive budget must clamp up to one micro
/// and expire, not truncate to "no deadline" and pick up the default.
TEST_F(InferenceServiceTest, ExplicitlyUnboundedDeadlineOverridesDefault) {
  ThreadPool::instance().setNumThreads(1);
  ServiceConfig Cfg;
  Cfg.DefaultDeadlineSeconds = 1e-6; // any request carrying none expires
  InferenceService Svc(Compiled->Program, Compiled->State, Cfg);
  auto Sid = Svc.openSession();
  ASSERT_TRUE(Sid.ok());

  // Carrying no deadline (negative) picks up the server default.
  auto Defaulted = Svc.encryptRequest(*Sid, makeInput(2), /*ClientTag=*/0,
                                      /*DeadlineSeconds=*/-1.0);
  ASSERT_TRUE(Defaulted.ok());
  auto DefT = Svc.submit(*Defaulted);
  ASSERT_TRUE(DefT.ok());
  EXPECT_EQ(DefT->Result.get().Outcome.code(), ErrorCode::DeadlineExceeded);

  // An explicit 0 opts out of the default: the request runs unbounded.
  auto Unbounded = Svc.encryptRequest(*Sid, makeInput(2), /*ClientTag=*/0,
                                      /*DeadlineSeconds=*/0.0);
  ASSERT_TRUE(Unbounded.ok());
  auto UnbT = Svc.submit(*Unbounded);
  ASSERT_TRUE(UnbT.ok());
  InferenceResponse R = UnbT->Result.get();
  EXPECT_TRUE(R.Outcome.ok()) << R.Outcome.message();

  // A tiny positive budget still expires: it encodes as 1 micro, never 0.
  auto Tiny = Svc.encryptRequest(*Sid, makeInput(2), /*ClientTag=*/0,
                                 /*DeadlineSeconds=*/1e-9);
  ASSERT_TRUE(Tiny.ok());
  auto TinyT = Svc.submit(*Tiny);
  ASSERT_TRUE(TinyT.ok());
  EXPECT_EQ(TinyT->Result.get().Outcome.code(), ErrorCode::DeadlineExceeded);
}

/// The acceptance stress scenario: two sessions, a wave of healthy
/// requests plus one of every injected fault, at 1 and 4 threads. Faults
/// fail alone; healthy logits stay bit-identical to the solo run.
TEST_F(InferenceServiceTest, FaultsAreIsolatedAndHealthyRequestsBitIdentical) {
  ServiceConfig Cfg;
  Cfg.QueueCapacity = 32;
  InferenceService Svc(Compiled->Program, Compiled->State, Cfg);

  auto A = Svc.openSession();
  auto B = Svc.openSession();
  ASSERT_TRUE(A.ok() && B.ok());

  // Encrypt ONCE per session; identical request bytes make "bit-identical
  // responses" a meaningful cross-thread-count claim.
  auto FrameA = Svc.encryptRequest(*A, makeInput(7), /*ClientTag=*/0xA);
  auto FrameB = Svc.encryptRequest(*B, makeInput(8), /*ClientTag=*/0xB);
  ASSERT_TRUE(FrameA.ok() && FrameB.ok());

  // Single-client reference run per session, serial pool.
  ThreadPool::instance().setNumThreads(1);
  std::vector<double> RefA, RefB;
  for (auto *P : {&RefA, &RefB}) {
    const auto &Frame = P == &RefA ? *FrameA : *FrameB;
    uint64_t Sid = P == &RefA ? *A : *B;
    auto T = Svc.submit(Frame);
    ASSERT_TRUE(T.ok()) << T.status().message();
    InferenceResponse Resp = T->Result.get();
    ASSERT_TRUE(Resp.Outcome.ok()) << Resp.Outcome.message();
    auto Logits = Svc.decryptResponse(Sid, Resp.Bytes);
    ASSERT_TRUE(Logits.ok()) << Logits.status().message();
    *P = Logits.take();
  }

  // A poisoned frame: the serializer fault fires INSIDE this
  // encryptRequest's ciphertext save, so the payload's wire CRC is bad
  // and the worker's load must fail - after admission, mid-request.
  FaultInjector::instance().arm(FaultKind::ChecksumCorrupt, 1);
  auto Poisoned = Svc.encryptRequest(*A, makeInput(7));
  FaultInjector::instance().reset();
  ASSERT_TRUE(Poisoned.ok());

  for (size_t Threads : {1u, 4u}) {
    ThreadPool::instance().setNumThreads(Threads);
    ServiceStats Before = Svc.stats();

    // Healthy wave: two per session.
    std::vector<InferenceService::Ticket> Healthy;
    for (auto *F : {&*FrameA, &*FrameB, &*FrameA, &*FrameB}) {
      auto T = Svc.submit(*F);
      ASSERT_TRUE(T.ok()) << T.status().message();
      Healthy.push_back(std::move(*T));
    }

    // Fault 1: truncated ciphertext bytes -> DataCorrupt, asynchronously.
    std::vector<uint8_t> Truncated(
        FrameA->begin(),
        FrameA->begin() +
            static_cast<long>(frame::kRequestHeaderBytes +
                              (FrameA->size() - frame::kRequestHeaderBytes) /
                                  2));
    auto TruncT = Svc.submit(Truncated);
    ASSERT_TRUE(TruncT.ok()) << TruncT.status().message();

    // Fault 2: mid-request serializer fault -> DataCorrupt.
    auto PoisonT = Svc.submit(*Poisoned);
    ASSERT_TRUE(PoisonT.ok()) << PoisonT.status().message();

    // Fault 3: an already-expired deadline -> DeadlineExceeded.
    auto Expired = Svc.encryptRequest(*B, makeInput(8), /*ClientTag=*/0xD,
                                      /*DeadlineSeconds=*/1e-6);
    ASSERT_TRUE(Expired.ok());
    auto ExpiredT = Svc.submit(*Expired);
    ASSERT_TRUE(ExpiredT.ok()) << ExpiredT.status().message();

    // Fault 4: explicit cancellation -> Cancelled.
    auto CancelT = Svc.submit(*FrameB);
    ASSERT_TRUE(CancelT.ok()) << CancelT.status().message();
    ASSERT_TRUE(Svc.cancel(CancelT->Id).ok());

    // Every fault resolves with its own Status...
    InferenceResponse TruncR = TruncT->Result.get();
    EXPECT_EQ(TruncR.Outcome.code(), ErrorCode::DataCorrupt)
        << TruncR.Outcome.message();
    InferenceResponse PoisonR = PoisonT->Result.get();
    EXPECT_EQ(PoisonR.Outcome.code(), ErrorCode::DataCorrupt)
        << PoisonR.Outcome.message();
    InferenceResponse ExpiredR = ExpiredT->Result.get();
    EXPECT_EQ(ExpiredR.Outcome.code(), ErrorCode::DeadlineExceeded)
        << ExpiredR.Outcome.message();
    InferenceResponse CancelR = CancelT->Result.get();
    EXPECT_EQ(CancelR.Outcome.code(), ErrorCode::Cancelled)
        << CancelR.Outcome.message();

    // ...and a failure response round-trips its Status through the wire
    // frame to the client.
    auto Reconstructed = Svc.decryptResponse(*B, ExpiredR.Bytes);
    ASSERT_FALSE(Reconstructed.ok());
    EXPECT_EQ(Reconstructed.status().code(), ErrorCode::DeadlineExceeded);

    // Healthy requests are untouched: every logit vector is bit-identical
    // to the session's single-client serial run.
    for (size_t I = 0; I < Healthy.size(); ++I) {
      InferenceResponse R = Healthy[I].Result.get();
      ASSERT_TRUE(R.Outcome.ok())
          << "healthy request " << I << " at " << Threads
          << " threads: " << R.Outcome.message();
      uint64_t Sid = I % 2 == 0 ? *A : *B;
      const std::vector<double> &Ref = I % 2 == 0 ? RefA : RefB;
      auto Logits = Svc.decryptResponse(Sid, R.Bytes);
      ASSERT_TRUE(Logits.ok()) << Logits.status().message();
      ASSERT_EQ(Logits->size(), Ref.size());
      EXPECT_EQ(std::memcmp(Logits->data(), Ref.data(),
                            Ref.size() * sizeof(double)),
                0)
          << "healthy logits differ from the single-client run (request "
          << I << ", " << Threads << " threads)";
    }

    drain(Svc);
    ServiceStats After = Svc.stats();
    EXPECT_EQ(After.Accepted - Before.Accepted, 8u);
    EXPECT_EQ(After.Completed - Before.Completed, 4u);
    EXPECT_EQ(After.Failed - Before.Failed, 2u); // truncated + poisoned
    EXPECT_EQ(After.DeadlineExpired - Before.DeadlineExpired, 1u);
    EXPECT_EQ(After.Cancelled - Before.Cancelled, 1u);
    EXPECT_EQ(After.Rejected, Before.Rejected);
  }

  // Cross-session response decryption is a key mismatch, not garbage.
  auto T = Svc.submit(*FrameA);
  ASSERT_TRUE(T.ok());
  InferenceResponse R = T->Result.get();
  ASSERT_TRUE(R.Outcome.ok());
  auto Wrong = Svc.decryptResponse(*B, R.Bytes);
  ASSERT_FALSE(Wrong.ok());
  EXPECT_EQ(Wrong.status().code(), ErrorCode::KeyMissing);
}

/// Backpressure: a full queue sheds load immediately with
/// ResourceExhausted; every ADMITTED request still completes.
TEST_F(InferenceServiceTest, QueueOverflowShedsLoadWithResourceExhausted) {
  ThreadPool::instance().setNumThreads(1);
  ServiceConfig Cfg;
  Cfg.QueueCapacity = 2;
  Cfg.MaxBatch = 1;
  InferenceService Svc(Compiled->Program, Compiled->State, Cfg);
  auto Sid = Svc.openSession();
  ASSERT_TRUE(Sid.ok());
  auto Frame = Svc.encryptRequest(*Sid, makeInput(3));
  ASSERT_TRUE(Frame.ok());

  // Submission is microseconds, execution is ~seconds: flooding must hit
  // the capacity wall long before the dispatcher can drain it.
  std::vector<InferenceService::Ticket> Admitted;
  bool SawOverflow = false;
  for (int I = 0; I < 32 && !SawOverflow; ++I) {
    auto T = Svc.submit(*Frame);
    if (T.ok()) {
      Admitted.push_back(std::move(*T));
      continue;
    }
    SawOverflow = true;
    EXPECT_EQ(T.status().code(), ErrorCode::ResourceExhausted);
    EXPECT_NE(T.status().message().find("queue full"), std::string::npos)
        << T.status().message();
  }
  ASSERT_TRUE(SawOverflow) << "queue never overflowed in 32 submits";
  // The queue stayed bounded: at most capacity + one in-flight admitted.
  EXPECT_LE(Admitted.size(), Cfg.QueueCapacity + 1);

  // Load shedding degraded gracefully - everything admitted completes.
  for (auto &T : Admitted) {
    InferenceResponse R = T.Result.get();
    EXPECT_TRUE(R.Outcome.ok()) << R.Outcome.message();
  }
  drain(Svc);
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.Accepted, Admitted.size());
  EXPECT_GE(S.Rejected, 1u);
  EXPECT_EQ(S.Completed, Admitted.size());
  EXPECT_EQ(S.QueueDepth, 0u);
  EXPECT_GT(S.P50LatencySeconds, 0.0);
}

/// Closing a session with a request still queued fails that request with
/// KeyMissing when it reaches a worker; it cannot touch freed keys.
TEST_F(InferenceServiceTest, SessionClosedWhileQueuedFailsCleanly) {
  ThreadPool::instance().setNumThreads(1);
  ServiceConfig Cfg;
  Cfg.MaxBatch = 1;
  InferenceService Svc(Compiled->Program, Compiled->State, Cfg);
  auto A = Svc.openSession();
  auto B = Svc.openSession();
  ASSERT_TRUE(A.ok() && B.ok());
  auto FrameA = Svc.encryptRequest(*A, makeInput(4));
  auto FrameB = Svc.encryptRequest(*B, makeInput(5));
  ASSERT_TRUE(FrameA.ok() && FrameB.ok());

  // The first request occupies the dispatcher; the second is queued when
  // its session disappears.
  auto T1 = Svc.submit(*FrameA);
  auto T2 = Svc.submit(*FrameB);
  ASSERT_TRUE(T1.ok() && T2.ok());
  ASSERT_TRUE(Svc.closeSession(*B).ok());

  InferenceResponse R1 = T1->Result.get();
  EXPECT_TRUE(R1.Outcome.ok()) << R1.Outcome.message();
  InferenceResponse R2 = T2->Result.get();
  EXPECT_EQ(R2.Outcome.code(), ErrorCode::KeyMissing)
      << R2.Outcome.message();
}

/// Shutdown fails queued requests with Cancelled (never hangs their
/// futures) and refuses later submissions.
TEST_F(InferenceServiceTest, ShutdownFailsQueuedRequestsCleanly) {
  ThreadPool::instance().setNumThreads(1);
  ServiceConfig Cfg;
  Cfg.MaxBatch = 1;
  auto Svc = std::make_unique<InferenceService>(Compiled->Program,
                                               Compiled->State, Cfg);
  auto Sid = Svc->openSession();
  ASSERT_TRUE(Sid.ok());
  auto Frame = Svc->encryptRequest(*Sid, makeInput(6));
  ASSERT_TRUE(Frame.ok());

  std::vector<InferenceService::Ticket> Tickets;
  for (int I = 0; I < 3; ++I) {
    auto T = Svc->submit(*Frame);
    ASSERT_TRUE(T.ok());
    Tickets.push_back(std::move(*T));
  }
  Svc->shutdown();

  // Every future resolves: the one the dispatcher may already have been
  // running can complete; the queued remainder are Cancelled.
  size_t CancelledCount = 0;
  for (auto &T : Tickets) {
    InferenceResponse R = T.Result.get();
    if (!R.Outcome.ok()) {
      EXPECT_EQ(R.Outcome.code(), ErrorCode::Cancelled)
          << R.Outcome.message();
      ++CancelledCount;
    }
  }
  EXPECT_GE(CancelledCount, 2u);
  EXPECT_EQ(Svc->submit(*Frame).status().code(), ErrorCode::InvalidArgument);
  Svc.reset(); // double-shutdown via the destructor must be safe
}

/// Trace propagation (docs/observability.md): a client-chosen trace id
/// rides the request frame, is read back off the WIRE by the server, and
/// is echoed in the response; a zero id gets a server-assigned nonzero
/// one so every admitted request is joinable in logs.
TEST_F(InferenceServiceTest, TraceIdRoundTripsThroughWireFrames) {
  InferenceService Svc(Compiled->Program, Compiled->State);
  auto Sid = Svc.openSession();
  ASSERT_TRUE(Sid.ok());

  constexpr uint64_t kChosen = 0xace0000000001234ull;
  auto Frame = Svc.encryptRequest(*Sid, makeInput(31), /*ClientTag=*/5,
                                  /*DeadlineSeconds=*/-1.0,
                                  /*TraceId=*/kChosen);
  ASSERT_TRUE(Frame.ok()) << Frame.status().message();
  // The id sits in the request header between the client tag and the
  // deadline: magic(4) + version(2) + session(8) + tag(8) = offset 22.
  uint64_t OnWire = 0;
  std::memcpy(&OnWire, Frame->data() + 22, sizeof(OnWire));
  EXPECT_EQ(OnWire, kChosen);

  auto T = Svc.submit(*Frame);
  ASSERT_TRUE(T.ok()) << T.status().message();
  InferenceResponse R = T->Result.get();
  ASSERT_TRUE(R.Outcome.ok()) << R.Outcome.message();
  EXPECT_EQ(R.TraceId, kChosen);
  // Stage latencies ride along on every completed response.
  EXPECT_GE(R.QueueSeconds, 0.0);
  EXPECT_GE(R.ExecSeconds, 0.0);
  EXPECT_TRUE(Svc.decryptResponse(*Sid, R.Bytes).ok());

  // The server reads the id off the wire, not from client-side state: a
  // proxy rewriting the header (CRC re-sealed) changes what is echoed.
  auto Rewritten = *Frame;
  patchHeaderU64(Rewritten, 22, 0x5EEDull);
  auto T2 = Svc.submit(Rewritten);
  ASSERT_TRUE(T2.ok());
  EXPECT_EQ(T2->Result.get().TraceId, 0x5EEDull);

  // No client id -> the service assigns a nonzero one.
  auto Plain = Svc.encryptRequest(*Sid, makeInput(31));
  ASSERT_TRUE(Plain.ok());
  auto T3 = Svc.submit(*Plain);
  ASSERT_TRUE(T3.ok());
  EXPECT_NE(T3->Result.get().TraceId, 0u);
}

/// Per-request attribution: with a serial pool (every FHE op runs on the
/// dispatcher thread, inside the request's scope) the response's op-count
/// delta must equal the GLOBAL counter delta bit-exactly for every
/// non-service counter - nothing leaks in or out of the attribution.
TEST_F(InferenceServiceTest, PerRequestOpCountsMatchGlobalDeltas) {
  ThreadPool::instance().setNumThreads(1);
  telemetry::Telemetry &T = telemetry::Telemetry::instance();
  T.clear();
  T.setEnabled(true);

  InferenceService Svc(Compiled->Program, Compiled->State);
  auto Sid = Svc.openSession();
  ASSERT_TRUE(Sid.ok());
  auto Frame = Svc.encryptRequest(*Sid, makeInput(33));
  ASSERT_TRUE(Frame.ok());

  telemetry::CounterSnapshot Before = T.counters();
  auto Ticket = Svc.submit(*Frame);
  ASSERT_TRUE(Ticket.ok());
  InferenceResponse R = Ticket->Result.get();
  ASSERT_TRUE(R.Outcome.ok()) << R.Outcome.message();
  telemetry::CounterSnapshot After = T.counters();
  T.setEnabled(false);
  T.clear();

  telemetry::CounterSnapshot Global = After.deltaSince(Before);
  for (size_t I = 0;
       I < static_cast<size_t>(telemetry::Counter::SvcAccepted); ++I)
    EXPECT_EQ(R.OpDelta.Values[I], Global.Values[I])
        << telemetry::counterName(static_cast<telemetry::Counter>(I));
  // The request actually did FHE work (an all-zero pass would satisfy
  // the equality vacuously).
  EXPECT_GT(R.OpDelta.get(telemetry::Counter::Rotate), 0u);
  EXPECT_GT(R.OpDelta.get(telemetry::Counter::BytesDeserialized), 0u);
  // Service lifecycle counters are deliberately outside the scope: they
  // describe the service, not the request's FHE work.
  EXPECT_EQ(R.OpDelta.get(telemetry::Counter::SvcAccepted), 0u);
  EXPECT_EQ(Global.get(telemetry::Counter::SvcAccepted), 1u);
  EXPECT_EQ(Global.get(telemetry::Counter::SvcCompleted), 1u);
}

/// The slow-request path: with the threshold armed below any real
/// latency, a completed request lands in the JSONL event log carrying
/// the upgraded record (span breakdown + health snapshot).
TEST_F(InferenceServiceTest, SlowRequestEmitsUpgradedEventLogRecord) {
  ThreadPool::instance().setNumThreads(1);
  telemetry::Telemetry::instance().clear();
  telemetry::Telemetry::instance().setEnabled(true);
  std::string Path =
      ::testing::TempDir() + "/ace_service_event_log.jsonl";
  obs::EventLog &Log = obs::EventLog::instance();
  ASSERT_TRUE(Log.open(Path).ok());
  Log.setSlowThresholdSeconds(1e-9); // every completed request is "slow"

  {
    InferenceService Svc(Compiled->Program, Compiled->State);
    auto Sid = Svc.openSession();
    ASSERT_TRUE(Sid.ok());
    auto Frame = Svc.encryptRequest(*Sid, makeInput(35), /*ClientTag=*/77,
                                    /*DeadlineSeconds=*/-1.0,
                                    /*TraceId=*/0xfacef00dull);
    ASSERT_TRUE(Frame.ok());
    auto Ticket = Svc.submit(*Frame);
    ASSERT_TRUE(Ticket.ok());
    ASSERT_TRUE(Ticket->Result.get().Outcome.ok());
  }
  EXPECT_GE(Log.writtenCount(), 1u);
  Log.close();
  Log.setSlowThresholdSeconds(0.0);
  telemetry::Telemetry::instance().setEnabled(false);
  telemetry::Telemetry::instance().clear();

  std::ifstream IS(Path);
  std::string Line, Found;
  while (std::getline(IS, Line))
    if (Line.find("\"trace_id\":\"0x00000000facef00d\"") !=
        std::string::npos)
      Found = Line;
  ASSERT_FALSE(Found.empty()) << "no event-log line for the request";
  for (const char *Key :
       {"\"event\":\"request\"", "\"status\":\"ok\"", "\"client_tag\":77",
        "\"queue_s\":", "\"exec_s\":", "\"total_s\":", "\"ops\":{",
        "\"slow\":true", "\"spans\":{", "\"health\":{"})
    EXPECT_NE(Found.find(Key), std::string::npos)
        << Key << " missing in " << Found;
  std::remove(Path.c_str());
}

/// The flat C surface drives the same machinery end to end.
TEST_F(InferenceServiceTest, CApiRoundTrip) {
  const int64_t Dims[] = {8, 6, 4};
  AceService *Svc = ace_service_create_mlp(Dims, 3, /*seed=*/21,
                                           /*queue_capacity=*/4,
                                           /*default_deadline_seconds=*/0.0);
  ASSERT_NE(Svc, nullptr) << ace_last_error_message();

  uint64_t Session = ace_service_open_session(Svc);
  ASSERT_NE(Session, 0u) << ace_last_error_message();

  double Input[8];
  Rng R(9);
  for (auto &V : Input)
    V = R.uniformReal(-1.0, 1.0);
  double Logits[4] = {0, 0, 0, 0};
  size_t Count = 0;
  ASSERT_EQ(ace_service_infer(Svc, Session, Input, 8, /*deadline=*/0.0,
                              Logits, 4, &Count),
            ACE_OK)
      << ace_last_error_message();
  EXPECT_EQ(Count, 4u);

  // An impossible deadline surfaces as the dedicated C error code.
  EXPECT_EQ(ace_service_infer(Svc, Session, Input, 8, /*deadline=*/1e-6,
                              Logits, 4, &Count),
            ACE_ERR_DEADLINE_EXCEEDED);

  char *Json = ace_service_stats_json(Svc);
  ASSERT_NE(Json, nullptr);
  EXPECT_NE(std::strstr(Json, "\"accepted\""), nullptr) << Json;
  std::free(Json);

  EXPECT_EQ(ace_service_close_session(Svc, Session), ACE_OK);
  EXPECT_EQ(ace_service_open_session(nullptr), 0u); // invalid handle
  ace_service_destroy(Svc);
}

/// Session teardown must return every cached-key byte to the governor:
/// the EvalKeys gauge goes back to its pre-session value (never negative,
/// never stale) and the service-level key-cache gauge reads zero.
TEST_F(InferenceServiceTest, ClosingSessionsReleasesKeyCacheCharges) {
  size_t Baseline =
      ResourceGovernor::instance().stats().ChargedBytes[static_cast<size_t>(
          MemCategory::EvalKeys)];
  InferenceService Svc(Compiled->Program, Compiled->State);
  auto A = Svc.openSession();
  auto B = Svc.openSession();
  ASSERT_TRUE(A.ok() && B.ok());
  for (uint64_t Sid : {*A, *B}) {
    auto Frame = Svc.encryptRequest(Sid, makeInput(21));
    ASSERT_TRUE(Frame.ok());
    auto T = Svc.submit(*Frame);
    ASSERT_TRUE(T.ok());
    InferenceResponse R = T->Result.get();
    ASSERT_TRUE(R.Outcome.ok()) << R.Outcome.message();
  }
  // Lazy keygen materialized rotation keys under the governor.
  EXPECT_GT(Svc.stats().KeyCacheBytes, 0u);
  EXPECT_GT(ResourceGovernor::instance().stats().ChargedBytes
                [static_cast<size_t>(MemCategory::EvalKeys)],
            Baseline);

  ASSERT_TRUE(Svc.closeSession(*A).ok());
  ASSERT_TRUE(Svc.closeSession(*B).ok());
  EXPECT_EQ(Svc.stats().KeyCacheBytes, 0u);
  EXPECT_EQ(ResourceGovernor::instance().stats().ChargedBytes
                [static_cast<size_t>(MemCategory::EvalKeys)],
            Baseline);
}

/// A hard budget the process is already over sheds requests in-band:
/// the ticket resolves with ResourceExhausted (no crash, no hung
/// future), and raising the budget restores service on the same frame.
TEST_F(InferenceServiceTest, TightBudgetShedsRequestsInBand) {
  size_t SavedBudget = ResourceGovernor::instance().budgetBytes();
  // Far below the session working set.
  ResourceGovernor::instance().setBudgetBytes(1 << 20);
  InferenceService Svc(Compiled->Program, Compiled->State);
  auto Sid = Svc.openSession();
  ASSERT_TRUE(Sid.ok()) << Sid.status().message();
  auto Frame = Svc.encryptRequest(*Sid, makeInput(22));
  ASSERT_TRUE(Frame.ok()) << Frame.status().message();

  auto Shed = Svc.submit(*Frame);
  ASSERT_TRUE(Shed.ok()); // queue admission is not the budget gate
  InferenceResponse R = Shed->Result.get();
  EXPECT_EQ(R.Outcome.code(), ErrorCode::ResourceExhausted)
      << R.Outcome.message();
  drain(Svc);
  EXPECT_GE(Svc.stats().Failed, 1u);

  // Headroom restored: the SAME frame now completes.
  ResourceGovernor::instance().setBudgetBytes(0);
  auto Ok = Svc.submit(*Frame);
  ASSERT_TRUE(Ok.ok());
  InferenceResponse R2 = Ok->Result.get();
  EXPECT_TRUE(R2.Outcome.ok()) << R2.Outcome.message();
  ResourceGovernor::instance().setBudgetBytes(SavedBudget);
}

/// An injected BudgetExceeded fault (the ACE_FAULT_INJECT=budget-exceeded
/// soak leg) fails exactly one request with ResourceExhausted and leaves
/// no residue: the next request on the same session completes.
TEST_F(InferenceServiceTest, BudgetFaultFailsOneRequestCleanly) {
  InferenceService Svc(Compiled->Program, Compiled->State);
  auto Sid = Svc.openSession();
  ASSERT_TRUE(Sid.ok());
  auto Frame = Svc.encryptRequest(*Sid, makeInput(23));
  ASSERT_TRUE(Frame.ok());

  FaultInjector::instance().arm(FaultKind::BudgetExceeded, /*Count=*/1);
  auto Faulted = Svc.submit(*Frame);
  ASSERT_TRUE(Faulted.ok());
  InferenceResponse R = Faulted->Result.get();
  EXPECT_EQ(R.Outcome.code(), ErrorCode::ResourceExhausted)
      << R.Outcome.message();

  FaultInjector::instance().reset();
  auto Healthy = Svc.submit(*Frame);
  ASSERT_TRUE(Healthy.ok());
  InferenceResponse R2 = Healthy->Result.get();
  EXPECT_TRUE(R2.Outcome.ok()) << R2.Outcome.message();
}

/// Memory pressure reclaims a quiet session's cached rotation keys (the
/// governor's reclaim pass, docs/memory.md); the session stays open and
/// regenerates them transparently on its next request.
TEST_F(InferenceServiceTest, ReclaimedSessionKeysRegenerateOnNextRequest) {
  InferenceService Svc(Compiled->Program, Compiled->State);
  auto Sid = Svc.openSession();
  ASSERT_TRUE(Sid.ok());
  auto Frame = Svc.encryptRequest(*Sid, makeInput(24));
  ASSERT_TRUE(Frame.ok());
  auto T = Svc.submit(*Frame);
  ASSERT_TRUE(T.ok());
  InferenceResponse R1 = T->Result.get();
  ASSERT_TRUE(R1.Outcome.ok()) << R1.Outcome.message();
  auto Before = Svc.decryptResponse(*Sid, R1.Bytes);
  ASSERT_TRUE(Before.ok()) << Before.status().message();
  const size_t Cached = Svc.stats().KeyCacheBytes;
  ASSERT_GT(Cached, 0u);

  // Another consumer asks for that many bytes with no room left under
  // the budget: the reclaim pass evicts the session's cold keys to admit
  // it.
  ResourceGovernor &Gov = ResourceGovernor::instance();
  size_t SavedBudget = Gov.budgetBytes();
  LimbPool::instance().trim();
  Gov.setBudgetBytes(Gov.stats().totalChargedBytes());
  Status Admit = Gov.admit(Cached, "another consumer");
  Gov.setBudgetBytes(SavedBudget);
  EXPECT_TRUE(Admit.ok()) << Admit.message();
  EXPECT_EQ(Svc.stats().KeyCacheBytes, 0u) << Svc.stats().json();
  EXPECT_EQ(Svc.stats().OpenSessions, 1u);

  // The same frame on the same session completes: the keys regenerate
  // on demand, and the logits match the first response's.
  auto T2 = Svc.submit(*Frame);
  ASSERT_TRUE(T2.ok());
  InferenceResponse R2 = T2->Result.get();
  ASSERT_TRUE(R2.Outcome.ok()) << R2.Outcome.message();
  EXPECT_EQ(Svc.stats().KeyCacheBytes, Cached);
  auto After = Svc.decryptResponse(*Sid, R2.Bytes);
  ASSERT_TRUE(After.ok()) << After.status().message();
  ASSERT_EQ(After->size(), Before->size());
  for (size_t I = 0; I < Before->size(); ++I)
    EXPECT_NEAR((*After)[I], (*Before)[I], 1e-3) << "logit " << I;
}

} // namespace
