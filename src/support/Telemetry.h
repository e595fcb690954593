//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide telemetry with three faces (see docs/observability.md):
///
///  1. Structured tracing: RAII spans (TraceSpan for coarse compiler
///     passes and executor regions, FheOpSpan for hot runtime primitives)
///     recorded as Chrome trace-event JSON, openable in chrome://tracing
///     or Perfetto. Setting ACE_TRACE=<file> enables telemetry at process
///     start and writes the trace at exit; a programmatic TraceSink
///     receives every event as it completes.
///
///  2. FHE op counters: a fixed taxonomy of atomic counters (ct-ct mults,
///     ct-pt mults, rotations, rescales, relinearizations, bootstraps,
///     NTT invocations, key-switch digits, ...) with named snapshots so
///     each compile phase and each inference can report its op cost.
///
///  3. Ciphertext health: per-op aggregation of level (active primes),
///     scale (log2), and a noise-budget estimate (log2 of the remaining
///     active modulus minus log2 of the scale) - the quantities the
///     paper's parameter selection and rescale placement reason about.
///
/// Overhead contract: when telemetry is disabled (the default), every
/// hook site reduces to one branch on a cached atomic flag
/// (telemetry::enabled()); no clocks are read and no locks are taken on
/// the primitive path. bench_fhe_ops guards the disabled path.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_SUPPORT_TELEMETRY_H
#define ACE_SUPPORT_TELEMETRY_H

#include "support/Histogram.h"
#include "support/Status.h"
#include "support/Timer.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ace {
namespace telemetry {

/// The FHE op-counter taxonomy. Counter slots are fixed so increments are
/// plain relaxed atomic adds with no lookup.
enum class Counter : unsigned {
  CtCtMul = 0,     ///< ciphertext-ciphertext products (before relin)
  CtPtMul,         ///< ciphertext-plaintext products (incl. scalar muls)
  Add,             ///< ciphertext additions/subtractions
  Rotate,          ///< slot rotations (one per key-switched automorphism)
  Conjugate,       ///< complex conjugations
  Relinearize,     ///< Cipher3 -> Cipher conversions
  Rescale,         ///< rescales (scale-dividing prime drops)
  ModSwitch,       ///< mod-switches (scale-preserving prime drops)
  KeySwitch,       ///< key-switch invocations
  KeySwitchDigit,  ///< hybrid digits decomposed, ceil(l/alpha) per ModUp
  ModUp,           ///< digit decompositions lifted to the extended basis
  HoistedKeySwitch, ///< rotations served from a shared (hoisted) ModUp
  Bootstrap,       ///< full bootstrap invocations
  NttForward,      ///< forward negacyclic NTTs
  NttInverse,      ///< inverse negacyclic NTTs
  ParallelFor,     ///< forked parallelFor regions (see support/ThreadPool.h)
  BytesSerialized,   ///< wire-format bytes written (docs/serialization.md)
  BytesDeserialized, ///< wire-format bytes accepted by a successful load
  SvcAccepted,        ///< service requests admitted to the queue
  SvcRejected,        ///< service requests shed at admission (backpressure)
  SvcCompleted,       ///< service requests finished successfully
  SvcFailed,          ///< service requests failed (malformed, bad key, ...)
  SvcDeadlineExpired, ///< service requests abandoned on an expired deadline
  SvcCancelled,       ///< service requests abandoned by client cancellation
  CounterCount,
};

constexpr size_t kCounterCount = static_cast<size_t>(Counter::CounterCount);

/// Stable report/JSON name of \p C ("ct-ct-mul", "rotate", ...).
const char *counterName(Counter C);

namespace detail {
/// The cached global enable flag. Do not touch directly; hook sites read
/// it through telemetry::enabled(), and Telemetry::setEnabled writes it.
extern std::atomic<bool> Enabled;
} // namespace detail

/// The one branch every disabled hook site pays.
inline bool enabled() {
  return detail::Enabled.load(std::memory_order_relaxed);
}

/// A point-in-time copy of every counter.
struct CounterSnapshot {
  std::array<uint64_t, kCounterCount> Values{};

  uint64_t get(Counter C) const {
    return Values[static_cast<size_t>(C)];
  }

  /// Element-wise this - earlier (counters are monotonic).
  CounterSnapshot deltaSince(const CounterSnapshot &Earlier) const {
    CounterSnapshot D;
    for (size_t I = 0; I < kCounterCount; ++I)
      D.Values[I] = Values[I] - Earlier.Values[I];
    return D;
  }
};

/// Per-request observation context (see docs/observability.md). While a
/// RequestScope is installed on a thread, every Telemetry::count() on
/// that thread also accumulates into OpDelta, every FheOpSpan folds its
/// noise budget into MinNoiseBudgetBits, and every TraceSpan appends its
/// (name, wall seconds) to Spans - giving the serving layer an exact
/// per-request op-cost and span breakdown without any global diffing.
///
/// Not thread-safe by design: one context belongs to the one thread
/// executing the request (nested kernels run inline on that thread at
/// the service's per-request fan-out; see docs/serving.md for the
/// attribution caveat when a lone request forks across workers).
struct RequestContext {
  /// Cap on captured spans; requests past it count but stop recording.
  static constexpr size_t kMaxSpans = 256;

  uint64_t TraceId = 0;
  /// Counter increments observed while this context was installed.
  std::array<uint64_t, kCounterCount> OpDelta{};
  double MinNoiseBudgetBits = std::numeric_limits<double>::infinity();
  bool SawHealth = false;
  /// (span name, wall seconds) of every TraceSpan closed in scope.
  std::vector<std::pair<std::string, double>> Spans;

  CounterSnapshot opSnapshot() const {
    CounterSnapshot S;
    S.Values = OpDelta;
    return S;
  }
};

namespace detail {
/// The thread's active request context (nullptr outside any request).
/// Only set through RequestScope; read by the telemetry hooks. The
/// thread-local behind them never leaves Telemetry.cpp: an access to an
/// extern thread_local from another file gets a UBSan null check whose
/// flags the linker's TLS relaxation rewrites away (GCC 12, binutils
/// 2.40), so every sanitized request aborted on a false "store to null
/// pointer".
RequestContext *currentRequest();
void setCurrentRequest(RequestContext *Ctx);
} // namespace detail

/// RAII installer for a RequestContext on the current thread. Nests:
/// the previous context is restored on destruction.
class RequestScope {
public:
  explicit RequestScope(RequestContext &Ctx)
      : Prev(detail::currentRequest()) {
    detail::setCurrentRequest(&Ctx);
  }
  ~RequestScope() { detail::setCurrentRequest(Prev); }

  RequestScope(const RequestScope &) = delete;
  RequestScope &operator=(const RequestScope &) = delete;

private:
  RequestContext *Prev;
};

/// One completed trace event. Phase 'X' = complete span (TsUs + DurUs),
/// 'C' = counter sample (CounterValue), 'i' = instant, 'b'/'e' = async
/// span begin/end (correlated by Id; the service emits one async span
/// per request so queue wait and execution render as one bar per
/// request in chrome://tracing).
struct TraceEvent {
  std::string Name;
  const char *Category = "";     ///< must point at a static string
  char Phase = 'X';
  double TsUs = 0.0;             ///< microseconds since the trace epoch
  double DurUs = 0.0;            ///< span duration ('X' only)
  uint32_t Tid = 0;
  /// Ciphertext-health args (negative level / NaN = absent).
  int Level = -1;
  double Log2Scale = std::numeric_limits<double>::quiet_NaN();
  double NoiseBudgetBits = std::numeric_limits<double>::quiet_NaN();
  /// Sample value for 'C' events (e.g. RSS bytes).
  double CounterValue = std::numeric_limits<double>::quiet_NaN();
  /// Correlation id: the async-span id for 'b'/'e' events, and the
  /// owning request's trace id (rendered as a "trace" arg) for 'X'
  /// events recorded inside a RequestScope. 0 = absent.
  uint64_t Id = 0;
};

/// Programmatic consumer of completed events (in addition to the
/// in-memory buffer). Callbacks run under the telemetry lock: keep them
/// short and do not call back into Telemetry.
class TraceSink {
public:
  virtual ~TraceSink() = default;
  virtual void onEvent(const TraceEvent &E) = 0;
};

/// Aggregated health statistics for one op kind.
struct OpHealth {
  uint64_t Count = 0;
  int MinLevel = std::numeric_limits<int>::max();
  int MaxLevel = std::numeric_limits<int>::min();
  double MinNoiseBudgetBits = std::numeric_limits<double>::infinity();
  double LastLog2Scale = std::numeric_limits<double>::quiet_NaN();
};

/// The process-wide telemetry hub. Thread-safe throughout; counter
/// increments are lock-free.
class Telemetry {
public:
  static Telemetry &instance();

  /// Flips the cached global flag. Enabling mid-run is safe; spans opened
  /// while disabled stay silent.
  void setEnabled(bool On);
  bool isEnabled() const { return enabled(); }

  /// \name Counters
  /// @{
  void count(Counter C, uint64_t N = 1) {
    Counters[static_cast<size_t>(C)].fetch_add(N,
                                               std::memory_order_relaxed);
    // Per-request attribution. Hook sites only reach count() behind a
    // telemetry::enabled() check, so the disabled path never pays this.
    if (RequestContext *Ctx = detail::currentRequest())
      Ctx->OpDelta[static_cast<size_t>(C)] += N;
  }
  uint64_t counterValue(Counter C) const {
    return Counters[static_cast<size_t>(C)].load(
        std::memory_order_relaxed);
  }
  CounterSnapshot counters() const;
  /// Records a named snapshot of every counter (per-phase reporting: the
  /// report prints deltas between consecutive snapshots).
  void recordSnapshot(const std::string &Label);
  std::vector<std::pair<std::string, CounterSnapshot>> snapshots() const;
  /// @}

  /// \name Events
  /// @{
  /// Appends \p E to the buffer (bounded; overflow counts as dropped) and
  /// forwards it to the sink when one is set.
  void addEvent(TraceEvent E);
  /// Installs \p Sink (nullptr restores buffer-only operation).
  void setSink(TraceSink *Sink);
  size_t eventCount() const;
  size_t droppedEventCount() const;
  /// Copy of the buffered events, for tests and custom exporters.
  std::vector<TraceEvent> eventsCopy() const;
  /// @}

  /// \name Ciphertext health
  /// @{
  void recordHealth(Counter Op, int NumQ, double Log2Scale,
                    double NoiseBudgetBits);
  /// (op, stats) pairs for every op kind seen at least once.
  std::vector<std::pair<Counter, OpHealth>> health() const;
  /// @}

  /// \name Per-op latency
  /// Lock-free histogram of wall time per traced FHE primitive, fed by
  /// FheOpSpan and exported as ace_fhe_op_seconds{op=...} (see
  /// support/MetricsRegistry.h). One histogram per counter slot.
  /// @{
  Histogram &opLatency(Counter C) {
    return OpLatency[static_cast<size_t>(C)];
  }
  const Histogram &opLatency(Counter C) const {
    return OpLatency[static_cast<size_t>(C)];
  }
  /// @}

  /// \name Thread names
  /// Names the calling thread for the Chrome trace ('M' thread_name
  /// metadata events, synthesized at write time so naming works even
  /// before telemetry is enabled). Cheap: one mutex take per call;
  /// call once per thread at startup.
  /// @{
  void nameThread(const std::string &Name);
  /// (tid, name) pairs registered so far.
  std::vector<std::pair<uint32_t, std::string>> threadNames() const;
  /// @}

  /// \name Phase accumulation
  /// Wall seconds per span name, accumulated when spans close while
  /// telemetry is enabled. The Figure 5/6 benches and the examples read
  /// their compile-phase and per-operator breakdowns here.
  /// @{
  void accumulatePhase(const std::string &Name, double Seconds);
  double phaseSeconds(const std::string &Name) const;
  std::vector<std::pair<std::string, double>> phaseEntries() const;
  /// @}

  /// \name Run metadata
  /// Small string key/value map describing the process configuration
  /// (e.g. the selected poly-ops kernel backend). Stamped into the
  /// Chrome trace's "otherData" block and exported as the
  /// ace_build_info Prometheus gauge so perf records are attributable
  /// to a kernel path (docs/kernels.md). Recorded even while telemetry
  /// is disabled - setters run once per selection, never on a hot path.
  /// @{
  void setMetadata(const std::string &Key, const std::string &Value);
  /// (key, value) pairs in insertion order.
  std::vector<std::pair<std::string, std::string>> metadata() const;
  /// @}

  /// \name Memory
  /// @{
  /// Appends a 'C' event sampling the process RSS (see MemTrack) under
  /// \p Label and folds it into the tracked peak.
  void sampleRss(const char *Label);
  size_t peakRssBytes() const {
    return PeakRss.load(std::memory_order_relaxed);
  }
  /// @}

  /// \name Output
  /// @{
  /// Writes the buffered events as Chrome trace-event JSON
  /// ({"traceEvents": [...]}; open in chrome://tracing or Perfetto).
  void writeChromeTrace(std::ostream &OS) const;
  Status writeChromeTraceFile(const std::string &Path) const;
  /// Human-readable (or JSON, when \p Json) summary of counters, health,
  /// phase times, snapshots, and memory.
  void writeReport(std::ostream &OS, bool Json) const;
  std::string reportString(bool Json) const;
  /// @}

  /// Drops all recorded data (events, snapshots, health, phases,
  /// counters, peak RSS). The enable flag is left untouched.
  void clear();

  /// Microseconds since the trace epoch (process telemetry start).
  double nowUs() const;

private:
  Telemetry();
  Telemetry(const Telemetry &) = delete;
  Telemetry &operator=(const Telemetry &) = delete;

  std::array<std::atomic<uint64_t>, kCounterCount> Counters{};
  std::array<Histogram, kCounterCount> OpLatency{};
  std::atomic<size_t> PeakRss{0};

  mutable std::mutex Mutex;
  std::vector<TraceEvent> Events;
  size_t DroppedEvents = 0;
  std::vector<std::pair<std::string, CounterSnapshot>> Snapshots;
  std::array<OpHealth, kCounterCount> Health{};
  std::vector<std::pair<uint32_t, std::string>> ThreadNames;
  std::vector<std::pair<std::string, std::string>> Metadata;
  TimingRegistry Phases;
  TraceSink *Sink = nullptr;
  std::chrono::steady_clock::time_point Epoch;
};

/// RAII span for coarse scopes (compiler passes, executor regions,
/// setup). When telemetry was enabled at construction, the span records
/// a trace event and accumulates its wall time under its name
/// (Telemetry::phaseSeconds); otherwise it reads no clock at all.
class TraceSpan {
public:
  TraceSpan(const char *Category, std::string Name);
  ~TraceSpan();

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  const char *Category;
  std::string Name;
  bool Emit;
  double StartUs = 0.0;
};

/// RAII span for hot FHE primitives. Default construction is free; call
/// begin() only behind a telemetry::enabled() check:
///
///   FheOpSpan Span;
///   if (telemetry::enabled())
///     Span.begin(telemetry::Counter::CtCtMul, A.numQ(), A.Scale, Budget);
///
/// begin() bumps the op counter immediately; destruction emits the trace
/// event with health args and updates the per-op health aggregate.
class FheOpSpan {
public:
  FheOpSpan() = default;
  ~FheOpSpan();

  FheOpSpan(const FheOpSpan &) = delete;
  FheOpSpan &operator=(const FheOpSpan &) = delete;

  void begin(Counter Op, size_t NumQ, double Scale, double NoiseBudgetBits);

private:
  bool Active = false;
  Counter Op = Counter::CtCtMul;
  int NumQ = -1;
  double Log2Scale = std::numeric_limits<double>::quiet_NaN();
  double NoiseBudgetBits = std::numeric_limits<double>::quiet_NaN();
  double StartUs = 0.0;
};

/// Escapes \p S for embedding in a JSON string literal.
std::string jsonEscape(const std::string &S);

} // namespace telemetry
} // namespace ace

#endif // ACE_SUPPORT_TELEMETRY_H
