//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include "support/Env.h"
#include "support/MemTrack.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

using namespace ace;
using namespace ace::telemetry;

std::atomic<bool> ace::telemetry::detail::Enabled{false};

namespace {

thread_local RequestContext *CurrentRequest = nullptr;

/// Buffered-event cap: ~4M events (104 B each, ~0.45 GB) bound the buffer
/// even on pathological runs, while a 45 s traced perfbench run of the
/// contract MLP (~0.76M events) fills under a fifth of it; overflow is
/// counted and reported instead of silently truncating the story.
constexpr size_t kMaxEvents = 1u << 22;

/// Small dense thread ids for the trace (std::thread::id is opaque).
uint32_t threadId() {
  static std::atomic<uint32_t> Next{1};
  thread_local uint32_t Id = Next.fetch_add(1, std::memory_order_relaxed);
  return Id;
}

} // namespace

RequestContext *detail::currentRequest() { return CurrentRequest; }

void detail::setCurrentRequest(RequestContext *Ctx) { CurrentRequest = Ctx; }

const char *ace::telemetry::counterName(Counter C) {
  switch (C) {
  case Counter::CtCtMul:
    return "ct-ct-mul";
  case Counter::CtPtMul:
    return "ct-pt-mul";
  case Counter::Add:
    return "add";
  case Counter::Rotate:
    return "rotate";
  case Counter::Conjugate:
    return "conjugate";
  case Counter::Relinearize:
    return "relinearize";
  case Counter::Rescale:
    return "rescale";
  case Counter::ModSwitch:
    return "modswitch";
  case Counter::KeySwitch:
    return "key-switch";
  case Counter::KeySwitchDigit:
    return "key-switch-digit";
  case Counter::ModUp:
    return "modup";
  case Counter::HoistedKeySwitch:
    return "hoisted-keyswitch";
  case Counter::Bootstrap:
    return "bootstrap";
  case Counter::NttForward:
    return "ntt-forward";
  case Counter::NttInverse:
    return "ntt-inverse";
  case Counter::ParallelFor:
    return "parallel-for";
  case Counter::BytesSerialized:
    return "bytes-serialized";
  case Counter::BytesDeserialized:
    return "bytes-deserialized";
  case Counter::SvcAccepted:
    return "service-accepted";
  case Counter::SvcRejected:
    return "service-rejected";
  case Counter::SvcCompleted:
    return "service-completed";
  case Counter::SvcFailed:
    return "service-failed";
  case Counter::SvcDeadlineExpired:
    return "service-deadline-expired";
  case Counter::SvcCancelled:
    return "service-cancelled";
  case Counter::CounterCount:
    break;
  }
  return "unknown";
}

std::string ace::telemetry::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (unsigned char Ch : S) {
    switch (Ch) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (Ch < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", Ch);
        Out += Buf;
      } else {
        Out += static_cast<char>(Ch);
      }
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Telemetry hub
//===----------------------------------------------------------------------===//

Telemetry::Telemetry() : Epoch(std::chrono::steady_clock::now()) {}

Telemetry &Telemetry::instance() {
  static Telemetry T;
  return T;
}

void Telemetry::setEnabled(bool On) {
  detail::Enabled.store(On, std::memory_order_relaxed);
}

double Telemetry::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

CounterSnapshot Telemetry::counters() const {
  CounterSnapshot S;
  for (size_t I = 0; I < kCounterCount; ++I)
    S.Values[I] = Counters[I].load(std::memory_order_relaxed);
  return S;
}

void Telemetry::recordSnapshot(const std::string &Label) {
  CounterSnapshot S = counters();
  std::lock_guard<std::mutex> Lock(Mutex);
  Snapshots.emplace_back(Label, S);
}

std::vector<std::pair<std::string, CounterSnapshot>>
Telemetry::snapshots() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Snapshots;
}

void Telemetry::addEvent(TraceEvent E) {
  if (E.Tid == 0)
    E.Tid = threadId();
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Sink)
    Sink->onEvent(E);
  if (Events.size() >= kMaxEvents) {
    ++DroppedEvents;
    return;
  }
  Events.push_back(std::move(E));
}

void Telemetry::setSink(TraceSink *NewSink) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Sink = NewSink;
}

size_t Telemetry::eventCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Events.size();
}

size_t Telemetry::droppedEventCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return DroppedEvents;
}

std::vector<TraceEvent> Telemetry::eventsCopy() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Events;
}

void Telemetry::recordHealth(Counter Op, int NumQ, double Log2Scale,
                             double NoiseBudgetBits) {
  std::lock_guard<std::mutex> Lock(Mutex);
  OpHealth &H = Health[static_cast<size_t>(Op)];
  ++H.Count;
  if (NumQ >= 0) {
    H.MinLevel = std::min(H.MinLevel, NumQ);
    H.MaxLevel = std::max(H.MaxLevel, NumQ);
  }
  if (std::isfinite(NoiseBudgetBits))
    H.MinNoiseBudgetBits = std::min(H.MinNoiseBudgetBits, NoiseBudgetBits);
  H.LastLog2Scale = Log2Scale;
}

std::vector<std::pair<Counter, OpHealth>> Telemetry::health() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<std::pair<Counter, OpHealth>> Out;
  for (size_t I = 0; I < kCounterCount; ++I)
    if (Health[I].Count > 0)
      Out.emplace_back(static_cast<Counter>(I), Health[I]);
  return Out;
}

void Telemetry::nameThread(const std::string &Name) {
  uint32_t Tid = threadId();
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &[ExistingTid, ExistingName] : ThreadNames)
    if (ExistingTid == Tid) {
      ExistingName = Name;
      return;
    }
  ThreadNames.emplace_back(Tid, Name);
}

std::vector<std::pair<uint32_t, std::string>>
Telemetry::threadNames() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return ThreadNames;
}

void Telemetry::setMetadata(const std::string &Key,
                            const std::string &Value) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &[ExistingKey, ExistingValue] : Metadata)
    if (ExistingKey == Key) {
      ExistingValue = Value;
      return;
    }
  Metadata.emplace_back(Key, Value);
}

std::vector<std::pair<std::string, std::string>>
Telemetry::metadata() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Metadata;
}

void Telemetry::accumulatePhase(const std::string &Name, double Seconds) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Phases.add(Name, Seconds);
}

double Telemetry::phaseSeconds(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Phases.get(Name);
}

std::vector<std::pair<std::string, double>> Telemetry::phaseEntries() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Phases.entries();
}

void Telemetry::sampleRss(const char *Label) {
  size_t Rss = currentRssBytes();
  size_t Prev = PeakRss.load(std::memory_order_relaxed);
  while (Rss > Prev &&
         !PeakRss.compare_exchange_weak(Prev, Rss,
                                        std::memory_order_relaxed))
    ;
  TraceEvent E;
  E.Name = Label;
  E.Category = "memory";
  E.Phase = 'C';
  E.TsUs = nowUs();
  E.CounterValue = static_cast<double>(Rss);
  addEvent(std::move(E));
}

void Telemetry::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Events.clear();
  DroppedEvents = 0;
  Snapshots.clear();
  Health = {};
  ThreadNames.clear();
  Phases.clear();
  PeakRss.store(0, std::memory_order_relaxed);
  for (auto &C : Counters)
    C.store(0, std::memory_order_relaxed);
  for (auto &H : OpLatency)
    H.clear();
}

//===----------------------------------------------------------------------===//
// Chrome trace output
//===----------------------------------------------------------------------===//

void Telemetry::writeChromeTrace(std::ostream &OS) const {
  std::vector<TraceEvent> Copy;
  std::vector<std::pair<uint32_t, std::string>> Names;
  std::vector<std::pair<std::string, std::string>> Meta;
  size_t Dropped;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Copy = Events;
    Names = ThreadNames;
    Meta = Metadata;
    Dropped = DroppedEvents;
  }
  OS << "{\"traceEvents\":[";
  bool First = true;
  // Metadata first: the process name and one thread_name 'M' event per
  // registered thread, so pool workers and the service dispatcher show
  // up labeled in chrome://tracing. Synthesized at write time - naming
  // works even for threads started before telemetry was enabled.
  OS << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"ace\"}}";
  First = false;
  for (const auto &[Tid, Name] : Names)
    OS << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << Tid << ",\"args\":{\"name\":\"" << jsonEscape(Name) << "\"}}";
  for (const TraceEvent &E : Copy) {
    if (!First)
      OS << ",";
    First = false;
    OS << "\n{\"name\":\"" << jsonEscape(E.Name) << "\",\"cat\":\""
       << jsonEscape(E.Category) << "\",\"ph\":\"" << E.Phase
       << "\",\"pid\":1,\"tid\":" << E.Tid;
    char Buf[64];
    if (E.Phase == 'b' || E.Phase == 'e') {
      std::snprintf(Buf, sizeof(Buf), "\"0x%llx\"",
                    static_cast<unsigned long long>(E.Id));
      OS << ",\"id\":" << Buf;
    }
    std::snprintf(Buf, sizeof(Buf), "%.3f", E.TsUs);
    OS << ",\"ts\":" << Buf;
    if (E.Phase == 'X') {
      std::snprintf(Buf, sizeof(Buf), "%.3f", E.DurUs);
      OS << ",\"dur\":" << Buf;
    }
    OS << ",\"args\":{";
    bool FirstArg = true;
    auto Arg = [&](const char *Key, double V, bool AsInt = false) {
      if (!FirstArg)
        OS << ",";
      FirstArg = false;
      if (AsInt)
        std::snprintf(Buf, sizeof(Buf), "%.0f", V);
      else
        std::snprintf(Buf, sizeof(Buf), "%.4f", V);
      OS << "\"" << Key << "\":" << Buf;
    };
    if (E.Level >= 0)
      Arg("level", E.Level, /*AsInt=*/true);
    if (std::isfinite(E.Log2Scale))
      Arg("log2Scale", E.Log2Scale);
    if (std::isfinite(E.NoiseBudgetBits))
      Arg("noiseBudgetBits", E.NoiseBudgetBits);
    if (std::isfinite(E.CounterValue))
      Arg("value", E.CounterValue, /*AsInt=*/true);
    if (E.Id != 0 && E.Phase != 'b' && E.Phase != 'e') {
      if (!FirstArg)
        OS << ",";
      FirstArg = false;
      std::snprintf(Buf, sizeof(Buf), "\"0x%016llx\"",
                    static_cast<unsigned long long>(E.Id));
      OS << "\"trace\":" << Buf;
    }
    OS << "}}";
  }
  OS << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
     << "\"tool\":\"ace-telemetry\",\"droppedEvents\":" << Dropped
     << ",\"peakRssBytes\":" << peakRssBytes();
  // Run metadata (kernel backend, ...) so a saved trace records which
  // code path produced its timings.
  for (const auto &[Key, Value] : Meta)
    OS << ",\"" << jsonEscape(Key) << "\":\"" << jsonEscape(Value)
       << "\"";
  OS << "}}\n";
}

Status Telemetry::writeChromeTraceFile(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return Status::error("telemetry: cannot write trace file '" + Path +
                         "'");
  writeChromeTrace(OS);
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Telemetry::writeReport(std::ostream &OS, bool Json) const {
  CounterSnapshot S = counters();
  auto HealthCopy = health();
  auto PhaseCopy = phaseEntries();
  auto SnapCopy = snapshots();
  size_t Rss = peakRssBytes();
  size_t NumEvents = eventCount();
  size_t Dropped = droppedEventCount();

  if (Json) {
    OS << "{\"counters\":{";
    bool First = true;
    for (size_t I = 0; I < kCounterCount; ++I) {
      if (!First)
        OS << ",";
      First = false;
      OS << "\"" << counterName(static_cast<Counter>(I))
         << "\":" << S.Values[I];
    }
    OS << "},\"health\":{";
    First = true;
    for (const auto &[Op, H] : HealthCopy) {
      if (!First)
        OS << ",";
      First = false;
      OS << "\"" << counterName(Op) << "\":{\"count\":" << H.Count
         << ",\"minLevel\":" << H.MinLevel
         << ",\"maxLevel\":" << H.MaxLevel;
      char Buf[64];
      if (std::isfinite(H.MinNoiseBudgetBits)) {
        std::snprintf(Buf, sizeof(Buf), "%.2f", H.MinNoiseBudgetBits);
        OS << ",\"minNoiseBudgetBits\":" << Buf;
      }
      if (std::isfinite(H.LastLog2Scale)) {
        std::snprintf(Buf, sizeof(Buf), "%.2f", H.LastLog2Scale);
        OS << ",\"lastLog2Scale\":" << Buf;
      }
      OS << "}";
    }
    OS << "},\"phases\":{";
    First = true;
    for (const auto &[Name, Secs] : PhaseCopy) {
      if (!First)
        OS << ",";
      First = false;
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.6f", Secs);
      OS << "\"" << jsonEscape(Name) << "\":" << Buf;
    }
    OS << "},\"snapshots\":[";
    First = true;
    for (const auto &[Label, Snap] : SnapCopy) {
      if (!First)
        OS << ",";
      First = false;
      OS << "{\"label\":\"" << jsonEscape(Label) << "\",\"counters\":{";
      bool FirstC = true;
      for (size_t I = 0; I < kCounterCount; ++I) {
        if (!FirstC)
          OS << ",";
        FirstC = false;
        OS << "\"" << counterName(static_cast<Counter>(I))
           << "\":" << Snap.Values[I];
      }
      OS << "}}";
    }
    OS << "],\"peakRssBytes\":" << Rss << ",\"traceEvents\":" << NumEvents
       << ",\"droppedEvents\":" << Dropped << "}\n";
    return;
  }

  OS << "=== ACE telemetry report ===\n";
  OS << "FHE op counters:\n";
  for (size_t I = 0; I < kCounterCount; ++I)
    if (S.Values[I] > 0) {
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf), "  %-18s %12llu\n",
                    counterName(static_cast<Counter>(I)),
                    static_cast<unsigned long long>(S.Values[I]));
      OS << Buf;
    }
  if (!HealthCopy.empty()) {
    OS << "Ciphertext health (level = active primes):\n";
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "  %-18s %10s %14s %18s %12s\n", "op",
                  "count", "level[min,max]", "min-budget(bits)",
                  "log2(scale)");
    OS << Buf;
    for (const auto &[Op, H] : HealthCopy) {
      std::string Levels = "[" + std::to_string(H.MinLevel) + "," +
                           std::to_string(H.MaxLevel) + "]";
      std::snprintf(Buf, sizeof(Buf), "  %-18s %10llu %14s %18.1f %12.1f\n",
                    counterName(Op),
                    static_cast<unsigned long long>(H.Count),
                    Levels.c_str(),
                    std::isfinite(H.MinNoiseBudgetBits)
                        ? H.MinNoiseBudgetBits
                        : 0.0,
                    std::isfinite(H.LastLog2Scale) ? H.LastLog2Scale : 0.0);
      OS << Buf;
    }
  }
  if (!PhaseCopy.empty()) {
    OS << "Span times (wall seconds):\n";
    for (const auto &[Name, Secs] : PhaseCopy) {
      char Buf[128];
      std::snprintf(Buf, sizeof(Buf), "  %-18s %12.4f\n", Name.c_str(),
                    Secs);
      OS << Buf;
    }
  }
  if (!SnapCopy.empty()) {
    OS << "Counter snapshots (deltas since previous):\n";
    CounterSnapshot Prev;
    for (const auto &[Label, Snap] : SnapCopy) {
      CounterSnapshot D = Snap.deltaSince(Prev);
      Prev = Snap;
      OS << "  " << Label << ":";
      bool Any = false;
      for (size_t I = 0; I < kCounterCount; ++I)
        if (D.Values[I] > 0) {
          OS << " " << counterName(static_cast<Counter>(I)) << "="
             << D.Values[I];
          Any = true;
        }
      OS << (Any ? "\n" : " (no FHE ops)\n");
    }
  }
  if (Rss > 0)
    OS << "Peak RSS: " << formatBytes(Rss) << "\n";
  OS << "Trace events: " << NumEvents << " recorded, " << Dropped
     << " dropped\n";
}

std::string Telemetry::reportString(bool Json) const {
  std::ostringstream OS;
  writeReport(OS, Json);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

TraceSpan::TraceSpan(const char *Category, std::string Name)
    : Category(Category), Name(std::move(Name)), Emit(enabled()) {
  if (Emit)
    StartUs = Telemetry::instance().nowUs();
}

TraceSpan::~TraceSpan() {
  if (!Emit)
    return;
  Telemetry &T = Telemetry::instance();
  double Seconds = (T.nowUs() - StartUs) * 1e-6;
  RequestContext *Ctx = CurrentRequest;
  if (Ctx && Ctx->Spans.size() < RequestContext::kMaxSpans)
    Ctx->Spans.emplace_back(Name, Seconds);
  TraceEvent E;
  E.Name = Name;
  E.Category = Category;
  E.Phase = 'X';
  E.TsUs = StartUs;
  E.DurUs = Seconds * 1e6;
  if (Ctx)
    E.Id = Ctx->TraceId;
  T.addEvent(std::move(E));
  T.accumulatePhase(Name, Seconds);
}

void FheOpSpan::begin(Counter BeginOp, size_t BeginNumQ, double Scale,
                      double Budget) {
  Active = true;
  Op = BeginOp;
  NumQ = static_cast<int>(BeginNumQ);
  Log2Scale = Scale > 0.0 ? std::log2(Scale)
                          : std::numeric_limits<double>::quiet_NaN();
  NoiseBudgetBits = Budget;
  Telemetry &T = Telemetry::instance();
  T.count(Op);
  StartUs = T.nowUs();
}

FheOpSpan::~FheOpSpan() {
  if (!Active)
    return;
  Telemetry &T = Telemetry::instance();
  double EndUs = T.nowUs();
  double DurUs = EndUs - StartUs;
  T.opLatency(Op).recordNanos(
      DurUs > 0.0 ? static_cast<uint64_t>(DurUs * 1e3) : 0);
  RequestContext *Ctx = CurrentRequest;
  if (Ctx && std::isfinite(NoiseBudgetBits)) {
    Ctx->MinNoiseBudgetBits =
        std::min(Ctx->MinNoiseBudgetBits, NoiseBudgetBits);
    Ctx->SawHealth = true;
  }
  TraceEvent E;
  E.Name = counterName(Op);
  E.Category = "fhe";
  E.Phase = 'X';
  E.TsUs = StartUs;
  E.DurUs = DurUs;
  E.Level = NumQ;
  E.Log2Scale = Log2Scale;
  E.NoiseBudgetBits = NoiseBudgetBits;
  if (Ctx)
    E.Id = Ctx->TraceId;
  T.addEvent(std::move(E));
  T.recordHealth(Op, NumQ, Log2Scale, NoiseBudgetBits);
}

// The one initializer of the process-start settings (support/Env.h). It
// sits here because every runtime binary links this file:
// telemetry::enabled() reads its flag.
[[maybe_unused]] static const bool StartupSettingsApplied =
    (env::applyStartupSettings(), true);
