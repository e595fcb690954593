//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "support/EventLog.h"

#include <cmath>
#include <cstdio>
#include <mutex>
#include <sstream>

using namespace ace;
using namespace ace::obs;

namespace {

/// Default line cap: a million request records bound the file to low
/// hundreds of MB; overflow is counted, mirroring the trace buffer.
constexpr uint64_t kDefaultMaxRecords = uint64_t(1) << 20;

void appendHex(std::string &Out, uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "\"0x%016llx\"",
                static_cast<unsigned long long>(V));
  Out += Buf;
}

void appendSeconds(std::string &Out, const char *Key, double S) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), ",\"%s\":%.6f", Key, S);
  Out += Buf;
}

} // namespace

struct EventLog::Impl {
  std::mutex Mutex;
  std::FILE *File = nullptr;
  double SlowThresholdSeconds = 0.0;
  uint64_t MaxRecords = kDefaultMaxRecords;
  uint64_t Written = 0;
  uint64_t Dropped = 0;
};

EventLog::EventLog() : P(new Impl) {}

EventLog &EventLog::instance() {
  static EventLog *L = new EventLog(); // leaked: see header
  return *L;
}

Status EventLog::open(const std::string &Path) {
  std::lock_guard<std::mutex> Lock(P->Mutex);
  if (P->File) {
    std::fclose(P->File);
    P->File = nullptr;
  }
  P->File = std::fopen(Path.c_str(), "w");
  if (!P->File) {
    Enabled.store(false, std::memory_order_relaxed);
    return Status::ioError("event log: cannot open '" + Path +
                           "' for writing");
  }
  P->Written = 0;
  P->Dropped = 0;
  Enabled.store(true, std::memory_order_relaxed);
  return Status::success();
}

void EventLog::close() {
  std::lock_guard<std::mutex> Lock(P->Mutex);
  Enabled.store(false, std::memory_order_relaxed);
  if (P->File) {
    std::fclose(P->File);
    P->File = nullptr;
  }
}

void EventLog::setSlowThresholdSeconds(double S) {
  std::lock_guard<std::mutex> Lock(P->Mutex);
  P->SlowThresholdSeconds = S;
}

double EventLog::slowThresholdSeconds() const {
  std::lock_guard<std::mutex> Lock(P->Mutex);
  return P->SlowThresholdSeconds;
}

void EventLog::setMaxRecords(uint64_t N) {
  std::lock_guard<std::mutex> Lock(P->Mutex);
  P->MaxRecords = N;
}

uint64_t EventLog::writtenCount() const {
  std::lock_guard<std::mutex> Lock(P->Mutex);
  return P->Written;
}

uint64_t EventLog::droppedCount() const {
  std::lock_guard<std::mutex> Lock(P->Mutex);
  return P->Dropped;
}

std::string EventLog::renderLine(const RequestLogEntry &E, bool Slow) {
  std::string Out;
  Out.reserve(256);
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "{\"ts\":%.6f,\"event\":\"request\"",
                telemetry::Telemetry::instance().nowUs() * 1e-6);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), ",\"session\":%llu",
                static_cast<unsigned long long>(E.SessionId));
  Out += Buf;
  Out += ",\"trace_id\":";
  appendHex(Out, E.TraceId);
  std::snprintf(Buf, sizeof(Buf), ",\"request\":%llu,\"client_tag\":%llu",
                static_cast<unsigned long long>(E.RequestId),
                static_cast<unsigned long long>(E.ClientTag));
  Out += Buf;
  Out += ",\"status\":\"";
  Out += telemetry::jsonEscape(E.StatusName);
  Out += "\"";
  if (E.QueueSeconds >= 0)
    appendSeconds(Out, "queue_s", E.QueueSeconds);
  if (E.ExecSeconds >= 0)
    appendSeconds(Out, "exec_s", E.ExecSeconds);
  if (E.TotalSeconds >= 0)
    appendSeconds(Out, "total_s", E.TotalSeconds);
  Out += ",\"ops\":{";
  bool First = true;
  for (size_t I = 0; I < telemetry::kCounterCount; ++I) {
    if (E.OpDelta.Values[I] == 0)
      continue;
    if (!First)
      Out += ",";
    First = false;
    Out += "\"";
    Out += telemetry::counterName(static_cast<telemetry::Counter>(I));
    std::snprintf(Buf, sizeof(Buf), "\":%llu",
                  static_cast<unsigned long long>(E.OpDelta.Values[I]));
    Out += Buf;
  }
  Out += "}";
  if (E.HasMinNoiseBudget && std::isfinite(E.MinNoiseBudgetBits)) {
    std::snprintf(Buf, sizeof(Buf), ",\"min_noise_budget_bits\":%.2f",
                  E.MinNoiseBudgetBits);
    Out += Buf;
  }
  if (Slow) {
    // The slow-request dump: the request's own span breakdown plus the
    // process ciphertext-health snapshot at completion time. Spans are
    // aggregated by name (total seconds + invocation count) so repeated
    // ops render as one JSON key, not duplicates a parser would drop.
    std::vector<std::pair<std::string, std::pair<double, uint64_t>>> Agg;
    for (const auto &[Name, Seconds] : E.Spans) {
      auto It = Agg.begin();
      for (; It != Agg.end(); ++It)
        if (It->first == Name)
          break;
      if (It == Agg.end())
        Agg.push_back({Name, {Seconds, 1}});
      else {
        It->second.first += Seconds;
        ++It->second.second;
      }
    }
    Out += ",\"slow\":true,\"spans\":{";
    First = true;
    for (const auto &[Name, Tot] : Agg) {
      if (!First)
        Out += ",";
      First = false;
      Out += "\"";
      Out += telemetry::jsonEscape(Name);
      std::snprintf(Buf, sizeof(Buf),
                    "\":{\"seconds\":%.6f,\"count\":%llu}", Tot.first,
                    static_cast<unsigned long long>(Tot.second));
      Out += Buf;
    }
    Out += "},\"health\":{";
    First = true;
    for (const auto &[Op, H] :
         telemetry::Telemetry::instance().health()) {
      if (!First)
        Out += ",";
      First = false;
      Out += "\"";
      Out += telemetry::counterName(Op);
      std::snprintf(Buf, sizeof(Buf),
                    "\":{\"count\":%llu,\"minLevel\":%d,\"maxLevel\":%d",
                    static_cast<unsigned long long>(H.Count), H.MinLevel,
                    H.MaxLevel);
      Out += Buf;
      if (std::isfinite(H.MinNoiseBudgetBits)) {
        std::snprintf(Buf, sizeof(Buf), ",\"minNoiseBudgetBits\":%.2f",
                      H.MinNoiseBudgetBits);
        Out += Buf;
      }
      Out += "}";
    }
    Out += "}";
  }
  Out += "}\n";
  return Out;
}

void EventLog::record(const RequestLogEntry &E) {
  if (!enabled())
    return;
  // Render outside the lock: only the slow check, the cap check, and
  // the write serialize.
  double Threshold;
  {
    std::lock_guard<std::mutex> Lock(P->Mutex);
    Threshold = P->SlowThresholdSeconds;
  }
  bool Slow = Threshold > 0.0 && E.TotalSeconds >= Threshold;
  std::string Line = renderLine(E, Slow);
  std::lock_guard<std::mutex> Lock(P->Mutex);
  if (!P->File)
    return;
  if (P->Written >= P->MaxRecords) {
    ++P->Dropped;
    return;
  }
  std::fwrite(Line.data(), 1, Line.size(), P->File);
  std::fflush(P->File);
  ++P->Written;
}
