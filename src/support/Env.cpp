//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "support/Env.h"

#include "support/EventLog.h"
#include "support/MetricsRegistry.h"
#include "support/Telemetry.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <strings.h>

using namespace ace;
using namespace ace::env;

namespace {

/// One row per Setting; scripts/check_docs.py checks that the
/// docs/architecture.md table lists exactly these names.
constexpr struct {
  const char *Name;
  const char *Want; ///< the accepted values, for the warning
} Table[] = {
    {"ACE_THREADS", "a positive integer"},
    {"ACE_POLY_BACKEND", "scalar|simd|auto; simd needs an AVX2 or NEON host"},
    {"ACE_LIMB_POOL", "1|0|on|off|true|false"},
    {"ACE_MEMORY_BUDGET", "bytes with an optional k|m|g suffix"},
    {"ACE_FAULT_INJECT", "kind[:count[:skip]],..."},
    {"ACE_TRACE", "a file path"},
    {"ACE_TELEMETRY", "1|0|on|off|true|false"},
    {"ACE_METRICS", "a file path"},
    {"ACE_EVENT_LOG", "a writable file path"},
    {"ACE_SLOW_REQUEST_SECONDS", "a number of seconds >= 0"},
};
static_assert(std::size(Table) == static_cast<size_t>(Setting::Count));

std::atomic<bool> Warned[std::size(Table)] = {};

/// The exit writers' targets: leaked copies behind constant-initialized
/// pointers, valid whatever order static initialization runs in.
const char *TracePath = nullptr;
const char *MetricsPath = nullptr;

void reportFailure(const Status &S) {
  if (!S.ok())
    std::fprintf(stderr, "ace: %s\n", S.message().c_str());
}

} // namespace

const char *env::name(Setting S) {
  return Table[static_cast<size_t>(S)].Name;
}

bool env::read(Setting S, const std::function<bool(const char *)> &Apply) {
  const char *Value = std::getenv(name(S));
  if (!Value || !*Value)
    return false;
  if (Apply(Value))
    return true;
  if (!Warned[static_cast<size_t>(S)].exchange(true))
    std::fprintf(stderr, "ace: ignoring %s='%s' (want %s)\n", name(S), Value,
                 Table[static_cast<size_t>(S)].Want);
  return false;
}

size_t env::threadCount() {
  size_t N = 1;
  read(Setting::Threads, [&](const char *V) {
    char *End = nullptr;
    long Count = std::strtol(V, &End, 10);
    if (*End != '\0' || Count <= 0)
      return false;
    N = Count > 256 ? 256 : static_cast<size_t>(Count);
    return true;
  });
  return N;
}

bool env::readSwitch(Setting S, bool Default) {
  read(S, [&](const char *V) {
    const char *const Spellings[] = {"0", "1", "off", "on", "false", "true"};
    for (size_t I = 0; I < std::size(Spellings); ++I)
      if (strcasecmp(V, Spellings[I]) == 0) {
        Default = I % 2 == 1;
        return true;
      }
    return false;
  });
  return Default;
}

void env::applyStartupSettings() {
  using telemetry::Telemetry;
  read(Setting::Trace, [](const char *Path) {
    TracePath = strdup(Path);
    Telemetry::instance().setEnabled(true);
    std::atexit([] {
      reportFailure(Telemetry::instance().writeChromeTraceFile(TracePath));
    });
    return true;
  });
  if (readSwitch(Setting::Telemetry, false))
    Telemetry::instance().setEnabled(true);
  read(Setting::Metrics, [](const char *Path) {
    MetricsPath = strdup(Path);
    Telemetry::instance().setEnabled(true);
    std::atexit([] {
      reportFailure(
          metrics::MetricsRegistry::instance().writePrometheusFile(MetricsPath));
    });
    return true;
  });
  read(Setting::EventLog, [](const char *Path) {
    if (!obs::EventLog::instance().open(Path).ok())
      return false;
    Telemetry::instance().setEnabled(true);
    std::atexit([] { obs::EventLog::instance().close(); });
    return true;
  });
  read(Setting::SlowRequestSeconds, [](const char *V) {
    char *End = nullptr;
    double Seconds = std::strtod(V, &End);
    if (*End != '\0' || !std::isfinite(Seconds) || Seconds < 0.0)
      return false;
    obs::EventLog::instance().setSlowThresholdSeconds(Seconds);
    return true;
  });
}
