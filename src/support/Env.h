//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every ACE_* runtime setting (the table in docs/architecture.md §5).
/// This module alone reads the environment. For every variable a
/// programmatic call (the subsystem's setter, or its C API entry) beats
/// the environment, which beats the builtin default; a malformed value
/// prints `ace: ignoring ACE_X='v' (want ...)` once, keeps the default
/// and never aborts. Unset and empty mean the same.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_SUPPORT_ENV_H
#define ACE_SUPPORT_ENV_H

#include <cstddef>
#include <functional>

namespace ace {
namespace env {

/// The settings, in the order of Env.cpp's table of variable names.
enum class Setting : unsigned {
  Threads, PolyBackend, LimbPool, MemoryBudget, FaultInject,
  Trace, Telemetry, Metrics, EventLog, SlowRequestSeconds, Count
};

/// The variable name of \p S ("ACE_THREADS").
const char *name(Setting S);

/// Hands the value of \p S to \p Apply, the subsystem's strict parser or
/// setter, and returns true when Apply took it. Returns false when the
/// variable is unset, and when Apply rejects the value (which warns), so
/// the caller keeps its builtin default.
bool read(Setting S, const std::function<bool(const char *)> &Apply);

/// ACE_THREADS (a positive integer; above 256 clamps to 256), else 1
/// (serial): the pool reads it at first use and on setNumThreads(0).
size_t threadCount();

/// An on/off setting (ACE_LIMB_POOL, ACE_TELEMETRY): 1/0, on/off or
/// true/false in any case, else \p Default.
bool readSwitch(Setting S, bool Default);

/// Applies the process-start settings: ACE_TRACE, ACE_TELEMETRY,
/// ACE_METRICS, ACE_EVENT_LOG and ACE_SLOW_REQUEST_SECONDS. The one
/// caller is a static initializer in Telemetry.cpp, which every runtime
/// binary links.
void applyStartupSettings();

} // namespace env

} // namespace ace

#endif // ACE_SUPPORT_ENV_H
