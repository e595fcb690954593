//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer metrics. The benchmark wraps every call it
/// makes into a module in a "bench" telemetry span named after the
/// module ("codegen.run", "service.submit", ...); the program's own
/// spans (compiler phases, executor regions, bootstrap stages, FHE ops)
/// nest inside them. All spans of one request carry its trace id, so
/// summing span time per (request, category/name) gives each layer's
/// time per request. Counts come from the telemetry counters each
/// request's RequestContext accumulated.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERTRACE_H
#define PERFBENCH_LAYERTRACE_H

#include "Bench.h"

#include "support/Telemetry.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Span seconds per request and per span key ("category/name"), folded
/// from the telemetry event buffer.
class LayerTrace {
public:
  /// Clears every telemetry record and turns recording on: what is
  /// collected afterwards belongs to this trace alone.
  static void start();

  /// Folds every complete span recorded since start(). Fails when the
  /// telemetry buffer dropped events, since sums would then be short.
  ace::Status collect();

  /// Per id in \p Ids, the summed seconds of spans with key \p Key
  /// (0 where the request has none).
  std::vector<double> perRequest(const std::vector<uint64_t> &Ids,
                                 const std::string &Key) const;
  /// The seconds of each single span with key \p Key.
  const std::vector<double> &spans(const std::string &Key) const;
  bool has(const std::string &Key) const { return Single.count(Key) != 0; }

private:
  std::map<uint64_t, std::map<std::string, double>> PerId;
  std::map<std::string, std::vector<double>> Single;
};

/// Compile-time figures of one compile of the MLP.
struct CompileFigures {
  double CkksNodes = 0, Bootstraps = 0, Rescales = 0, Relins = 0,
         Rotations = 0, RotationKeys = 0;
};

/// Everything the per-layer metrics derive from. A workload fills what
/// it exercises; a bypassed layer's metrics read 0.
struct LayerInputs {
  /// Trace ids of the traced timed requests, and each one's op counts.
  std::vector<uint64_t> Requests;
  std::vector<ace::telemetry::CounterSnapshot> RequestOps;
  /// Trace ids whose spans hold one compile sample each.
  std::vector<uint64_t> CompileSamples;
  CompileFigures Compile;
  /// Service stage times of each traced request.
  std::vector<double> QueueSeconds, ExecSeconds;
  double KeyCacheLookups = 0, KeyCacheHits = 0, KeyCacheMiB = 0;
  double ServiceRejected = 0, ServiceFailed = 0;
  /// Support-layer counts over the traced phase.
  double LimbPoolMisses = 0, ParallelFors = 0, GovernorChargedMiB = 0;
  /// Median latency of the untraced and the traced phase.
  double UntracedP50 = 0, TracedP50 = 0;
};

/// The full per-layer metric list, in a fixed order and with units.
std::vector<Metric> layerMetrics(const LayerTrace &Trace,
                                 const LayerInputs &In);

} // namespace perfbench

#endif // PERFBENCH_LAYERTRACE_H
