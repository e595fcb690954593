//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared types of the repository benchmark (see perfbench/README.md):
/// the options one invocation runs under, the metrics it reports, and
/// the two workloads.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One named measurement with its unit.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// What one invocation was asked to do.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  /// Timed seconds of the measurement loop.
  double Seconds = 10.0;
  /// When nonzero, each timed phase runs exactly this many requests
  /// instead of running for Seconds (the self-test's short mode).
  uint64_t Requests = 0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool Trace = false;
  /// Where the traced run writes its Chrome trace ("" = nowhere).
  std::string TracePath;
};

/// What one invocation measured.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Checked requests whose decision (argmax) differs from the
  /// reference's, within the stated precision bound.
  uint64_t DecisionFlips = 0;
  /// Fingerprint of the run's generated inputs.
  uint64_t InputDigest = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced).
  std::vector<Metric> Metrics;
  /// Diagnostics of the first few failures.
  std::vector<std::string> Failures;

  void fail(std::string Why);
};

/// Quantile \p Q in [0, 1] by linear interpolation between order
/// statistics (0 for an empty sample).
double quantile(std::vector<double> Values, double Q);
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

RunResult runMlpInfer(const RunOptions &Opt);
RunResult runMlpServe(const RunOptions &Opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
