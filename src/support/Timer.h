//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock timing utilities. WallTimer is a stopwatch; TimingRegistry
/// is the phase table behind Telemetry::phaseSeconds, which accumulates
/// the span times of the Figure 5 per-IR compile-time breakdown and the
/// Figure 6 Conv/Bootstrap/ReLU breakdown.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_SUPPORT_TIMER_H
#define ACE_SUPPORT_TIMER_H

#include <chrono>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ace {

/// Simple wall-clock stopwatch.
class WallTimer {
public:
  WallTimer() { reset(); }

  /// Restarts the stopwatch.
  void reset() { Start = std::chrono::steady_clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    auto Now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(Now - Start).count();
  }

private:
  std::chrono::steady_clock::time_point Start;
};

/// Accumulates wall time per named phase, preserving first-seen order.
class TimingRegistry {
public:
  /// Adds \p Seconds to the accumulator for \p Phase.
  void add(const std::string &Phase, double Seconds);

  /// Accumulated seconds for \p Phase (0 when never recorded).
  double get(const std::string &Phase) const;

  /// Sum over all phases.
  double total() const;

  /// All (phase, seconds) pairs in first-seen order.
  const std::vector<std::pair<std::string, double>> &entries() const {
    return Entries;
  }

  /// Drops all recorded data.
  void clear() {
    Entries.clear();
    Index.clear();
  }

private:
  std::vector<std::pair<std::string, double>> Entries;
  /// Phase name -> position in Entries, so add()/get() are O(1) amortized
  /// while Entries keeps first-seen order for reporting.
  std::unordered_map<std::string, size_t> Index;
};

} // namespace ace

#endif // ACE_SUPPORT_TIMER_H
