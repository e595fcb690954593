//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide fault-injection harness for robustness testing. The FHE
/// runtime consults the injector at well-defined hook points (ciphertext
/// construction, key lookup, checked-operation entry) and, when a fault is
/// armed, corrupts metadata or simulates a missing resource. Property
/// tests then assert that every injected fault surfaces as a clean
/// ace::Status error - never undefined behavior, never a silently wrong
/// result - including in release (-DNDEBUG) builds where asserts vanish.
///
/// Faults are armed programmatically (FaultInjector::instance().arm(...))
/// or from the ACE_FAULT_INJECT environment variable, a comma-separated
/// list of `kind[:count[:skip]]` specs, e.g.
///
///   ACE_FAULT_INJECT="scale-drift,drop-galois-key:2:1"
///
/// arms one scale drift plus two Galois-key drops starting at the second
/// key lookup. This layer is deliberately scheme-agnostic: it only counts
/// and answers "should this fault fire now?"; the FHE layer decides what
/// the fault concretely does.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_SUPPORT_FAULTINJECTOR_H
#define ACE_SUPPORT_FAULTINJECTOR_H

#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>

namespace ace {

/// The injectable fault classes the runtime implements.
enum class FaultKind : unsigned {
  /// Drift a freshly produced ciphertext's scale metadata by ~5%.
  ScaleDrift = 0,
  /// Corrupt a freshly produced ciphertext's slot count.
  SlotCorrupt,
  /// Truncate the prime chain of one polynomial of a fresh ciphertext,
  /// leaving its components inconsistent.
  TruncateChain,
  /// Pretend the Galois/rotation key for a lookup is absent.
  DropGaloisKey,
  /// Pretend the relinearization key is absent.
  DropRelinKey,
  /// Simulate an allocation failure at a checked-operation entry.
  AllocFail,
  /// Truncate a wire-format payload while it is read from a stream
  /// (serializer load paths; see docs/serialization.md).
  ShortRead,
  /// Fail a wire-format write mid-stream (serializer save paths).
  ShortWrite,
  /// Flip bits in a wire-format checksum as it is written, so the next
  /// load of those bytes must fail CRC verification.
  ChecksumCorrupt,
  /// Pretend the memory budget is exhausted at a ResourceGovernor
  /// admission point, forcing the eviction/shed path without needing a
  /// real tight budget.
  BudgetExceeded,
  KindCount,
};

/// Stable spec name of \p Kind ("scale-drift", ...).
const char *faultKindName(FaultKind Kind);

/// Process-wide singleton; thread-safe. All counters are per-kind.
class FaultInjector {
public:
  /// The singleton. On first access, arms any faults requested via the
  /// ACE_FAULT_INJECT environment variable.
  static FaultInjector &instance();

  /// Arms \p Kind to fire \p Count times (-1 = unlimited), skipping the
  /// first \p SkipFirst hook hits.
  void arm(FaultKind Kind, int Count = 1, int SkipFirst = 0);

  /// Disarms \p Kind without clearing its fired counter.
  void disarm(FaultKind Kind);

  /// Disarms everything and zeroes all counters.
  void reset();

  /// Cheap global gate for hook sites: false when nothing is armed.
  bool enabled() const { return AnyArmed.load(std::memory_order_relaxed); }

  /// Consumes one firing of \p Kind: true when the hook site must inject
  /// the fault now. Honors skip counts and remaining-fire budgets.
  bool shouldFire(FaultKind Kind);

  /// Number of times \p Kind actually fired since the last reset().
  size_t firedCount(FaultKind Kind) const;

  /// Parses and arms a spec string (`kind[:count[:skip]]`, comma
  /// separated). Returns false, arming nothing, on a malformed spec or
  /// an unknown kind name anywhere in the list.
  bool configure(const std::string &Spec);

private:
  FaultInjector();

  struct Slot {
    bool Armed = false;
    int Skip = 0;
    int Remaining = 0; // -1 = unlimited
    size_t Fired = 0;
  };

  void recomputeAnyArmed();

  mutable std::mutex Mutex;
  std::array<Slot, static_cast<size_t>(FaultKind::KindCount)> Slots;
  std::atomic<bool> AnyArmed{false};
};

} // namespace ace

#endif // ACE_SUPPORT_FAULTINJECTOR_H
