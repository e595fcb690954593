//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide memory governor (see docs/memory.md). Long-lived
/// consumers — the limb pool, per-session rotation-key caches, service
/// sessions — charge their resident bytes against a single optional hard
/// budget (ACE_MEMORY_BUDGET env, setBudgetBytes). Admission points call
/// admit() before growing; when a charge would exceed the budget the
/// governor first asks registered reclaimers (key caches evict cold keys,
/// the pool trims its free lists) to give memory back, and only if that
/// is not enough does the caller get Status::resourceExhausted —
/// degrading by shedding the incoming unit of work, never by crashing
/// in-flight work.
///
/// charge()/release() are pure accounting (never fail, release clamps at
/// zero); budget enforcement happens only at admit() call sites.
/// FaultKind::BudgetExceeded forces admit() down the reclaim/shed path
/// for testing without a real tight budget.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_SUPPORT_RESOURCEGOVERNOR_H
#define ACE_SUPPORT_RESOURCEGOVERNOR_H

#include "support/Status.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

namespace ace {

/// Accounting categories, each an independent gauge under the shared
/// budget.
enum class MemCategory : unsigned {
  LimbPool = 0, ///< limb-pool resident bytes (free lists + in use)
  EvalKeys,     ///< cached rotation/eval-key material
  Sessions,     ///< service session bookkeeping (executor graphs, frames)
  Other,
  CategoryCount,
};

/// Stable metric-label name of \p Category ("limb_pool", ...).
const char *memCategoryName(MemCategory Category);

/// Point-in-time governor statistics for metrics export.
struct GovernorStats {
  size_t BudgetBytes = 0; ///< 0 = unlimited
  size_t ChargedBytes[static_cast<size_t>(MemCategory::CategoryCount)] = {};
  uint64_t Sheds = 0;           ///< admissions refused after reclaim
  uint64_t ReclaimedBytes = 0;  ///< total bytes reclaimers gave back
  uint64_t KeyCacheHits = 0;    ///< aggregated across all key caches
  uint64_t KeyCacheMisses = 0;
  uint64_t KeyCacheEvictions = 0;
  size_t totalChargedBytes() const {
    size_t Total = 0;
    for (size_t C : ChargedBytes)
      Total += C;
    return Total;
  }
  /// Bytes left under the budget (SIZE_MAX when unlimited).
  size_t remainingBytes() const;
};

/// Process-wide singleton; thread-safe. Leaked at exit so charges
/// released during static teardown stay valid.
class ResourceGovernor {
public:
  /// The singleton. First access reads ACE_MEMORY_BUDGET through
  /// parseByteSize (support/Env.h; 0/unset = unlimited).
  static ResourceGovernor &instance();

  /// Sets the hard budget in bytes; 0 means unlimited. Takes effect at
  /// the next admit() — existing charges are never forcibly reclaimed.
  void setBudgetBytes(size_t Bytes);
  size_t budgetBytes() const {
    return Budget.load(std::memory_order_relaxed);
  }

  /// Records \p Bytes as resident under \p Category. Pure accounting:
  /// never fails, never blocks on reclaim.
  void charge(MemCategory Category, size_t Bytes);

  /// Returns \p Bytes previously charged under \p Category. Clamps at
  /// zero — a stray double-release can never drive a gauge negative.
  void release(MemCategory Category, size_t Bytes);

  /// Asks whether \p Bytes more may be charged. Under budget (or with no
  /// budget set): OK. Over budget: runs reclaimers in priority order
  /// until the charge fits, then rechecks; if still over, counts a shed
  /// and returns resourceExhausted naming \p What. Does NOT itself
  /// charge — the caller charges after acquiring the resource.
  /// FaultKind::BudgetExceeded forces the over-budget path once.
  Status admit(size_t Bytes, const std::string &What);

  /// Reclaimer callback: try to release up to WantBytes; return the
  /// bytes actually given back (the callee also calls release() for its
  /// category as usual).
  using ReclaimFn = std::function<size_t(size_t WantBytes)>;

  /// Registers a reclaimer; lower \p Priority runs first (key caches at
  /// 0, pool trim at 10). Returns an id for removeReclaimer. The
  /// callback may call charge/release; it must not call admit() or
  /// add/remove reclaimers (removeReclaimer from inside a callback
  /// self-deadlocks on the invoke lock).
  uint64_t addReclaimer(int Priority, std::string Name, ReclaimFn Fn);
  /// Unregisters \p Id and BLOCKS until every in-flight reclaim pass
  /// that may have snapshotted the callback has finished invoking it.
  /// On return the callback will never run again, so the caller can
  /// safely free any state it captured (this is what lets
  /// ~RotationKeyCache tear down while another thread is mid-admit()).
  void removeReclaimer(uint64_t Id);

  /// Aggregated key-cache telemetry: caches live in the fhe layer, the
  /// metrics exporter in support — caches push their counters here so
  /// the exporter needs no upward dependency.
  void noteKeyCacheHit() { CacheHits.fetch_add(1, std::memory_order_relaxed); }
  void noteKeyCacheMiss() {
    CacheMisses.fetch_add(1, std::memory_order_relaxed);
  }
  void noteKeyCacheEviction() {
    CacheEvictions.fetch_add(1, std::memory_order_relaxed);
  }

  GovernorStats stats() const;

  /// Zeroes shed/reclaim/key-cache counters (charges and the budget are
  /// live state and untouched). For tests and steady-state benches.
  void resetCounters();

private:
  ResourceGovernor();
  ResourceGovernor(const ResourceGovernor &) = delete;
  ResourceGovernor &operator=(const ResourceGovernor &) = delete;

  size_t totalCharged() const;
  /// Runs reclaimers until \p WantBytes have been given back or all are
  /// exhausted. Returns bytes reclaimed.
  size_t reclaim(size_t WantBytes);

  std::atomic<size_t> Budget{0};
  std::atomic<size_t> Charged[static_cast<size_t>(MemCategory::CategoryCount)];
  std::atomic<uint64_t> Sheds{0}, ReclaimedBytes{0};
  std::atomic<uint64_t> CacheHits{0}, CacheMisses{0}, CacheEvictions{0};

  struct Reclaimer {
    uint64_t Id;
    int Priority;
    std::string Name;
    ReclaimFn Fn;
  };
  mutable std::mutex ReclaimerMutex; ///< guards the list, not the calls
  /// Held shared across each reclaim pass (snapshot + callback calls),
  /// exclusively by removeReclaimer: removal synchronizes with in-flight
  /// invocations so a removed callback's state can be freed immediately.
  mutable std::shared_mutex InvokeMutex;
  std::vector<Reclaimer> Reclaimers; ///< kept sorted by Priority
  uint64_t NextReclaimerId = 1;
};

/// Parses a human-friendly byte size: a non-negative integer with an
/// optional k/K, m/M, or g/G suffix (binary multiples). Returns false on
/// malformed input. Exposed for ACE_MEMORY_BUDGET and flag parsing.
bool parseByteSize(const std::string &Text, size_t &OutBytes);

} // namespace ace

#endif // ACE_SUPPORT_RESOURCEGOVERNOR_H
