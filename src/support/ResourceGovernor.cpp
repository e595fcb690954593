//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "support/ResourceGovernor.h"

#include "support/Env.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace ace {

const char *memCategoryName(MemCategory Category) {
  switch (Category) {
  case MemCategory::LimbPool:
    return "limb_pool";
  case MemCategory::EvalKeys:
    return "eval_keys";
  case MemCategory::Sessions:
    return "sessions";
  case MemCategory::Other:
    return "other";
  case MemCategory::CategoryCount:
    break;
  }
  return "unknown";
}

size_t GovernorStats::remainingBytes() const {
  if (BudgetBytes == 0)
    return SIZE_MAX;
  size_t Total = totalChargedBytes();
  return Total >= BudgetBytes ? 0 : BudgetBytes - Total;
}

ResourceGovernor &ResourceGovernor::instance() {
  // Leaked, never destroyed: consumers release charges during static
  // teardown.
  static ResourceGovernor *Gov = new ResourceGovernor();
  return *Gov;
}

ResourceGovernor::ResourceGovernor() {
  for (auto &C : Charged)
    C.store(0, std::memory_order_relaxed);
  env::read(env::Setting::MemoryBudget, [this](const char *V) {
    size_t Bytes = 0;
    if (!parseByteSize(V, Bytes))
      return false;
    setBudgetBytes(Bytes);
    return true;
  });
}

void ResourceGovernor::setBudgetBytes(size_t Bytes) {
  Budget.store(Bytes, std::memory_order_relaxed);
}

void ResourceGovernor::charge(MemCategory Category, size_t Bytes) {
  Charged[static_cast<size_t>(Category)].fetch_add(Bytes,
                                                   std::memory_order_relaxed);
}

void ResourceGovernor::release(MemCategory Category, size_t Bytes) {
  auto &Gauge = Charged[static_cast<size_t>(Category)];
  size_t Cur = Gauge.load(std::memory_order_relaxed);
  while (true) {
    size_t Next = Cur >= Bytes ? Cur - Bytes : 0;
    if (Gauge.compare_exchange_weak(Cur, Next, std::memory_order_relaxed))
      return;
  }
}

size_t ResourceGovernor::totalCharged() const {
  size_t Total = 0;
  for (const auto &C : Charged)
    Total += C.load(std::memory_order_relaxed);
  return Total;
}

Status ResourceGovernor::admit(size_t Bytes, const std::string &What) {
  const size_t Limit = Budget.load(std::memory_order_relaxed);
  bool Injected = false;
  if (FaultInjector::instance().enabled() &&
      FaultInjector::instance().shouldFire(FaultKind::BudgetExceeded))
    Injected = true;

  if (!Injected) {
    if (Limit == 0 || totalCharged() + Bytes <= Limit)
      return Status::success();
    // Over budget: ask reclaimers for the shortfall, then recheck.
    size_t Total = totalCharged();
    size_t Need = Total + Bytes > Limit ? Total + Bytes - Limit : 0;
    reclaim(Need);
    if (totalCharged() + Bytes <= Limit)
      return Status::success();
  } else {
    // The injected path still exercises reclaim so tests cover the full
    // degradation sequence, then sheds unconditionally.
    reclaim(Bytes);
  }

  Sheds.fetch_add(1, std::memory_order_relaxed);
  return Status::resourceExhausted(
      What + ": memory budget exceeded (" + std::to_string(Bytes) +
      " bytes requested, " + std::to_string(totalCharged()) + " of " +
      std::to_string(Limit) + " charged" +
      (Injected ? ", injected fault)" : ")"));
}

size_t ResourceGovernor::reclaim(size_t WantBytes) {
  // The shared invoke lock spans the snapshot AND every callback:
  // removeReclaimer acquires it exclusively after erasing, so a consumer
  // tearing down (e.g. ~RotationKeyCache on closeSession) cannot free
  // its state while a concurrent pass still holds a snapshotted copy of
  // its callback. Taken BEFORE snapshotting — a snapshot made outside
  // the lock could otherwise be invoked after removal completes.
  std::shared_lock<std::shared_mutex> Invoke(InvokeMutex);
  std::vector<Reclaimer> Snapshot;
  {
    std::lock_guard<std::mutex> Lock(ReclaimerMutex);
    Snapshot = Reclaimers;
  }
  size_t Got = 0;
  for (const Reclaimer &R : Snapshot) {
    if (Got >= WantBytes)
      break;
    Got += R.Fn(WantBytes - Got);
  }
  if (Got)
    ReclaimedBytes.fetch_add(Got, std::memory_order_relaxed);
  return Got;
}

uint64_t ResourceGovernor::addReclaimer(int Priority, std::string Name,
                                        ReclaimFn Fn) {
  std::lock_guard<std::mutex> Lock(ReclaimerMutex);
  uint64_t Id = NextReclaimerId++;
  Reclaimers.push_back({Id, Priority, std::move(Name), std::move(Fn)});
  std::stable_sort(Reclaimers.begin(), Reclaimers.end(),
                   [](const Reclaimer &A, const Reclaimer &B) {
                     return A.Priority < B.Priority;
                   });
  return Id;
}

void ResourceGovernor::removeReclaimer(uint64_t Id) {
  {
    std::lock_guard<std::mutex> Lock(ReclaimerMutex);
    Reclaimers.erase(std::remove_if(Reclaimers.begin(), Reclaimers.end(),
                                    [Id](const Reclaimer &R) {
                                      return R.Id == Id;
                                    }),
                     Reclaimers.end());
  }
  // Drain in-flight reclaim passes: any pass that snapshotted this
  // reclaimer holds InvokeMutex shared for its whole run, so once the
  // exclusive lock is granted no snapshot can still call the callback
  // and the caller may free its captured state.
  std::unique_lock<std::shared_mutex> Drain(InvokeMutex);
}

GovernorStats ResourceGovernor::stats() const {
  GovernorStats S;
  S.BudgetBytes = Budget.load(std::memory_order_relaxed);
  for (size_t I = 0; I < static_cast<size_t>(MemCategory::CategoryCount); ++I)
    S.ChargedBytes[I] = Charged[I].load(std::memory_order_relaxed);
  S.Sheds = Sheds.load(std::memory_order_relaxed);
  S.ReclaimedBytes = ReclaimedBytes.load(std::memory_order_relaxed);
  S.KeyCacheHits = CacheHits.load(std::memory_order_relaxed);
  S.KeyCacheMisses = CacheMisses.load(std::memory_order_relaxed);
  S.KeyCacheEvictions = CacheEvictions.load(std::memory_order_relaxed);
  return S;
}

void ResourceGovernor::resetCounters() {
  Sheds.store(0, std::memory_order_relaxed);
  ReclaimedBytes.store(0, std::memory_order_relaxed);
  CacheHits.store(0, std::memory_order_relaxed);
  CacheMisses.store(0, std::memory_order_relaxed);
  CacheEvictions.store(0, std::memory_order_relaxed);
}

bool parseByteSize(const std::string &Text, size_t &OutBytes) {
  // strtoull silently wraps negatives; require a leading digit.
  if (Text.empty() || Text[0] < '0' || Text[0] > '9')
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long Value = std::strtoull(Text.c_str(), &End, 10);
  if (End == Text.c_str())
    return false;
  size_t Mult = 1;
  if (*End) {
    switch (*End) {
    case 'k':
    case 'K':
      Mult = 1ull << 10;
      break;
    case 'm':
    case 'M':
      Mult = 1ull << 20;
      break;
    case 'g':
    case 'G':
      Mult = 1ull << 30;
      break;
    default:
      return false;
    }
    if (*(End + 1))
      return false;
  }
  // Reject anything that would wrap: a budget like "17179869184g" must
  // fail loudly, not silently truncate to a tiny (or 0 = unlimited)
  // value. Errno catches inputs strtoull itself clamped to ULLONG_MAX.
  if (errno == ERANGE || Value > SIZE_MAX / Mult)
    return false;
  OutBytes = static_cast<size_t>(Value) * Mult;
  return true;
}

} // namespace ace
