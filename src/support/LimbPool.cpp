//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "support/LimbPool.h"

#include "support/Env.h"
#include "support/ResourceGovernor.h"

#include <cstring>

namespace ace {

LimbPool &LimbPool::instance() {
  // Leaked, never destroyed: RnsPoly values owned by statics may release
  // their storage after main() returns.
  static LimbPool *Pool = new LimbPool();
  return *Pool;
}

LimbPool::LimbPool()
    : Enabled(env::readSwitch(env::Setting::LimbPool, /*Default=*/true)) {
  // Priority 10: the governor drains cold rotation keys (priority 0)
  // before it gives back the free lists — parked limbs are cheap to
  // refill, but the pool can still cover a shortfall on its own.
  // Never removed; the pool outlives every reclaim (leaked singleton).
  ResourceGovernor::instance().addReclaimer(
      10, "limb-pool-trim", [this](size_t WantBytes) {
        size_t Free = FreeBytes.load(std::memory_order_relaxed);
        return trim(Free > WantBytes ? Free - WantBytes : 0);
      });
}

void LimbPool::setEnabled(bool On) {
  Enabled.store(On, std::memory_order_relaxed);
}

uint64_t *LimbPool::acquire(size_t Words, bool &FromPool) {
  const size_t Bytes = Words * sizeof(uint64_t);
  if (enabled()) {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      auto It = Bins.find(Words);
      if (It != Bins.end() && !It->second.empty()) {
        uint64_t *Ptr = It->second.back();
        It->second.pop_back();
        Hits.fetch_add(1, std::memory_order_relaxed);
        FreeBytes.fetch_sub(Bytes, std::memory_order_relaxed);
        addInUse(Bytes);
        FromPool = true;
        return Ptr;
      }
    }
    // Miss: a fresh heap block that will live in the pool from now on.
    Misses.fetch_add(1, std::memory_order_relaxed);
    ResourceGovernor::instance().charge(MemCategory::LimbPool, Bytes);
    addInUse(Bytes);
    FromPool = true;
    return new uint64_t[Words];
  }
  // Bypass mode: plain heap allocation. Still counted as a miss so the
  // pool-off baseline of the allocations/op bench reads from the same
  // counter.
  Misses.fetch_add(1, std::memory_order_relaxed);
  FromPool = false;
  return new uint64_t[Words];
}

void LimbPool::release(uint64_t *Ptr, size_t Words, bool FromPool) {
  if (!Ptr)
    return;
  if (!FromPool) {
    delete[] Ptr;
    return;
  }
  const size_t Bytes = Words * sizeof(uint64_t);
  InUseBytes.fetch_sub(Bytes, std::memory_order_relaxed);
  FreeBytes.fetch_add(Bytes, std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(Mutex);
  Bins[Words].push_back(Ptr);
}

void LimbPool::lend(size_t Bytes) {
  InUseBytes.fetch_sub(Bytes, std::memory_order_relaxed);
  ResourceGovernor::instance().release(MemCategory::LimbPool, Bytes);
}

void LimbPool::unlend(size_t Bytes) {
  addInUse(Bytes);
  ResourceGovernor::instance().charge(MemCategory::LimbPool, Bytes);
}

void LimbPool::addInUse(size_t Bytes) {
  size_t InUse =
      InUseBytes.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
  size_t Peak = PeakInUseBytes.load(std::memory_order_relaxed);
  while (InUse > Peak && !PeakInUseBytes.compare_exchange_weak(
                             Peak, InUse, std::memory_order_relaxed))
    ;
}

size_t LimbPool::trim(size_t TargetFreeBytes) {
  size_t Released = 0;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (auto &Bin : Bins) {
      const size_t BinBytes = Bin.first * sizeof(uint64_t);
      while (!Bin.second.empty() &&
             FreeBytes.load(std::memory_order_relaxed) > TargetFreeBytes) {
        delete[] Bin.second.back();
        Bin.second.pop_back();
        FreeBytes.fetch_sub(BinBytes, std::memory_order_relaxed);
        Released += BinBytes;
        Trims.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (Released)
    ResourceGovernor::instance().release(MemCategory::LimbPool, Released);
  return Released;
}

LimbPoolStats LimbPool::stats() const {
  LimbPoolStats S;
  S.Hits = Hits.load(std::memory_order_relaxed);
  S.Misses = Misses.load(std::memory_order_relaxed);
  S.Trims = Trims.load(std::memory_order_relaxed);
  S.FreeBytes = FreeBytes.load(std::memory_order_relaxed);
  S.InUseBytes = InUseBytes.load(std::memory_order_relaxed);
  S.PeakInUseBytes = PeakInUseBytes.load(std::memory_order_relaxed);
  return S;
}

void LimbPool::resetCounters() {
  Hits.store(0, std::memory_order_relaxed);
  Misses.store(0, std::memory_order_relaxed);
  Trims.store(0, std::memory_order_relaxed);
  PeakInUseBytes.store(InUseBytes.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
}

void LimbStorage::assignZero(size_t Words) {
  if (Cap < Words) {
    reset();
    Ptr = LimbPool::instance().acquire(Words, FromPool);
    Cap = Words;
  }
  Size = Words;
  if (Words)
    std::memset(Ptr, 0, Words * sizeof(uint64_t));
}

void LimbStorage::shrinkTo(size_t Words) {
  if (Words < Size)
    Size = Words;
}

void LimbStorage::reset() {
  if (Ptr)
    LimbPool::instance().release(Ptr, Cap, FromPool);
  Ptr = nullptr;
  Size = Cap = 0;
}

void LimbStorage::copyFrom(const LimbStorage &O) {
  if (Cap < O.Size) {
    reset();
    if (O.Size) {
      Ptr = LimbPool::instance().acquire(O.Size, FromPool);
      Cap = O.Size;
    }
  }
  Size = O.Size;
  if (Size)
    std::memcpy(Ptr, O.Ptr, Size * sizeof(uint64_t));
}

} // namespace ace
