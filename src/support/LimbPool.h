//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe free-list pool for RNS limb storage (see docs/memory.md).
/// Every evaluator operation builds and drops several RnsPoly values; at a
/// fixed parameter set their residue buffers come in a handful of exact
/// sizes (degree x component count), so a resident server that recycles
/// them stops hitting the heap allocator in steady state. Blocks are
/// binned by exact word count; a miss allocates from the heap and charges
/// the process ResourceGovernor (MemCategory::LimbPool), a release parks
/// the block on its bin for the next acquire.
///
/// The pool can be bypassed (every acquire goes straight to the heap) with
/// ACE_LIMB_POOL=off or LimbPool::setEnabled(false) - the differential
/// tests prove pooled and bypassed runs produce bit-identical ciphertexts.
/// Each block remembers its provenance, so flipping the switch with blocks
/// outstanding is safe: pooled blocks return to the pool, heap blocks to
/// the heap.
///
/// A holder that charges a pooled block to its own governor category
/// takes the block's bytes out of the limb_pool charge with lend() and
/// hands them back with unlend() when it stops charging them. The
/// rotation-key cache does this for every resident key, so a key is
/// charged once, to eval_keys, while its blocks still recycle through
/// the pool.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_SUPPORT_LIMBPOOL_H
#define ACE_SUPPORT_LIMBPOOL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace ace {

/// Point-in-time pool statistics. Hits + Misses = total acquires; the
/// miss count doubles as the steady-state heap-allocation counter the
/// Figure 7 bench reports as allocations/op.
struct LimbPoolStats {
  uint64_t Hits = 0;      ///< acquires served from a free list
  uint64_t Misses = 0;    ///< acquires that hit the heap allocator
  uint64_t Trims = 0;     ///< blocks returned to the heap by trim()
  size_t FreeBytes = 0;   ///< bytes parked on free lists
  size_t InUseBytes = 0;  ///< bytes acquired by live storages, not lent
  /// High-water mark of InUseBytes since the last resetCounters(): the
  /// largest working set the pool has served.
  size_t PeakInUseBytes = 0;
  /// Bytes the pool holds against the process (free + in use); what the
  /// governor sees charged under MemCategory::LimbPool while enabled.
  size_t residentBytes() const { return FreeBytes + InUseBytes; }
};

/// Process-wide singleton; thread-safe. Leaked at exit (like the metrics
/// registry) so storages destroyed during static teardown stay valid.
class LimbPool {
public:
  /// The singleton. First access reads ACE_LIMB_POOL (support/Env.h;
  /// unset = on).
  static LimbPool &instance();

  /// True when acquires are served from the free lists. Bypass mode
  /// (false) routes every acquire to the heap - the differential-testing
  /// switch.
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Flips pool mode. Safe with blocks outstanding (each remembers its
  /// provenance). Disabling does not trim already-parked blocks; call
  /// trim() for that.
  void setEnabled(bool On);

  /// Returns a block of at least \p Words uint64 words, uninitialized.
  /// \p FromPool receives the provenance the caller must hand back to
  /// release(). Never returns nullptr (a true OOM aborts via new[]).
  uint64_t *acquire(size_t Words, bool &FromPool);

  /// Returns \p Ptr (of bin size \p Words, provenance \p FromPool) to the
  /// pool or the heap.
  void release(uint64_t *Ptr, size_t Words, bool FromPool);

  /// Frees parked free-list blocks until FreeBytes <= \p TargetFreeBytes
  /// (0 = free everything parked). Returns the bytes released back to the
  /// heap; in-use blocks are untouched.
  size_t trim(size_t TargetFreeBytes = 0);

  LimbPoolStats stats() const;

  /// Zeroes the hit/miss/trim counters and restarts the in-use
  /// high-water mark from the current in-use bytes (the other byte gauges
  /// reflect live state and are untouched). For benches and tests that
  /// measure steady-state deltas.
  void resetCounters();

  /// Moves \p Bytes of acquired pooled blocks out of the limb_pool charge
  /// and in-use gauge (lend), or back into them (unlend) before the
  /// blocks are released. \p Bytes is the holder's pooledBytes().
  void lend(size_t Bytes);
  void unlend(size_t Bytes);

private:
  LimbPool();
  LimbPool(const LimbPool &) = delete;
  LimbPool &operator=(const LimbPool &) = delete;

  std::atomic<bool> Enabled;
  std::atomic<uint64_t> Hits{0}, Misses{0}, Trims{0};
  std::atomic<size_t> FreeBytes{0}, InUseBytes{0}, PeakInUseBytes{0};

  /// Adds \p Bytes to the in-use gauge and raises its high-water mark.
  void addInUse(size_t Bytes);

  mutable std::mutex Mutex;
  /// Exact-size bins: word count -> parked blocks.
  std::unordered_map<size_t, std::vector<uint64_t *>> Bins;
};

/// Owning handle for one limb buffer, the storage behind RnsPoly::Data.
/// Vector-like surface restricted to what RnsPoly needs: zero-fill
/// construction, copy/move, and size-only shrinking (dropLastQ keeps the
/// block and its bin capacity). Destruction returns the block to the
/// pool.
class LimbStorage {
public:
  LimbStorage() = default;

  LimbStorage(const LimbStorage &O) { copyFrom(O); }
  LimbStorage &operator=(const LimbStorage &O) {
    if (this != &O)
      copyFrom(O);
    return *this;
  }

  LimbStorage(LimbStorage &&O) noexcept
      : Ptr(O.Ptr), Size(O.Size), Cap(O.Cap), FromPool(O.FromPool) {
    O.Ptr = nullptr;
    O.Size = O.Cap = 0;
  }
  LimbStorage &operator=(LimbStorage &&O) noexcept {
    if (this != &O) {
      reset();
      Ptr = O.Ptr;
      Size = O.Size;
      Cap = O.Cap;
      FromPool = O.FromPool;
      O.Ptr = nullptr;
      O.Size = O.Cap = 0;
    }
    return *this;
  }

  ~LimbStorage() { reset(); }

  uint64_t *data() { return Ptr; }
  const uint64_t *data() const { return Ptr; }
  size_t size() const { return Size; }

  /// vector::assign(Words, 0): reuses the block when its bin capacity
  /// suffices, otherwise swaps it for one that does.
  void assignZero(size_t Words);

  /// Size-only shrink; the block keeps its acquired bin capacity and is
  /// released under it.
  void shrinkTo(size_t Words);

  /// Releases the block now (empty storage).
  void reset();

  /// Bytes of the block when it came from the pool (0 for a heap block
  /// or an empty storage): what LimbPool::lend takes out of its charge.
  size_t pooledBytes() const { return FromPool ? Cap * sizeof(uint64_t) : 0; }

private:
  void copyFrom(const LimbStorage &O);

  uint64_t *Ptr = nullptr;
  size_t Size = 0;
  size_t Cap = 0;
  bool FromPool = false;
};

} // namespace ace

#endif // ACE_SUPPORT_LIMBPOOL_H
