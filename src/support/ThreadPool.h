//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime's parallel execution layer (see docs/performance.md).
///
/// A deliberately small, work-stealing-free thread pool with exactly one
/// primitive: parallelFor over an index range. The FHE hot paths use it
/// at RNS-limb and key-switch-digit granularity - every parallelized loop
/// writes disjoint data per index and performs only exact (modular
/// integer, or per-index-independent floating-point) arithmetic, so
/// results are bit-identical at every thread count. There are no
/// cross-iteration floating-point reductions anywhere under the pool.
///
/// Lifecycle: the pool is a lazy process-wide singleton. Worker threads
/// start on the first parallelFor that actually forks; the default
/// thread count comes from the ACE_THREADS environment variable (absent
/// or invalid = 1, i.e. serial - threading is opt-in so the default
/// configuration stays exactly as reproducible and sanitizer-friendly as
/// the single-threaded seed). ThreadPool::setNumThreads reconfigures it
/// at any quiescent point.
///
/// Semantics:
///  - parallelFor(Begin, End, Fn) calls Fn(I) exactly once for every I in
///    [Begin, End). The range is split into fixed contiguous chunks;
///    which thread runs which chunk is unspecified, the set of chunks is
///    not.
///  - Runs inline (no queueing, same thread) when the pool is serial,
///    the range is a single index, or the caller is itself a pool worker
///    (nested parallelFor never deadlocks, it just serializes).
///  - Exceptions thrown by Fn are captured; the first one is rethrown on
///    the calling thread after every chunk finished. The pool stays
///    usable afterwards - this is how injected faults keep failing
///    cleanly under threads.
///  - Telemetry-aware: each forked region bumps the parallel-for op
///    counter (atomic, exact); telemetry spans and counters used inside
///    Fn work from worker threads (the trace records their tids).
///
//===----------------------------------------------------------------------===//

#ifndef ACE_SUPPORT_THREADPOOL_H
#define ACE_SUPPORT_THREADPOOL_H

#include "support/Status.h"

#include <cstddef>
#include <functional>
#include <memory>

namespace ace {

/// The process-wide worker pool. All methods are safe to call from the
/// main thread; parallelFor is additionally safe (and serial) from
/// within a worker.
class ThreadPool {
public:
  /// The singleton. First access reads ACE_THREADS for the default
  /// thread count; workers are not started until a parallelFor forks.
  static ThreadPool &instance();

  ~ThreadPool();

  /// The configured thread count (>= 1). 1 means every parallelFor runs
  /// inline on the calling thread.
  size_t numThreads() const;

  /// Reconfigures the pool to \p N threads (0 = re-read the ACE_THREADS
  /// default). Joins existing workers first. Calling it from inside a
  /// parallelFor task would have the pool join itself; that is detected
  /// and rejected with Status(InvalidArgument), leaving the configuration
  /// unchanged.
  Status setNumThreads(size_t N);

  /// Calls \p Fn(I) for every I in [Begin, End), potentially on worker
  /// threads. Blocks until all indices completed; rethrows the first
  /// exception any index threw.
  void parallelFor(size_t Begin, size_t End,
                   const std::function<void(size_t)> &Fn);

  /// True on a thread currently executing pool tasks (used to serialize
  /// nested parallelFor calls).
  static bool inWorker();

  /// RAII: while alive, every parallelFor on THIS thread runs inline,
  /// exactly as if it were nested inside a pool task. For callers that
  /// must not contend for the pool's fork lock while holding their own
  /// mutex: forking under an external lock inverts lock order against
  /// pool tasks that take the same lock (the inference service's
  /// per-session mutexes were the motivating deadlock). Results are
  /// unchanged - inline and forked execution are bit-identical.
  class InlineRegion {
  public:
    InlineRegion();
    ~InlineRegion();
    InlineRegion(const InlineRegion &) = delete;
    InlineRegion &operator=(const InlineRegion &) = delete;

  private:
    bool Prev;
  };

private:
  ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  struct Impl;
  std::unique_ptr<Impl> P;
};

/// Convenience forwarding to ThreadPool::instance().parallelFor: the
/// spelling the runtime kernels use.
inline void parallelFor(size_t Begin, size_t End,
                        const std::function<void(size_t)> &Fn) {
  ThreadPool::instance().parallelFor(Begin, End, Fn);
}

} // namespace ace

#endif // ACE_SUPPORT_THREADPOOL_H
