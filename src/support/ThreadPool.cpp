//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Env.h"
#include "support/Telemetry.h"

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

using namespace ace;

namespace {

/// Set while a thread (worker or the caller) executes parallelFor chunks;
/// nested parallelFor calls observe it and run inline.
thread_local bool InParallelTask = false;

/// Saves and restores the previous flag value: a nested inline
/// parallelFor also opens a scope, and clearing the flag outright on its
/// exit would let the NEXT nested call inside the same chunk take the
/// fork path and self-deadlock on the pool's run lock.
struct TaskFlagScope {
  bool Prev;
  TaskFlagScope() : Prev(InParallelTask) { InParallelTask = true; }
  ~TaskFlagScope() { InParallelTask = Prev; }
};

} // namespace

struct ThreadPool::Impl {
  /// One parallelFor invocation. Geometry is immutable after
  /// publication; NextChunk hands each chunk to exactly one thread. A
  /// worker drains only the job it snapshotted under the pool mutex, so
  /// a late-waking thread can never claim chunks of a newer job with
  /// stale geometry.
  struct Job {
    const std::function<void(size_t)> *Fn = nullptr;
    size_t Begin = 0;
    size_t Len = 0;
    size_t NumChunks = 0;
    std::atomic<size_t> NextChunk{0};
    size_t ChunksLeft = 0; ///< guarded by the pool mutex
    std::exception_ptr FirstError; ///< guarded by the pool mutex
  };

  /// Serializes whole parallelFor invocations from distinct user threads
  /// (the runtime itself issues them from one thread at a time).
  std::mutex RunMutex;

  /// Protects job publication, completion counts, and worker lifecycle.
  std::mutex Mutex;
  std::condition_variable WorkCv;
  std::condition_variable DoneCv;

  size_t NumThreads = 1;
  bool Exit = false;
  std::vector<std::thread> Workers;

  uint64_t Generation = 0;
  std::shared_ptr<Job> Current;

  /// Runs chunks of \p J until none are left, recording the first
  /// exception. The caller's Fn outlives every claimed chunk: the
  /// publishing thread blocks until ChunksLeft reaches zero.
  void drainChunks(Job &J) {
    TaskFlagScope Scope;
    for (;;) {
      size_t C = J.NextChunk.fetch_add(1, std::memory_order_relaxed);
      if (C >= J.NumChunks)
        return;
      // Fixed contiguous partitioning: chunk C covers
      // [Begin + C*Len/NumChunks, Begin + (C+1)*Len/NumChunks).
      size_t Lo = J.Begin + C * J.Len / J.NumChunks;
      size_t Hi = J.Begin + (C + 1) * J.Len / J.NumChunks;
      std::exception_ptr Err;
      try {
        for (size_t I = Lo; I < Hi; ++I)
          (*J.Fn)(I);
      } catch (...) {
        Err = std::current_exception();
      }
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Err && !J.FirstError)
        J.FirstError = Err;
      if (--J.ChunksLeft == 0)
        DoneCv.notify_all();
    }
  }

  void workerMain() {
    uint64_t SeenGeneration = 0;
    std::unique_lock<std::mutex> Lock(Mutex);
    for (;;) {
      WorkCv.wait(Lock, [&] {
        return Exit || Generation != SeenGeneration;
      });
      if (Exit)
        return;
      SeenGeneration = Generation;
      std::shared_ptr<Job> J = Current;
      Lock.unlock();
      if (J)
        drainChunks(*J);
      Lock.lock();
    }
  }

  /// Joins all workers. Callers hold no pool lock.
  void stopWorkers() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Exit = true;
    }
    WorkCv.notify_all();
    for (std::thread &W : Workers)
      W.join();
    Workers.clear();
    std::lock_guard<std::mutex> Lock(Mutex);
    Exit = false;
  }
};

ThreadPool::ThreadPool() : P(std::make_unique<Impl>()) {
  P->NumThreads = env::threadCount();
}

ThreadPool::~ThreadPool() { P->stopWorkers(); }

ThreadPool &ThreadPool::instance() {
  static ThreadPool Pool;
  return Pool;
}

bool ThreadPool::inWorker() { return InParallelTask; }

ThreadPool::InlineRegion::InlineRegion() : Prev(InParallelTask) {
  InParallelTask = true;
}

ThreadPool::InlineRegion::~InlineRegion() { InParallelTask = Prev; }

size_t ThreadPool::numThreads() const {
  std::lock_guard<std::mutex> Lock(P->Mutex);
  return P->NumThreads;
}

Status ThreadPool::setNumThreads(size_t N) {
  // A pool task asking the pool to reconfigure would join the very
  // workers executing it (self-join deadlock). Fail cleanly instead of
  // relying on the header's "must not" - a service request handler is
  // exactly the kind of caller that might reach this by accident. No
  // assert here: this repo keeps asserts on in every build type, and the
  // recoverable path must stay testable.
  if (InParallelTask)
    return Status::invalidArgument(
        "setNumThreads: called from inside a parallelFor task; the pool "
        "cannot join its own workers (reconfigure from a quiescent "
        "point instead)");
  if (N == 0)
    N = env::threadCount();
  std::lock_guard<std::mutex> RunLock(P->RunMutex);
  P->stopWorkers();
  std::lock_guard<std::mutex> Lock(P->Mutex);
  P->NumThreads = N;
  return Status::success();
}

void ThreadPool::parallelFor(size_t Begin, size_t End,
                             const std::function<void(size_t)> &Fn) {
  if (End <= Begin)
    return;
  size_t Len = End - Begin;
  size_t Threads;
  {
    std::lock_guard<std::mutex> Lock(P->Mutex);
    Threads = P->NumThreads;
  }
  // Serial pool, trivial range, or nested call: run inline. The task
  // flag is still set so the serial path exercises the same nesting
  // semantics the forked path has.
  if (Threads <= 1 || Len == 1 || InParallelTask) {
    TaskFlagScope Scope;
    for (size_t I = Begin; I < End; ++I)
      Fn(I);
    return;
  }

  std::lock_guard<std::mutex> RunLock(P->RunMutex);
  if (telemetry::enabled())
    telemetry::Telemetry::instance().count(telemetry::Counter::ParallelFor);
  auto J = std::make_shared<Impl::Job>();
  J->Fn = &Fn;
  J->Begin = Begin;
  J->Len = Len;
  // More chunks than threads smooths imbalance (limbs at mixed levels);
  // chunk geometry is a pure function of (Len, NumChunks), and results
  // never depend on it either way - chunks are disjoint and every
  // parallelized loop is per-index independent.
  J->NumChunks = std::min(Len, Threads * 4);
  J->ChunksLeft = J->NumChunks;
  {
    std::lock_guard<std::mutex> Lock(P->Mutex);
    // Lazy worker start: Threads - 1 workers, the caller is the Nth.
    while (P->Workers.size() + 1 < Threads) {
      size_t WorkerIndex = P->Workers.size();
      P->Workers.emplace_back([Impl = P.get(), WorkerIndex] {
        telemetry::Telemetry::instance().nameThread(
            "ace-pool-worker-" + std::to_string(WorkerIndex));
        Impl->workerMain();
      });
    }
    P->Current = J;
    ++P->Generation;
  }
  P->WorkCv.notify_all();
  P->drainChunks(*J);
  std::unique_lock<std::mutex> Lock(P->Mutex);
  P->DoneCv.wait(Lock, [&] { return J->ChunksLeft == 0; });
  P->Current.reset();
  if (J->FirstError) {
    std::exception_ptr Err = J->FirstError;
    Lock.unlock();
    std::rethrow_exception(Err);
  }
}
