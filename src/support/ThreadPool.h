//===- support/ThreadPool.h - FIFO thread pool ------------------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool with one FIFO queue, plus a cooperative
/// cancellation token: the scheduling substrate of the batch-verification
/// engine (refine::Validator). post() appends to the back of the queue and
/// a worker pops the front, so tasks start in post order, and a task posted
/// by a running task starts after everything queued before it. A pool
/// built with zero worker threads runs its queue, follow-ups included, on
/// the thread that calls wait() (or its destructor).
///
/// Tasks are coarse (one SMT verification each, milliseconds to minutes), so
/// one mutex guards the queue; the scheduling cost is noise next to the
/// work. A worker runs each task under the profiler context of the post
/// that queued it (prof::Adopt), so spans a task opens parent under the
/// span that was open where it was posted. The destructor drains every
/// queued task before joining.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SUPPORT_THREADPOOL_H
#define ALIVE2RE_SUPPORT_THREADPOOL_H

#include "support/Profile.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace alive::support {

/// Cooperative cancellation: one sticky flag, set once, polled by workers
/// and by the solver's inner loops (SolverBudget::Cancel points at flag(),
/// and smt::TimeLimit::poll reads it). Relaxed atomics: cancellation is
/// best-effort prompt, not synchronizing.
class CancellationToken {
public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken &) = delete;
  CancellationToken &operator=(const CancellationToken &) = delete;

  void requestCancel() { Flag.store(true, std::memory_order_relaxed); }
  bool isCancelled() const { return Flag.load(std::memory_order_relaxed); }
  /// Re-arms the token for a new batch.
  void reset() { Flag.store(false, std::memory_order_relaxed); }
  /// Stable pointer for hot loops that poll without calling through here.
  const std::atomic<bool> *flag() const { return &Flag; }

private:
  std::atomic<bool> Flag{false};
};

/// Fixed worker pool over one FIFO queue.
class ThreadPool {
public:
  /// Starts \p Workers threads; with 0 the caller of wait() runs the tasks.
  explicit ThreadPool(unsigned Workers);
  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numWorkers() const { return (unsigned)Threads.size(); }

  /// Appends \p Fn to the back of the queue. Safe to call from a running
  /// task. \p Fn must not throw (an escaping exception terminates the
  /// process).
  void post(std::function<void()> Fn);
  /// Appends every task of \p Fns in order, in one step: none of them
  /// starts before the last is queued, so a task one of them posts lands
  /// behind all of them.
  void post(std::vector<std::function<void()>> Fns);

  /// Blocks until every task posted so far has finished, follow-ups
  /// included. Without workers, runs them on the calling thread.
  void wait();

private:
  struct Task {
    std::function<void()> Fn;
    /// The poster's span context; empty in a pool without workers.
    prof::Context Ctx;
  };

  void workerLoop();
  /// Pops the front task and runs it with Mu released. Caller holds Mu.
  void runFront(std::unique_lock<std::mutex> &Lock);

  std::mutex Mu;
  std::condition_variable WorkCv; ///< workers sleep here
  std::condition_variable IdleCv; ///< wait() sleeps here
  std::deque<Task> Queue;
  std::vector<std::thread> Threads;
  unsigned PendingTasks = 0; ///< queued + running
  bool Stopping = false;
};

} // namespace alive::support

#endif // ALIVE2RE_SUPPORT_THREADPOOL_H
