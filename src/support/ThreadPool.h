//===- support/ThreadPool.h - Work-stealing thread pool ---------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size work-stealing thread pool plus a cooperative cancellation
/// token, the scheduling substrate of the batch-verification engine
/// (refine::Validator). Each worker owns a deque: it pushes and pops its own
/// work LIFO (locality for tasks spawned from tasks) and steals FIFO from
/// the other workers when its deque runs dry. External submissions are
/// distributed round-robin, so a batch of independent verification jobs
/// spreads across all workers immediately.
///
/// Tasks are coarse (one SMT verification each, milliseconds to minutes), so
/// a single mutex guards all deques; the scheduling cost is noise next to
/// the work. Exceptions thrown by a submitted callable are captured in the
/// returned future. The destructor drains every queued task before joining.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SUPPORT_THREADPOOL_H
#define ALIVE2RE_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
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

/// Fixed worker pool with per-worker deques and work stealing.
class ThreadPool {
public:
  /// \p Workers == 0 means one worker per hardware thread.
  explicit ThreadPool(unsigned Workers = 0);
  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numWorkers() const { return (unsigned)Threads.size(); }

  /// Schedules \p Fn and returns a future carrying its result or exception.
  /// Safe to call from worker threads (the subtask goes to the caller's own
  /// deque, LIFO, and cannot deadlock the pool).
  template <typename F> auto submit(F &&Fn) {
    using R = std::invoke_result_t<std::decay_t<F> &>;
    auto Task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(Fn));
    std::future<R> Fut = Task->get_future();
    post([Task] { (*Task)(); });
    return Fut;
  }

  /// Fire-and-forget submission. \p Fn must not throw (there is no future
  /// to carry the exception; an escaping one terminates the process).
  void post(std::function<void()> Fn);

  /// Blocks until every task posted so far has finished. Tasks may keep
  /// posting follow-up work; wait() returns once the pool is fully idle.
  void wait();

private:
  void workerLoop(unsigned Self);
  /// Pops own work (back) or steals (front). Caller holds Mu.
  bool popTask(unsigned Self, std::function<void()> &Out);

  mutable std::mutex Mu;
  std::condition_variable WorkCv; ///< workers sleep here
  std::condition_variable IdleCv; ///< wait() sleeps here
  std::vector<std::deque<std::function<void()>>> Queues; // one per worker
  std::vector<std::thread> Threads;
  unsigned NextQueue = 0;    ///< round-robin slot for external posts
  unsigned PendingTasks = 0; ///< queued + running
  bool Stopping = false;
};

} // namespace alive::support

#endif // ALIVE2RE_SUPPORT_THREADPOOL_H
