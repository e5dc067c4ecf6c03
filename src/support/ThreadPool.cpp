//===- support/ThreadPool.cpp - FIFO thread pool ----------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <optional>

using namespace alive;
using namespace alive::support;

ThreadPool::ThreadPool(unsigned Workers) {
  Threads.reserve(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  wait();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
  }
  WorkCv.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ThreadPool::post(std::function<void()> Fn) {
  std::vector<std::function<void()>> One;
  One.push_back(std::move(Fn));
  post(std::move(One));
}

void ThreadPool::post(std::vector<std::function<void()>> Fns) {
  prof::Context Ctx = Threads.empty() ? prof::Context() : prof::capture();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (std::function<void()> &Fn : Fns)
      Queue.push_back({std::move(Fn), Ctx});
    PendingTasks += Fns.size();
  }
  if (Fns.size() == 1)
    WorkCv.notify_one();
  else
    WorkCv.notify_all();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mu);
  while (Threads.empty() && !Queue.empty())
    runFront(Lock);
  IdleCv.wait(Lock, [this] { return PendingTasks == 0; });
}

void ThreadPool::runFront(std::unique_lock<std::mutex> &Lock) {
  Task T = std::move(Queue.front());
  Queue.pop_front();
  Lock.unlock();
  {
    // Only a worker adopts: the caller of a worker-less pool's wait() is
    // where the task was posted, so its own open spans are the parents.
    std::optional<prof::Adopt> Adopted;
    if (!Threads.empty())
      Adopted.emplace(T.Ctx);
    T.Fn();
  }
  // Release the task's captures before retaking the lock, so heavy
  // destructors run unlocked.
  T = Task();
  Lock.lock();
  if (--PendingTasks == 0)
    IdleCv.notify_all();
}

void ThreadPool::workerLoop() {
  // Claim a profiler thread id up front so workers own the low, dense ids
  // (stable Perfetto track order) regardless of which one runs a task first.
  prof::threadId();
  std::unique_lock<std::mutex> Lock(Mu);
  while (true) {
    if (!Queue.empty()) {
      runFront(Lock);
      continue;
    }
    // Drain-before-stop: the destructor waits for every queued task.
    if (Stopping)
      return;
    WorkCv.wait(Lock);
  }
}
