//===- tests/support/ThreadPoolTest.cpp - Pool + cancellation tests ------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"
#include "support/Profile.h"

#include "gtest/gtest.h"

#include <atomic>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

using namespace alive;
using namespace alive::support;

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numWorkers(), 4u);
  std::atomic<unsigned> Ran{0};
  for (unsigned I = 0; I < 100; ++I)
    Pool.post([&Ran] { Ran.fetch_add(1, std::memory_order_relaxed); });
  Pool.wait();
  EXPECT_EQ(Ran.load(), 100u);
}

TEST(ThreadPoolTest, ZeroWorkersRunTasksOnTheCallingThread) {
  // A pool without workers runs nothing until wait(), then runs every task,
  // follow-ups included, in post order on the thread that waits.
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.numWorkers(), 0u);
  std::vector<unsigned> Order;
  std::vector<std::thread::id> Ran;
  auto Record = [&](unsigned I) {
    Order.push_back(I);
    Ran.push_back(std::this_thread::get_id());
  };
  Pool.post([&] {
    Record(0);
    Pool.post([&] { Record(3); });
  });
  Pool.post({[&] { Record(1); }, [&] { Record(2); }});
  EXPECT_TRUE(Order.empty());
  Pool.wait();
  EXPECT_EQ(Order, (std::vector<unsigned>{0, 1, 2, 3}));
  for (std::thread::id Id : Ran)
    EXPECT_EQ(Id, std::this_thread::get_id());
}

TEST(ThreadPoolTest, WaitReturnsImmediatelyWhenIdle) {
  ThreadPool Pool(2);
  Pool.wait(); // no tasks posted: must not block
}

TEST(ThreadPoolTest, NestedSubmitFromWorker) {
  ThreadPool Pool(2);
  std::atomic<unsigned> Ran{0};
  Pool.post([&] {
    Ran.fetch_add(1, std::memory_order_relaxed);
    // Posting from inside a task appends to the same queue; wait() must
    // cover the follow-up work too.
    Pool.post([&Ran] { Ran.fetch_add(1, std::memory_order_relaxed); });
  });
  Pool.wait();
  EXPECT_EQ(Ran.load(), 2u);
}

TEST(ThreadPoolTest, SingleWorkerRunsTasksFifo) {
  // Pin the lone worker on a gate, queue four recorders, then open the
  // gate: the worker pops the front of the one queue, so tasks run in post
  // order, and the follow-ups recorder 0 posts run after every recorder
  // queued before them.
  ThreadPool Pool(1);
  std::promise<void> GatePromise, Started;
  std::shared_future<void> Gate = GatePromise.get_future().share();
  Pool.post([&Started, Gate] {
    Started.set_value();
    Gate.wait();
  });
  Started.get_future().wait(); // worker is inside the gate task
  std::vector<unsigned> Order;
  Pool.post([&] {
    Order.push_back(0);
    Pool.post([&Order] { Order.push_back(4); });
    Pool.post([&Order] { Order.push_back(5); });
  });
  for (unsigned I = 1; I < 4; ++I)
    Pool.post([&Order, I] { Order.push_back(I); });
  GatePromise.set_value();
  Pool.wait();
  EXPECT_EQ(Order, (std::vector<unsigned>{0, 1, 2, 3, 4, 5}));
}

TEST(ThreadPoolTest, BatchPostQueuesEveryTaskBeforeItsFollowUps) {
  // Eight tasks posted in one step while the worker is free to start the
  // first at once: each posts a follow-up, and every follow-up lands behind
  // the last of the eight.
  ThreadPool Pool(1);
  std::vector<unsigned> Order;
  std::vector<std::function<void()>> Batch;
  for (unsigned I = 0; I < 8; ++I)
    Batch.push_back([&, I] {
      Order.push_back(I);
      Pool.post([&, I] { Order.push_back(8 + I); });
    });
  Pool.post(std::move(Batch));
  Pool.wait();
  std::vector<unsigned> Expected;
  for (unsigned I = 0; I < 16; ++I)
    Expected.push_back(I);
  EXPECT_EQ(Order, Expected);
}

TEST(ThreadPoolTest, WorkersAdoptThePostersSpanContext) {
  // A task a worker runs parents its spans under the span open at post().
  prof::start();
  uint64_t BatchId = 0;
  {
    prof::Span Batch("batch");
    BatchId = Batch.id();
    ThreadPool Pool(2);
    for (unsigned I = 0; I < 4; ++I)
      Pool.post([] { prof::Span Task("task"); });
    Pool.wait();
  }
  prof::stop();
  unsigned Tasks = 0;
  for (const prof::SpanRecord &R : prof::snapshot()) {
    if (std::string(R.Name) != "task")
      continue;
    ++Tasks;
    EXPECT_EQ(R.Parent, BatchId);
  }
  EXPECT_EQ(Tasks, 4u);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<unsigned> Ran{0};
  {
    ThreadPool Pool(1);
    for (unsigned I = 0; I < 50; ++I)
      Pool.post([&Ran] { Ran.fetch_add(1, std::memory_order_relaxed); });
    // No wait(): destruction must still run every queued task.
  }
  EXPECT_EQ(Ran.load(), 50u);
}

TEST(ThreadPoolTest, CancellationTokenIsStickyUntilReset) {
  CancellationToken Tok;
  EXPECT_FALSE(Tok.isCancelled());
  Tok.requestCancel();
  EXPECT_TRUE(Tok.isCancelled());
  Tok.requestCancel(); // idempotent
  EXPECT_TRUE(Tok.isCancelled());
  Tok.reset();
  EXPECT_FALSE(Tok.isCancelled());
}

TEST(ThreadPoolTest, CancellationFlagIsStableAndLive) {
  CancellationToken Tok;
  const std::atomic<bool> *Flag = Tok.flag();
  ASSERT_NE(Flag, nullptr);
  EXPECT_EQ(Flag, Tok.flag()); // stable address for hot loops
  EXPECT_FALSE(Flag->load(std::memory_order_relaxed));
  Tok.requestCancel();
  EXPECT_TRUE(Flag->load(std::memory_order_relaxed));
}

TEST(ThreadPoolTest, TasksObserveCancellationMidBatch) {
  // Tasks poll the token the way Validator workers do: once the flag is
  // up, remaining tasks skip their work.
  ThreadPool Pool(2);
  CancellationToken Tok;
  std::atomic<unsigned> Skipped{0};
  Tok.requestCancel();
  for (unsigned I = 0; I < 16; ++I)
    Pool.post([&] {
      if (Tok.isCancelled())
        Skipped.fetch_add(1, std::memory_order_relaxed);
    });
  Pool.wait();
  EXPECT_EQ(Skipped.load(), 16u);
}
