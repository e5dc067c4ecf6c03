//===- tests/refine/RetryTest.cpp - Resource governance ----------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
// The resource-governance tentpole end to end: the budget-escalation retry
// ladder (deterministic: rung 0 is strangled by a sub-measurable budget,
// rung 1 solves) and its queue order, batch deadlines (undispatched pairs
// come back as DeadlineSkipped, never Timeout), the cache discipline (only
// the ladder's final verdict is cached), and — under the concurrency label
// (tier 2, TSan) — the memory watchdog cancelling parallel in-flight pairs.
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "refine/Validator.h"
#include "support/Profile.h"
#include "support/ResourceGovernor.h"
#include "support/Stats.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>

using namespace alive;
using namespace alive::refine;

namespace {

const char *EasySrc = R"(
define i8 @f(i8 %a, i8 %b) {
entry:
  %x = add i8 %a, %b
  %y = sub i8 %x, %b
  ret i8 %y
}
)";
const char *EasyTgt = R"(
define i8 @f(i8 %a, i8 %b) {
entry:
  ret i8 %a
}
)";

// 64-bit multiplier associativity: sound but far beyond any CDCL budget a
// test would wait for, so the pair reliably burns whatever timeout it gets.
const char *HardSrc = R"(
define i64 @f(i64 %a, i64 %b, i64 %c) {
entry:
  %ab = mul i64 %a, %b
  %r = mul i64 %ab, %c
  ret i64 %r
}
)";
const char *HardTgt = R"(
define i64 @f(i64 %a, i64 %b, i64 %c) {
entry:
  %bc = mul i64 %b, %c
  %r = mul i64 %a, %bc
  ret i64 %r
}
)";

// Rung 0's budget is exhausted before the first staged query can start
// (1ns of wall budget is always already spent), so the base attempt is a
// deterministic Timeout with a budget-shaped reason; the escalated rung
// gets Multiplier * 1ns, a budget the easy pair solves comfortably.
Options ladderOpts() {
  Options O;
  O.Budget.TimeoutSec = 1e-9;
  O.Retry.MaxRungs = 1;
  O.Retry.Multiplier = 3e10; // rung 1: 30s
  O.Cache = CachePolicy::disabled();
  return O;
}

TEST(Retry, LadderEscalatesTimeoutToCorrect) {
  auto SrcM = ir::parseModuleOrDie(EasySrc);
  auto TgtM = ir::parseModuleOrDie(EasyTgt);

  // Without the ladder: the strangled budget is a final Timeout.
  Options Flat = ladderOpts();
  Flat.Retry.MaxRungs = 0;
  Verdict V0 = Validator(Flat).verifyPair(*SrcM->function(0u),
                                          *TgtM->function(0u), SrcM.get());
  ASSERT_EQ(V0.Kind, VerdictKind::Timeout);
  EXPECT_EQ(V0.Why, Reason::BudgetExhausted);
  EXPECT_EQ(V0.Rung, 0u);

  // With one rung: same pair resolves on the escalated budget, and the
  // verdict records where it happened and what the whole ladder cost.
  Validator V(ladderOpts());
  Verdict R = V.verifyPair(*SrcM->function(0u), *TgtM->function(0u),
                           SrcM.get());
  EXPECT_EQ(R.Kind, VerdictKind::Correct);
  EXPECT_EQ(R.Rung, 1u);
  EXPECT_EQ(R.Why, Reason::None);
  EXPECT_GE(R.CumulativeSeconds, R.Seconds);
}

TEST(Retry, ExhaustedLadderSaysSo) {
  auto SrcM = ir::parseModuleOrDie(EasySrc);
  auto TgtM = ir::parseModuleOrDie(EasyTgt);
  Options O = ladderOpts();
  O.Retry.Multiplier = 2; // rung 1: 2ns — still strangled
  Verdict R = Validator(O).verifyPair(*SrcM->function(0u),
                                      *TgtM->function(0u), SrcM.get());
  EXPECT_EQ(R.Kind, VerdictKind::Timeout);
  EXPECT_EQ(R.Rung, 1u);
  EXPECT_EQ(R.Why, Reason::RetriesExhausted);
}

TEST(Retry, BatchLadderMatchesSinglePairLadder) {
  auto SrcM = ir::parseModuleOrDie(EasySrc);
  auto TgtM = ir::parseModuleOrDie(EasyTgt);
  Validator V(ladderOpts());
  unsigned Emitted = 0;
  V.onVerdict([&](const PairResult &) { ++Emitted; });
  auto Results = V.verifyModules(*SrcM, *TgtM, /*Jobs=*/1);
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_EQ(Results[0].V.Kind, VerdictKind::Correct);
  EXPECT_EQ(Results[0].V.Rung, 1u);
  // Only the final verdict streams: the rung-0 timeout is not emitted.
  EXPECT_EQ(Emitted, 1u);
  BatchSummary S = summarize(Results);
  EXPECT_EQ(S.Retried, 1u);
  EXPECT_EQ(S.Correct, 1u);
}

// Eight pairs, each escalated once, at -j 2: the FIFO queue hands out every
// base attempt before any retry. A worker's attempts run one after another,
// so on each worker every base attempt starts before any retry (comparing
// starts across workers would time their scheduling, not the queue).
TEST(Retry, EscalationsStartAfterEveryBaseAttempt) {
  auto SrcM = ir::parseModuleOrDie(EasySrc);
  auto TgtM = ir::parseModuleOrDie(EasyTgt);
  Validator V(ladderOpts());
  std::vector<Validator::PairTask> Tasks;
  for (int I = 0; I < 8; ++I)
    Tasks.push_back({SrcM->function(0u), TgtM->function(0u), SrcM.get(),
                     "easy-" + std::to_string(I)});
  prof::start();
  auto Results = V.verifyBatch(Tasks, /*Jobs=*/2);
  prof::stop();
  for (const PairResult &R : Results) {
    EXPECT_EQ(R.V.Kind, VerdictKind::Correct) << R.Name;
    EXPECT_EQ(R.V.Rung, 1u) << R.Name;
  }
  // An escalated attempt's verify_pair span opens inside its retry_attempt
  // span; every other verify_pair span is a base attempt.
  std::vector<prof::SpanRecord> Spans = prof::snapshot();
  std::set<uint64_t> Retries;
  std::map<unsigned, double> FirstRetry; // per thread
  for (const prof::SpanRecord &S : Spans)
    if (std::string(S.Name) == "retry_attempt") {
      Retries.insert(S.Id);
      auto [It, New] = FirstRetry.emplace(S.Tid, S.StartSec);
      if (!New)
        It->second = std::min(It->second, S.StartSec);
    }
  EXPECT_EQ(Retries.size(), 8u);
  unsigned Bases = 0;
  for (const prof::SpanRecord &S : Spans)
    if (std::string(S.Name) == "verify_pair" && !Retries.count(S.Parent)) {
      ++Bases;
      auto It = FirstRetry.find(S.Tid);
      if (It != FirstRetry.end())
        EXPECT_LT(S.StartSec, It->second) << "thread " << S.Tid;
    }
  EXPECT_EQ(Bases, 8u);
}

TEST(Retry, OnlyFinalVerdictReachesTheCache) {
  auto SrcM = ir::parseModuleOrDie(EasySrc);
  auto TgtM = ir::parseModuleOrDie(EasyTgt);
  Options O = ladderOpts();
  O.Cache = CachePolicy();        // both levels on, in-memory
  O.Cache.QueryLevel = false;     // isolate the pair level
  Validator V(O);
  Verdict First = V.verifyPair(*SrcM->function(0u), *TgtM->function(0u),
                               SrcM.get());
  ASSERT_EQ(First.Kind, VerdictKind::Correct);
  ASSERT_EQ(First.Rung, 1u);
  EXPECT_FALSE(First.Cached);
  // Second run: rung 0 times out again (its budget fingerprint has no
  // entry — the rung-0 Timeout was never cached), rung 1 replays the
  // cached Correct. A cached rung-0 Timeout would surface here as a
  // Cached Timeout verdict instead.
  Verdict Second = V.verifyPair(*SrcM->function(0u), *TgtM->function(0u),
                                SrcM.get());
  EXPECT_EQ(Second.Kind, VerdictKind::Correct);
  EXPECT_TRUE(Second.Cached);
  EXPECT_EQ(Second.Why, Reason::Cached);
  EXPECT_EQ(Second.Rung, 1u);
}

TEST(Retry, DeadlineSkipsUndispatchedPairsDistinctly) {
  auto HardSrcM = ir::parseModuleOrDie(HardSrc);
  auto HardTgtM = ir::parseModuleOrDie(HardTgt);
  auto EasySrcM = ir::parseModuleOrDie(EasySrc);
  auto EasyTgtM = ir::parseModuleOrDie(EasyTgt);

  Options O;
  O.Budget.TimeoutSec = 30; // the deadline, not the query budget, must trip
  O.Cache = CachePolicy::disabled();
  Validator V(O);

  std::vector<Validator::PairTask> Tasks;
  Tasks.push_back({HardSrcM->function(0u), HardTgtM->function(0u),
                   HardSrcM.get(), "hard"});
  for (int I = 0; I < 3; ++I)
    Tasks.push_back({EasySrcM->function(0u), EasyTgtM->function(0u),
                     EasySrcM.get(), "easy-" + std::to_string(I)});

  // Serial batch with a per-call deadline: task 0 dispatches immediately,
  // burns past the deadline and stops in flight; tasks 1..3 must come back
  // DeadlineSkipped — never Timeout.
  stats::Counter Tripped = stats::counter("deadline.tripped");
  uint64_t Tripped0 = Tripped.value();
  auto Results = V.verifyBatch(Tasks, /*Jobs=*/1, /*DeadlineSec=*/0.05);
  ASSERT_EQ(Results.size(), 4u);
  EXPECT_EQ(Results[0].V.Kind, VerdictKind::Timeout);
  EXPECT_EQ(Results[0].V.Why, Reason::DeadlineSkipped);
  EXPECT_EQ(Results[0].V.Detail, "cancelled by batch deadline");
  // One deadline report for the call, after its pairs finish.
  EXPECT_EQ(Tripped.value(), Tripped0 + 1);
  for (size_t I = 1; I < Results.size(); ++I) {
    EXPECT_EQ(Results[I].V.Kind, VerdictKind::DeadlineSkipped) << I;
    EXPECT_EQ(Results[I].V.Why, Reason::DeadlineSkipped) << I;
    EXPECT_NE(Results[I].V.Kind, VerdictKind::Timeout) << I;
  }
  BatchSummary S = summarize(Results);
  EXPECT_EQ(S.DeadlineSkipped, 3u);
  EXPECT_EQ(S.Timeout, 1u);

  // The deadline re-arms per call: the same Validator verifies the easy
  // pairs fine afterwards.
  auto Clean = V.verifyBatch({Tasks[1]}, /*Jobs=*/1, /*DeadlineSec=*/30);
  ASSERT_EQ(Clean.size(), 1u);
  EXPECT_EQ(Clean[0].V.Kind, VerdictKind::Correct);
}

/// Threads of this process, or 0 where /proc/self/task is not readable.
unsigned processThreads() {
  std::error_code Err;
  unsigned N = 0;
  for (auto It = std::filesystem::directory_iterator("/proc/self/task", Err);
       !Err && It != std::filesystem::directory_iterator(); It.increment(Err))
    ++N;
  return Err ? 0 : N;
}

// The deadline is fixed as an instant when the Validator is built and again
// at each batch call; 0 disarms it, and it runs no thread of its own.
TEST(Retry, DeadlineArmsRearmsAndDisarms) {
  auto SrcM = ir::parseModuleOrDie(EasySrc);
  auto TgtM = ir::parseModuleOrDie(EasyTgt);
  const ir::Function &Src = *SrcM->function(0u), &Tgt = *TgtM->function(0u);
  Options O;
  O.Cache = CachePolicy::disabled();
  O.DeadlineSec = 60;
  unsigned Threads0 = processThreads();
  Validator V(O);
  if (Threads0) {
    EXPECT_EQ(processThreads(), Threads0); // no sampler thread
  }
  EXPECT_EQ(V.verifyPair(Src, Tgt, SrcM.get()).Kind, VerdictKind::Correct);

  // Re-armed by the call: already passed, so nothing dispatches, and it
  // stays armed for the pairs verified after the call.
  auto Skipped = V.verifyModules(*SrcM, *TgtM, /*Jobs=*/1, 1e-9);
  ASSERT_EQ(Skipped.size(), 1u);
  EXPECT_EQ(Skipped[0].V.Kind, VerdictKind::DeadlineSkipped);
  EXPECT_EQ(V.verifyPair(Src, Tgt, SrcM.get()).Kind,
            VerdictKind::DeadlineSkipped);

  // 0 disarms it.
  auto Disarmed = V.verifyModules(*SrcM, *TgtM, /*Jobs=*/1, 0);
  ASSERT_EQ(Disarmed.size(), 1u);
  EXPECT_EQ(Disarmed[0].V.Kind, VerdictKind::Correct);
  EXPECT_EQ(V.verifyPair(Src, Tgt, SrcM.get()).Kind, VerdictKind::Correct);

  // A negative argument re-arms Options::DeadlineSec from now.
  auto Rearmed = V.verifyModules(*SrcM, *TgtM, /*Jobs=*/1);
  ASSERT_EQ(Rearmed.size(), 1u);
  EXPECT_EQ(Rearmed[0].V.Kind, VerdictKind::Correct);

  // Only the memory watchdog starts a thread (a sanitizer's runtime may
  // start one of its own beside the first).
  if (Threads0) {
    O.MaxRssBytes = size_t(1) << 40;
    Validator Watched(O);
    EXPECT_GT(processThreads(), Threads0);
  }
}

TEST(Retry, DeadlineNeverRetriesPastExpiry) {
  auto SrcM = ir::parseModuleOrDie(EasySrc);
  auto TgtM = ir::parseModuleOrDie(EasyTgt);
  Options O = ladderOpts();
  O.Retry.MaxRungs = 8;
  O.Retry.Multiplier = 1.5; // every rung stays strangled (~1ns scale)
  Validator V(O);
  // An already-expired deadline: rung 0 must not spawn rung 1.
  auto Results = V.verifyModules(*SrcM, *TgtM, /*Jobs=*/1,
                                 /*DeadlineSec=*/1e-9);
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_EQ(Results[0].V.Kind, VerdictKind::DeadlineSkipped);
  EXPECT_EQ(Results[0].V.Rung, 0u);
}

// Tier-2 (concurrency label): the watchdog under parallel load. An
// unreachable 1-byte RSS bound trips on every sample, shedding the
// longest-running pair each tick until nothing is in flight; every pair
// must come back OutOfMemory/WatchdogCancelled on its base rung (watchdog
// cancellations are not retried even though the ladder is armed).
TEST(Retry, WatchdogCancelsParallelPairs) {
  if (support::ResourceGovernor::processRssBytes() == 0)
    GTEST_SKIP() << "RSS sampling unsupported on this platform";
  auto SrcM = ir::parseModuleOrDie(HardSrc);
  auto TgtM = ir::parseModuleOrDie(HardTgt);

  Options O;
  O.Budget.TimeoutSec = 30;
  O.Cache = CachePolicy::disabled();
  O.MaxRssBytes = 1;
  O.Retry.MaxRungs = 2; // must NOT fire for watchdog cancellations
  Validator V(O);

  std::vector<Validator::PairTask> Tasks;
  for (int I = 0; I < 4; ++I)
    Tasks.push_back({SrcM->function(0u), TgtM->function(0u), SrcM.get(),
                     "hard-" + std::to_string(I)});
  auto Results = V.verifyBatch(Tasks, /*Jobs=*/4);
  ASSERT_EQ(Results.size(), 4u);
  for (const PairResult &R : Results) {
    EXPECT_EQ(R.V.Kind, VerdictKind::OutOfMemory) << R.Name;
    EXPECT_EQ(R.V.Why, Reason::WatchdogCancelled) << R.Name;
    EXPECT_EQ(R.V.Rung, 0u) << R.Name;
  }
  EXPECT_EQ(summarize(Results).OutOfMemory, 4u);
}

} // namespace
