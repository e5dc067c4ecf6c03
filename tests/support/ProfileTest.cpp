//===- tests/support/ProfileTest.cpp ----------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
// Unit tests for the hierarchical profiling subsystem: span nesting and
// parent ids, tally-delta attribution, cross-thread Context/Adopt
// propagation, per-phase aggregation (self vs. children time), the Chrome
// trace-event exporter, and the slow-query log.
//===----------------------------------------------------------------------===//

#include "support/Profile.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

using namespace alive;

namespace {

/// start()s collection for the test body and unconditionally stops, clears
/// and disarms the slow-query log afterwards, so tests cannot leak state
/// into each other.
struct ProfSession {
  ProfSession() { prof::start(); }
  ~ProfSession() {
    prof::setSlowQueryMs(-1);
    prof::setSlowQueryStream(nullptr);
    prof::stop();
    prof::clear();
  }
};

const prof::SpanRecord *find(const std::vector<prof::SpanRecord> &Rs,
                             std::string_view Name) {
  for (const prof::SpanRecord &R : Rs)
    if (std::string_view(R.Name) == Name)
      return &R;
  return nullptr;
}

TEST(Profile, DisabledByDefaultRecordsNothing) {
  ASSERT_FALSE(prof::enabled());
  {
    prof::Span S("ghost");
    EXPECT_EQ(S.id(), 0u);
  }
  EXPECT_EQ(prof::currentSpanId(), 0u);
  EXPECT_TRUE(prof::snapshot().empty());
}

TEST(Profile, StartClearsPreviousRecords) {
  {
    ProfSession P;
    { prof::Span S("stale"); }
    EXPECT_EQ(prof::snapshot().size(), 1u);
    prof::start(); // restart: prior records are dropped
    EXPECT_TRUE(prof::snapshot().empty());
  }
  EXPECT_TRUE(prof::snapshot().empty());
}

TEST(Profile, SpansNestWithParentIds) {
  ProfSession P;
  uint64_t OuterId, InnerId;
  {
    prof::Span Outer("verify_pair", "f");
    OuterId = Outer.id();
    ASSERT_NE(OuterId, 0u);
    EXPECT_EQ(prof::currentSpanId(), OuterId);
    {
      prof::Span Inner("encode");
      InnerId = Inner.id();
      EXPECT_EQ(prof::currentSpanId(), InnerId);
    }
    EXPECT_EQ(prof::currentSpanId(), OuterId);
  }
  EXPECT_EQ(prof::currentSpanId(), 0u);

  std::vector<prof::SpanRecord> Rs = prof::snapshot();
  ASSERT_EQ(Rs.size(), 2u);
  // Children close first, so records are inner-before-outer.
  const prof::SpanRecord *Outer = find(Rs, "verify_pair");
  const prof::SpanRecord *Inner = find(Rs, "encode");
  ASSERT_TRUE(Outer && Inner);
  EXPECT_EQ(Outer->Parent, 0u);
  EXPECT_EQ(Inner->Parent, OuterId);
  EXPECT_EQ(Outer->Id, OuterId);
  EXPECT_EQ(Inner->Id, InnerId);
  EXPECT_EQ(Outer->Detail, "f");
  EXPECT_GE(Outer->DurSec, Inner->DurSec);
  EXPECT_GE(Inner->StartSec, Outer->StartSec);
  EXPECT_EQ(Outer->Tid, prof::threadId());
}

TEST(Profile, TallyDeltasAttributeToTheOpenSpan) {
  ProfSession P;
  {
    prof::Span Outer("outer");
    prof::tally().Conflicts += 3;
    {
      prof::Span Inner("inner");
      prof::tally().Conflicts += 7;
      prof::tally().Rewrites += 2;
      ++prof::tally().SatChecks;
    }
    prof::tally().Decisions += 5;
  }
  std::vector<prof::SpanRecord> Rs = prof::snapshot();
  const prof::SpanRecord *Outer = find(Rs, "outer");
  const prof::SpanRecord *Inner = find(Rs, "inner");
  ASSERT_TRUE(Outer && Inner);
  EXPECT_EQ(Inner->Effort.Conflicts, 7u);
  EXPECT_EQ(Inner->Effort.Rewrites, 2u);
  EXPECT_EQ(Inner->Effort.SatChecks, 1u);
  EXPECT_EQ(Inner->Effort.Decisions, 0u);
  // Deltas are inclusive of children.
  EXPECT_EQ(Outer->Effort.Conflicts, 10u);
  EXPECT_EQ(Outer->Effort.Decisions, 5u);
  EXPECT_EQ(Outer->Effort.SatChecks, 1u);
}

TEST(Profile, DisabledSpanMeasuresAndRecordsItsSampler) {
  ASSERT_FALSE(prof::enabled());
  stats::Registry::get().reset();
  {
    prof::Span S("measured", {}, stats::sampler("test.span_time"));
    prof::tally().Conflicts += 3;
    prof::tally().SolverSeconds += 0.5;
    EXPECT_EQ(S.id(), 0u);
    EXPECT_GE(S.seconds(), 0.0);
    EXPECT_EQ(S.effort().Conflicts, 3u);
    EXPECT_EQ(S.effort().SolverSeconds, 0.5);
  }
  EXPECT_TRUE(prof::snapshot().empty());
  stats::DistSummary D =
      stats::Registry::get().snapshot().dist("test.span_time");
  EXPECT_EQ(D.Count, 1u);
  EXPECT_GE(D.Sum, 0.0);
}

TEST(Profile, PeakClausesArePerSpan) {
  auto check = [](uint64_t Clauses) {
    prof::Span S("check");
    prof::tally().Clauses = std::max(prof::tally().Clauses, Clauses);
    return S.effort().Clauses;
  };
  prof::Span Outer("outer");
  EXPECT_EQ(Outer.effort().Clauses, 0u);
  {
    prof::Span First("first");
    EXPECT_EQ(check(40), 40u);
    EXPECT_EQ(check(25), 25u); // a sibling's peak does not leak in
    EXPECT_EQ(First.effort().Clauses, 40u);
  }
  {
    prof::Span Second("second");
    EXPECT_EQ(Second.effort().Clauses, 0u);
    EXPECT_EQ(check(10), 10u);
    EXPECT_EQ(Second.effort().Clauses, 10u);
  }
  // Each child's peak folds into its parent.
  EXPECT_EQ(Outer.effort().Clauses, 40u);
}

TEST(Profile, CaptureAdoptCrossesThreads) {
  ProfSession P;
  uint64_t BatchId, RemoteId = 0, RemoteParent = ~0ull;
  {
    prof::Span Batch("verify_batch");
    BatchId = Batch.id();
    prof::Context Ctx = prof::capture();
    EXPECT_EQ(Ctx.SpanId, BatchId);
    std::thread Worker([&] {
      prof::Adopt Adopt(Ctx);
      // The worker's own stack is empty: the adopted id is the parent.
      EXPECT_EQ(prof::currentSpanId(), BatchId);
      prof::Span S("verify_pair");
      RemoteId = S.id();
    });
    Worker.join();
    // Cross-thread spans never touch the submitter's stack.
    EXPECT_EQ(prof::currentSpanId(), BatchId);
  }
  const prof::SpanRecord *Remote = nullptr;
  for (const prof::SpanRecord &R : prof::snapshot())
    if (R.Id == RemoteId)
      RemoteParent = R.Parent, Remote = &R;
  ASSERT_NE(RemoteId, 0u);
  EXPECT_EQ(RemoteParent, BatchId);
  (void)Remote;
}

TEST(Profile, AdoptRestoresPreviousInheritance) {
  ProfSession P;
  std::thread Worker([] {
    prof::Context First;
    First.SpanId = 42;
    First.Path = "a>b";
    prof::Adopt A(First);
    EXPECT_EQ(prof::currentSpanId(), 42u);
    {
      prof::Context Second;
      Second.SpanId = 99;
      Second.Path = "c";
      prof::Adopt B(Second);
      EXPECT_EQ(prof::currentSpanId(), 99u);
    }
    // Workers are reused across jobs: the outer adoption must come back.
    EXPECT_EQ(prof::currentSpanId(), 42u);
  });
  Worker.join();
}

TEST(Profile, AggregateComputesSelfTime) {
  ProfSession P;
  {
    prof::Span Outer("agg_outer");
    { prof::Span Inner("agg_inner"); }
    { prof::Span Inner("agg_inner"); }
  }
  std::vector<prof::PhaseAgg> Aggs = prof::aggregate();
  const prof::PhaseAgg *Outer = nullptr, *Inner = nullptr;
  for (const prof::PhaseAgg &A : Aggs) {
    if (A.Name == "agg_outer")
      Outer = &A;
    if (A.Name == "agg_inner")
      Inner = &A;
  }
  ASSERT_TRUE(Outer && Inner);
  EXPECT_EQ(Outer->Count, 1u);
  EXPECT_EQ(Inner->Count, 2u);
  EXPECT_GE(Inner->MaxSec, Inner->MeanSec);
  EXPECT_NEAR(Inner->MeanSec * 2, Inner->TotalSec, 1e-12);
  // Outer's self time excludes the two inner spans (clamped at >= 0).
  EXPECT_GE(Outer->SelfSec, 0.0);
  EXPECT_LE(Outer->SelfSec, Outer->TotalSec);
  // Leaves have no children: self == total.
  EXPECT_DOUBLE_EQ(Inner->SelfSec, Inner->TotalSec);
}

TEST(Profile, TableListsPhases) {
  ProfSession P;
  { prof::Span S("table_phase"); }
  std::string T = prof::table();
  EXPECT_NE(T.find("table_phase"), std::string::npos);
  EXPECT_NE(T.find("phase"), std::string::npos);
  EXPECT_NE(T.find("self s"), std::string::npos);
}

TEST(Profile, WriteChromeTraceEmitsTracksAndSpans) {
  ProfSession P;
  {
    prof::Span Outer("chrome_outer", "detail \"quoted\"");
    { prof::Span Inner("chrome_inner"); }
  }
  std::string Path = testing::TempDir() + "/profile_test_chrome.json";
  ASSERT_TRUE(prof::writeChromeTrace(Path));

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Doc = Buf.str();
  EXPECT_NE(Doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Doc.find("\"displayTimeUnit\""), std::string::npos);
  // One metadata event names this thread's track...
  EXPECT_NE(Doc.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(Doc.find("thread_name"), std::string::npos);
  // ...and both spans appear as complete events with escaped details.
  EXPECT_NE(Doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Doc.find("\"name\":\"chrome_outer\""), std::string::npos);
  EXPECT_NE(Doc.find("\"name\":\"chrome_inner\""), std::string::npos);
  EXPECT_NE(Doc.find("detail \\\"quoted\\\""), std::string::npos);
}

TEST(Profile, WriteChromeTraceFailsOnBadPath) {
  ProfSession P;
  EXPECT_FALSE(prof::writeChromeTrace("/nonexistent-dir/trace.json"));
}

TEST(Profile, SlowQueryLogDumpsPathAndCounters) {
  ProfSession P;
  std::ostringstream Log;
  prof::setSlowQueryStream(&Log);
  prof::setSlowQueryMs(0.0); // every staged_query qualifies
  {
    prof::Span Pair("verify_pair", "f");
    prof::Span Q("staged_query", "poison");
    prof::tally().Conflicts += 4;
  }
  std::string S = Log.str();
  EXPECT_NE(S.find("[slow-query]"), std::string::npos);
  EXPECT_NE(S.find("verify_pair>staged_query"), std::string::npos);
  EXPECT_NE(S.find("check=\"poison\""), std::string::npos);
  EXPECT_NE(S.find("conflicts=4"), std::string::npos);
}

TEST(Profile, SlowQueryLogIgnoresFastAndOtherSpans) {
  ProfSession P;
  std::ostringstream Log;
  prof::setSlowQueryStream(&Log);
  prof::setSlowQueryMs(1e6); // nothing is that slow
  { prof::Span Q("staged_query", "fast"); }
  prof::setSlowQueryMs(0.0);
  { prof::Span Other("encode"); } // wrong phase: not a query
  EXPECT_TRUE(Log.str().empty());
}

} // namespace
