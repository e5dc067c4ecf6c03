//===- tests/support/StatsTest.cpp ------------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
// Unit tests for the observability layer: the statistics registry
// (counters, distributions, reset semantics) and the JSONL trace sink
// (well-formed lines, event ordering, escaping, disabled-by-default).
//===----------------------------------------------------------------------===//

#include "support/Stats.h"
#include "support/Trace.h"

#include "gtest/gtest.h"

#include <sstream>
#include <vector>

using namespace alive;
using namespace alive::stats;

namespace {

TEST(Stats, CounterIncrements) {
  Counter C = counter("test.counter_increments");
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  EXPECT_EQ(C.value(), 1u);
  C.inc(41);
  EXPECT_EQ(C.value(), 42u);
}

TEST(Stats, DefaultCounterIsNoop) {
  Counter C;
  C.inc();
  EXPECT_EQ(C.value(), 0u);
}

TEST(Stats, SameNameSharesSlot) {
  Counter A = counter("test.shared_slot");
  Counter B = counter("test.shared_slot");
  A.inc(3);
  B.inc(4);
  EXPECT_EQ(A.value(), 7u);
  EXPECT_EQ(B.value(), 7u);
}

TEST(Stats, MacroHandleWorks) {
  auto Bump = [] {
    ALIVE_STAT_COUNTER(C, "test.macro_handle");
    C.inc();
  };
  Bump();
  Bump();
  EXPECT_EQ(counter("test.macro_handle").value(), 2u);
}

TEST(Stats, DistributionSummary) {
  Registry &R = Registry::get();
  R.addSample("test.dist", 2.0);
  R.addSample("test.dist", 5.0);
  R.addSample("test.dist", 3.0);
  DistSummary D = R.snapshot().dist("test.dist");
  EXPECT_EQ(D.Count, 3u);
  EXPECT_DOUBLE_EQ(D.Sum, 10.0);
  EXPECT_DOUBLE_EQ(D.Min, 2.0);
  EXPECT_DOUBLE_EQ(D.Max, 5.0);
}

TEST(Stats, SnapshotLookupMissing) {
  Snapshot S = Registry::get().snapshot();
  EXPECT_EQ(S.counter("test.never_registered"), 0u);
  EXPECT_EQ(S.dist("test.never_registered").Count, 0u);
}

TEST(Stats, ResetZeroesButKeepsHandles) {
  Counter C = counter("test.reset_handle");
  C.inc(9);
  Registry::get().addSample("test.reset_dist", 1.5);
  Registry::get().reset();
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(Registry::get().snapshot().dist("test.reset_dist").Count, 0u);
  // The handle must survive the reset.
  C.inc(2);
  EXPECT_EQ(C.value(), 2u);
  EXPECT_EQ(counter("test.reset_handle").value(), 2u);
}

TEST(Stats, TableListsEntries) {
  Counter C = counter("test.table_entry");
  C.inc(5);
  Registry::get().addSample("test.table_dist", 0.25);
  std::string T = Registry::get().table();
  EXPECT_NE(T.find("test.table_entry"), std::string::npos);
  EXPECT_NE(T.find("test.table_dist"), std::string::npos);
}

// ---- Trace ----------------------------------------------------------------

/// Splits the sink contents into lines (dropping the trailing empty one).
std::vector<std::string> lines(const std::ostringstream &SS) {
  std::vector<std::string> Out;
  std::istringstream In(SS.str());
  std::string L;
  while (std::getline(In, L))
    Out.push_back(L);
  return Out;
}

TEST(Trace, DisabledByDefault) {
  trace::close();
  EXPECT_FALSE(trace::enabled());
  // Emitting with no sink is a harmless no-op.
  trace::Event("nothing").num("x", 1);
}

TEST(Trace, EmitsWellFormedJsonl) {
  std::ostringstream SS;
  trace::setStream(&SS);
  EXPECT_TRUE(trace::enabled());
  trace::Event("alpha").str("name", "first").num("count", 3).flag("ok", true);
  trace::Event("beta").num("seconds", 0.5).flag("ok", false);
  trace::setStream(nullptr);
  EXPECT_FALSE(trace::enabled());

  auto Ls = lines(SS);
  ASSERT_EQ(Ls.size(), 2u);
  // Ordering preserved; every line is one complete JSON object with the
  // mandatory "event" and "t" fields first.
  EXPECT_EQ(Ls[0].rfind("{\"event\":\"alpha\",\"t\":", 0), 0u);
  EXPECT_EQ(Ls[1].rfind("{\"event\":\"beta\",\"t\":", 0), 0u);
  for (const std::string &L : Ls) {
    EXPECT_EQ(L.back(), '}');
    EXPECT_EQ(std::count(L.begin(), L.end(), '{'), 1);
    EXPECT_EQ(std::count(L.begin(), L.end(), '}'), 1);
  }
  EXPECT_NE(Ls[0].find("\"name\":\"first\""), std::string::npos);
  EXPECT_NE(Ls[0].find("\"count\":3"), std::string::npos);
  EXPECT_NE(Ls[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(Ls[1].find("\"seconds\":0.5"), std::string::npos);
  EXPECT_NE(Ls[1].find("\"ok\":false"), std::string::npos);
}

TEST(Trace, NoOutputWhenDetached) {
  std::ostringstream SS;
  trace::setStream(&SS);
  trace::setStream(nullptr);
  trace::Event("ghost").num("x", 1);
  EXPECT_TRUE(SS.str().empty());
}

TEST(Trace, JsonEscape) {
  EXPECT_EQ(trace::jsonEscape("plain"), "plain");
  EXPECT_EQ(trace::jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(trace::jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(trace::jsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(trace::jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Trace, EscapesFieldValues) {
  std::ostringstream SS;
  trace::setStream(&SS);
  trace::Event("esc").str("msg", "line1\nline2 \"quoted\"");
  trace::setStream(nullptr);
  auto Ls = lines(SS);
  ASSERT_EQ(Ls.size(), 1u);
  EXPECT_NE(Ls[0].find("\"msg\":\"line1\\nline2 \\\"quoted\\\"\""),
            std::string::npos);
}

} // namespace
