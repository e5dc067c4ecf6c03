//===- tests/support/GovernorTest.cpp - ResourceGovernor unit tests ----------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ResourceGovernor.h"

#include "gtest/gtest.h"

#include <chrono>
#include <thread>

using namespace alive;
using namespace alive::support;

namespace {

using Trip = ResourceGovernor::Trip;

void sleepSec(double Sec) {
  std::this_thread::sleep_for(std::chrono::duration<double>(Sec));
}

TEST(GovernorTest, ProcessRssIsPositiveOnSupportedPlatforms) {
  size_t Rss = ResourceGovernor::processRssBytes();
  if (Rss == 0)
    GTEST_SKIP() << "RSS sampling unsupported on this platform";
  // A running test binary certainly resides in more than a page.
  EXPECT_GT(Rss, size_t(4096));
}

TEST(GovernorTest, WatchdogShedsLongestRunningJobFirst) {
  if (ResourceGovernor::processRssBytes() == 0)
    GTEST_SKIP() << "RSS sampling unsupported on this platform";
  ResourceGovernor::Config C;
  C.MaxRssBytes = 1; // any real process is over this bound
  C.SampleIntervalSec = 0.002;
  ResourceGovernor G(C);
  auto Old = G.beginJob("old");
  sleepSec(0.005);
  auto Young = G.beginJob("young");
  for (int I = 0; I < 200 && !Old->cancelled(); ++I)
    sleepSec(0.005);
  ASSERT_TRUE(Old->cancelled());
  EXPECT_EQ(Old->trip(), Trip::Watchdog);
  // One job per tick: the younger one follows on a later sample.
  for (int I = 0; I < 200 && !Young->cancelled(); ++I)
    sleepSec(0.005);
  EXPECT_TRUE(Young->cancelled());
  EXPECT_EQ(Young->trip(), Trip::Watchdog);
  G.endJob(Old);
  G.endJob(Young);
}

TEST(GovernorTest, CancelAllRecordsNoTrip) {
  ResourceGovernor::Config C;
  C.SampleIntervalSec = 0.01;
  ResourceGovernor G(C);
  auto J = G.beginJob("user-cancelled");
  G.cancelAll();
  EXPECT_TRUE(J->cancelled());
  EXPECT_EQ(J->trip(), Trip::None);
  G.endJob(J);
}

TEST(GovernorTest, JobScopeIsNullSafeAndUnregisters) {
  {
    ResourceGovernor::JobScope Inert(nullptr, "nothing");
    EXPECT_EQ(Inert.job(), nullptr);
  }
  ResourceGovernor::Config C;
  C.SampleIntervalSec = 0.01;
  ResourceGovernor G(C);
  {
    ResourceGovernor::JobScope S(&G, "scoped");
    ASSERT_NE(S.job(), nullptr);
    EXPECT_EQ(G.activeJobs(), 1u);
  }
  EXPECT_EQ(G.activeJobs(), 0u);
}

} // namespace
