//===- support/ResourceGovernor.cpp - Memory watchdog --------------------===//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ResourceGovernor.h"

#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>

#if defined(__linux__)
#include <unistd.h>
#endif

using namespace alive;
using namespace alive::support;

using Clock = std::chrono::steady_clock;

ResourceGovernor::ResourceGovernor(Config C) : Cfg(C) {
  Sampler = std::thread([this] { samplerLoop(); });
}

ResourceGovernor::~ResourceGovernor() {
  {
    std::lock_guard<std::mutex> L(Mu);
    Stop = true;
  }
  Cv.notify_all();
  Sampler.join();
}

std::shared_ptr<ResourceGovernor::Job>
ResourceGovernor::beginJob(std::string Name) {
  auto J = std::make_shared<Job>();
  J->Start = Clock::now();
  J->Name = std::move(Name);
  std::lock_guard<std::mutex> L(Mu);
  Active.push_back(J);
  return J;
}

void ResourceGovernor::endJob(const std::shared_ptr<Job> &J) {
  std::lock_guard<std::mutex> L(Mu);
  Active.erase(std::remove(Active.begin(), Active.end(), J), Active.end());
}

size_t ResourceGovernor::activeJobs() const {
  std::lock_guard<std::mutex> L(Mu);
  return Active.size();
}

void ResourceGovernor::cancelAll() {
  std::lock_guard<std::mutex> L(Mu);
  for (auto &J : Active)
    J->Cancel.store(true, std::memory_order_release);
}

size_t ResourceGovernor::processRssBytes() {
#if defined(__linux__)
  // /proc/self/statm: total program size then resident set, both in pages.
  FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  unsigned long long Size = 0, Resident = 0;
  int N = std::fscanf(F, "%llu %llu", &Size, &Resident);
  std::fclose(F);
  if (N != 2)
    return 0;
  long Page = sysconf(_SC_PAGESIZE);
  if (Page <= 0)
    return 0;
  return (size_t)Resident * (size_t)Page;
#else
  return 0;
#endif
}

void ResourceGovernor::samplerLoop() {
  ALIVE_STAT_COUNTER(SampleCount, "watchdog.samples");
  ALIVE_STAT_COUNTER(WatchdogTrips, "watchdog.trips");
  ALIVE_STAT_COUNTER(WatchdogCancelled, "watchdog.cancelled");
  ALIVE_STAT_SAMPLER(RssMb, "watchdog.rss_mb");

  auto Interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(
          Cfg.SampleIntervalSec > 0 ? Cfg.SampleIntervalSec : 0.02));

  std::unique_lock<std::mutex> L(Mu);
  while (!Stop) {
    Cv.wait_for(L, Interval, [this] { return Stop; });
    if (Stop)
      break;
    if (!Cfg.MaxRssBytes)
      continue;

    // RSS read can touch the filesystem; don't hold the lock for it.
    L.unlock();
    size_t Rss = processRssBytes();
    L.lock();
    if (!Rss)
      continue;
    SampleCount.inc();
    RssMb.record((double)Rss / (1024.0 * 1024.0));
    if (Rss <= Cfg.MaxRssBytes)
      continue;

    // Over the bound: shed the longest-running un-cancelled job (the best
    // cheap proxy for the most expensive one) and recheck next tick.
    WatchdogTrips.inc();
    Job *Victim = nullptr;
    for (auto &J : Active) {
      if (J->Cancel.load(std::memory_order_acquire))
        continue;
      if (!Victim || J->Start < Victim->Start)
        Victim = J.get();
    }
    if (!Victim)
      continue;
    Victim->Why.store(Trip::Watchdog, std::memory_order_relaxed);
    Victim->Cancel.store(true, std::memory_order_release);
    WatchdogCancelled.inc();
    if (trace::enabled())
      trace::Event("watchdog")
          .str("victim", Victim->Name)
          .num("rss_bytes", (uint64_t)Rss)
          .num("limit_bytes", (uint64_t)Cfg.MaxRssBytes)
          .num("elapsed_sec", std::chrono::duration<double>(Clock::now() -
                                                            Victim->Start)
                                  .count());
  }
}
