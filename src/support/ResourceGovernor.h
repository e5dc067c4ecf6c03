//===- support/ResourceGovernor.h - Memory watchdog -------------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory watchdog behind refine::Validator: one background thread that
/// samples process RSS against a global bound. Work units register as Jobs;
/// each Job owns an atomic cancel flag that the Validator wires into the
/// pair's SolverBudget, so the watchdog can cancel exactly one in-flight
/// pair without disturbing its siblings — unlike the Validator's
/// CancellationToken, which is all-or-nothing. (The batch deadline needs
/// no thread: it is an instant in each pair's smt::TimeLimit.)
///
/// Policy: when RSS exceeds the bound, the watchdog cancels the
/// longest-running un-cancelled job — the best cheap proxy for "most
/// expensive" — and rechecks on the next sample, shedding one job per tick
/// until the process is back under the bound or idle. Each such
/// cancellation records its Trip so the Validator can rewrite the resulting
/// cancelled-Timeout verdict honestly.
///
/// Observability: watchdog.* counters, a watchdog.rss_mb sample
/// distribution, and "watchdog" trace events.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SUPPORT_RESOURCEGOVERNOR_H
#define ALIVE2RE_SUPPORT_RESOURCEGOVERNOR_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace alive::support {

class ResourceGovernor {
public:
  struct Config {
    /// Process RSS bound in bytes (0 = watchdog off).
    size_t MaxRssBytes = 0;
    /// Sampler wake-up interval.
    double SampleIntervalSec = 0.02;
  };

  /// Who cancelled a job. None means the flag was set by cancelAll() (user
  /// cancellation) or not at all.
  enum class Trip : uint8_t { None, Watchdog };

  /// One governed work unit. The Cancel flag is what the solver polls
  /// (via SolverBudget::Cancel and smt::TimeLimit::poll); Why is written
  /// before Cancel with release ordering, so a trip() read after observing
  /// the cancellation sees the culprit.
  struct Job {
    std::atomic<bool> Cancel{false};
    std::atomic<Trip> Why{Trip::None};
    std::chrono::steady_clock::time_point Start;
    std::string Name;

    Trip trip() const { return Why.load(std::memory_order_acquire); }
    bool cancelled() const {
      return Cancel.load(std::memory_order_acquire);
    }
  };

  explicit ResourceGovernor(Config C);
  ~ResourceGovernor();

  ResourceGovernor(const ResourceGovernor &) = delete;
  ResourceGovernor &operator=(const ResourceGovernor &) = delete;

  /// Registers an in-flight work unit. Prefer JobScope.
  std::shared_ptr<Job> beginJob(std::string Name);
  void endJob(const std::shared_ptr<Job> &J);
  size_t activeJobs() const;

  /// Cancels every in-flight job without recording a Trip — the fan-out
  /// for user-level cancellation (Validator::requestCancel).
  void cancelAll();

  /// Current resident-set size of this process in bytes; 0 when the
  /// platform offers no cheap way to read it (the watchdog is then inert).
  static size_t processRssBytes();

  /// RAII job registration; inert when \p G is null.
  class JobScope {
  public:
    JobScope(ResourceGovernor *G, std::string Name) : G(G) {
      if (G)
        J = G->beginJob(std::move(Name));
    }
    ~JobScope() {
      if (G && J)
        G->endJob(J);
    }
    JobScope(const JobScope &) = delete;
    JobScope &operator=(const JobScope &) = delete;
    Job *job() const { return J.get(); }

  private:
    ResourceGovernor *G;
    std::shared_ptr<Job> J;
  };

private:
  void samplerLoop();

  const Config Cfg;
  mutable std::mutex Mu;
  std::condition_variable Cv;
  std::vector<std::shared_ptr<Job>> Active; ///< guarded by Mu
  bool Stop = false; ///< guarded by Mu; Cv-signalled
  std::thread Sampler;
};

} // namespace alive::support

#endif // ALIVE2RE_SUPPORT_RESOURCEGOVERNOR_H
