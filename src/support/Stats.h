//===- support/Stats.h - Structured statistics registry ---------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of named statistics backing the observability
/// layer (the analog of the telemetry behind the paper's Figures 7 and 8):
///
///  * counters  - monotone event counts ("sat.conflicts"), relaxed-atomic
///    so hot paths may bump them from any thread without coordination;
///  * samples   - value distributions summarized as count/sum/min/max
///    ("time.verify" wall seconds per pair, recorded by the verify_pair
///    prof::Span).
///
/// Handles returned by counter() stay valid forever: reset() zeroes the
/// values between verifications but never invalidates a slot, so
/// function-local static handles (ALIVE_STAT_COUNTER) are safe. Everything
/// is off the hot path except Counter::inc, which is a single relaxed
/// fetch_add.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SUPPORT_STATS_H
#define ALIVE2RE_SUPPORT_STATS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace alive::stats {

/// Cheap copyable handle to one named counter in the global registry.
class Counter {
public:
  Counter() = default;

  void inc(uint64_t N = 1) {
    if (Slot)
      Slot->fetch_add(N, std::memory_order_relaxed);
  }
  uint64_t value() const {
    return Slot ? Slot->load(std::memory_order_relaxed) : 0;
  }

private:
  friend class Registry;
  explicit Counter(std::atomic<uint64_t> *Slot) : Slot(Slot) {}
  std::atomic<uint64_t> *Slot = nullptr;
};

/// Summary of a sample stream. Min/Max are meaningless when Count == 0.
struct DistSummary {
  uint64_t Count = 0;
  double Sum = 0;
  double Min = 0;
  double Max = 0;
};

/// Cheap copyable handle to one named distribution. record() takes the
/// registry mutex but skips the name lookup, so per-SAT-check sampling
/// stays off the measurable path (see ALIVE_STAT_SAMPLER).
class Sampler {
public:
  Sampler() = default;

  void record(double Value);

private:
  friend class Registry;
  explicit Sampler(DistSummary *Slot) : Slot(Slot) {}
  DistSummary *Slot = nullptr;
};

/// A point-in-time copy of the registry, sorted by name.
struct Snapshot {
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, DistSummary>> Dists;

  /// Convenience lookups (zero / empty summary when absent).
  uint64_t counter(const std::string &Name) const;
  DistSummary dist(const std::string &Name) const;
};

/// The process-wide registry.
class Registry {
public:
  static Registry &get();

  /// Finds or creates the counter \p Name. The returned handle is valid for
  /// the life of the process.
  Counter counter(const std::string &Name);

  /// Records one sample of the distribution \p Name.
  void addSample(const std::string &Name, double Value);

  /// Finds or creates the distribution \p Name. Like counter handles, the
  /// result stays valid for the life of the process.
  Sampler sampler(const std::string &Name);

  /// Zeroes every counter and clears every distribution (handles stay
  /// valid). Call between verifications for per-run numbers.
  void reset();

  Snapshot snapshot() const;

  /// Human-readable aligned table of the current values (--stats output).
  std::string table() const;

private:
  Registry() = default;

  friend class Sampler;

  mutable std::mutex Mu;
  // unique_ptr slots: Counter and Sampler handles hold raw pointers, so
  // the slots must never move when the map rebalances, and reset() zeroes
  // them in place instead of erasing.
  std::map<std::string, std::unique_ptr<std::atomic<uint64_t>>> Counters;
  std::map<std::string, std::unique_ptr<DistSummary>> Dists;
};

inline Counter counter(const std::string &Name) {
  return Registry::get().counter(Name);
}
inline void addSample(const std::string &Name, double Value) {
  Registry::get().addSample(Name, Value);
}
inline Sampler sampler(const std::string &Name) {
  return Registry::get().sampler(Name);
}

} // namespace alive::stats

/// Declares a function-local static counter handle: one registry lookup on
/// first execution, a relaxed fetch_add per use afterwards.
#define ALIVE_STAT_COUNTER(VAR, NAME)                                          \
  static ::alive::stats::Counter VAR = ::alive::stats::counter(NAME)

/// Same for a function-local static distribution handle.
#define ALIVE_STAT_SAMPLER(VAR, NAME)                                          \
  static ::alive::stats::Sampler VAR = ::alive::stats::sampler(NAME)

#endif // ALIVE2RE_SUPPORT_STATS_H
