//===- support/Profile.h - Hierarchical thread-aware profiling --*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An RAII span subsystem attributing wall time and solver effort to the
/// phases of the verification pipeline (the telemetry behind the paper's
/// Figures 7-8 breakdowns). Each thread keeps a thread_local stack of open
/// spans, so spans nest naturally:
///
///   verify_pair > unroll / encode / staged_query > ef_iteration > sat_check
///
/// A span is the one measurement of its phase. It always records its wall
/// time (steady clock) plus deltas of the per-thread effort tally between
/// construction and destruction, so solver work is *attributed* to the
/// phase that incurred it; callers read seconds() and effort() rather than
/// timing the phase again. The tally is thread_local and a pair is verified
/// entirely on one thread (see refine::Validator), so attribution stays
/// exact under `-j N`; deltas are inclusive of child spans.
///
/// Spans cross thread boundaries explicitly: support::ThreadPool::post
/// captures a Context (current span id + path) on the posting thread, and
/// the worker that runs the task installs it with an Adopt guard, making
/// the batch span the parent of every per-pair span it spawned.
///
/// Profiling (off by default) decides only whether a span gets an id and a
/// record; the tally increments are unconditional plain thread_local adds
/// (cheaper than the stats registry's atomics on the same paths).
///
/// Consumers (see also tools/check_trace.py and DESIGN.md):
///  * writeChromeTrace() - Chrome trace-event JSON, loadable in Perfetto /
///    chrome://tracing, one track per worker thread;
///  * table() / aggregate() - per-phase count / total / mean / max / self
///    wall seconds (self = total minus time in child spans);
///  * setSlowQueryMs() - dumps the full span path and counter deltas of
///    any staged_query span exceeding the threshold.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SUPPORT_PROFILE_H
#define ALIVE2RE_SUPPORT_PROFILE_H

#include "support/Diag.h"
#include "support/Stats.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace alive::prof {

/// True while spans are being collected. Relaxed atomic load.
bool enabled();

/// Clears collected records, resets the epoch and enables collection.
void start();

/// Stops collection; records already gathered remain for the consumers.
void stop();

/// Drops every collected record (collection state unchanged).
void clear();

/// Dense per-thread id (0, 1, 2, ... in first-use order), independent of
/// profiling state. Shared with trace::Event's "tid" field so JSONL traces
/// and Chrome tracks agree.
unsigned threadId();

/// Per-thread running totals of solver effort, bumped unconditionally by
/// the instrumented layers (SatSolver::solve, Simplify's fold). Spans
/// snapshot this at both ends; the difference is the span's effort.
struct Tally {
  /// Wall time of the sat_solve spans.
  double SolverSeconds = 0;
  uint64_t SatChecks = 0;
  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t Restarts = 0;
  uint64_t Rewrites = 0;
  /// Peak clause-database size at the end of a SAT check: a high-water
  /// mark that a span saves and clears when it opens and folds back in when
  /// it closes, so a span's effort holds the peak of its own checks.
  uint64_t Clauses = 0;

  /// The effort keys, listed once: calls \p F(key, value) per field. Trace
  /// events, Chrome args and the slow-query log print a tally through it.
  template <typename Fn> void forEach(Fn &&F) const {
    F("solver_seconds", SolverSeconds);
    F("sat_checks", SatChecks);
    F("conflicts", Conflicts);
    F("decisions", Decisions);
    F("propagations", Propagations);
    F("restarts", Restarts);
    F("rewrites", Rewrites);
    F("clauses", Clauses);
  }
};
Tally &tally();

/// One completed span.
struct SpanRecord {
  uint64_t Id = 0;
  /// Enclosing span (same thread, or adopted across a job boundary);
  /// 0 = top level.
  uint64_t Parent = 0;
  /// Static phase name ("verify_pair", "staged_query", ...).
  const char *Name = "";
  /// Dynamic label: function name, staged-check name, ... (may be empty).
  std::string Detail;
  unsigned Tid = 0;
  /// Start, seconds since the start() epoch.
  double StartSec = 0;
  double DurSec = 0;
  /// Span::effort() at close.
  Tally Effort;
};

/// RAII span. The detail string is only copied when profiling is enabled.
class Span {
public:
  explicit Span(const char *Name, std::string_view Detail = {},
                stats::Sampler Time = {});
  ~Span();

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// This span's id, 0 when profiling was disabled at construction.
  uint64_t id() const { return SpanId; }

  /// Wall seconds since the span opened.
  double seconds() const { return Clock.seconds(); }

  /// This thread's effort since the span opened, children included;
  /// Clauses is the peak over the span's SAT checks so far.
  Tally effort() const;

private:
  uint64_t SpanId = 0;
  uint64_t ParentId = 0;
  const char *Name = "";
  std::string Detail;
  stats::Sampler Time;
  double Start = 0;
  Stopwatch Clock;
  /// The tally at open; its Clauses is the enclosing peak to fold back.
  Tally At0;
};

/// Innermost open span on this thread (or the adopted parent when the
/// thread's own stack is empty); 0 when none. Feeds trace::Event's "span"
/// field.
uint64_t currentSpanId();

/// Captured span context for cross-thread propagation: take it on the
/// submitting thread, install it on the worker with Adopt.
struct Context {
  uint64_t SpanId = 0;
  /// ">"-joined names of the open spans, used by the slow-query log so a
  /// worker-side path still shows its batch-side prefix.
  std::string Path;
};
Context capture();

/// RAII guard installing a captured Context as this thread's inherited
/// parent; restores the previous inheritance on destruction (workers are
/// reused across jobs).
class Adopt {
public:
  explicit Adopt(const Context &Ctx);
  ~Adopt();

  Adopt(const Adopt &) = delete;
  Adopt &operator=(const Adopt &) = delete;

private:
  uint64_t PrevSpan;
  std::string PrevPath;
};

/// Slow-query log: any "staged_query" span whose duration meets \p Ms
/// milliseconds dumps its full span path and tally deltas when it ends.
/// Negative disables (the default).
void setSlowQueryMs(double Ms);

/// Redirects the slow-query log (test hook); nullptr restores stderr.
void setSlowQueryStream(std::ostream *OS);

/// Copy of every completed span so far.
std::vector<SpanRecord> snapshot();

/// Per-phase aggregation of the collected spans.
struct PhaseAgg {
  std::string Name;
  uint64_t Count = 0;
  double TotalSec = 0;
  double MeanSec = 0;
  double MaxSec = 0;
  /// Total minus time spent in child spans (clamped at 0: children of a
  /// parallel batch span can sum past their parent's wall time).
  double SelfSec = 0;
  uint64_t Conflicts = 0;
};
std::vector<PhaseAgg> aggregate();

/// Human-readable per-phase table of aggregate() (--profile output).
std::string table();

/// Writes the collected spans as Chrome trace-event JSON (one complete "X"
/// event per span, one track per thread), loadable in Perfetto or
/// chrome://tracing. \returns false when the file cannot be opened.
bool writeChromeTrace(const std::string &Path);

} // namespace alive::prof

#endif // ALIVE2RE_SUPPORT_PROFILE_H
