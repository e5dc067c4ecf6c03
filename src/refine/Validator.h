//===- refine/Validator.h - Batch translation-validation engine -*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The front door of the refinement layer: a Validator owns the Options, a
/// cancellation token and (lazily) a FIFO thread pool, and verifies single
/// pairs, explicit pair batches, or whole module pairs with a configurable
/// job count. Every batch takes one path: its tasks are posted to the pool
/// and the call waits, on the pool's workers or, with one job or one pair,
/// on the calling thread. Batch entry points can stream verdicts through
/// onVerdict() as they complete, so a driver validating tens of thousands
/// of pairs (the paper's Sections 7-8 evaluations) reports progress long
/// before the slowest pair finishes.
///
/// Resource governance (see DESIGN.md "Resource governance"): when
/// Options::Retry enables the budget-escalation ladder, Timeout/OutOfMemory
/// verdicts with a budget-shaped Reason are retried with the SolverBudget
/// scaled by Multiplier^rung, each retry queued behind every base attempt;
/// the final Verdict records the rung and the cumulative wall cost across
/// attempts. A batch deadline (Options or the per-call override) is one
/// instant on the steady clock: undispatched pairs return DeadlineSkipped —
/// never Timeout — and it caps each attempt's smt::TimeLimit, so an
/// in-flight pair stops at its next poll after it. The memory watchdog, a
/// support::ResourceGovernor thread that exists only when
/// Options::MaxRssBytes is set, cancels the longest-running pair when
/// process RSS exceeds the bound, surfacing as OutOfMemory with
/// Reason::WatchdogCancelled.
///
/// Threading model: every pair is verified entirely on one thread — the
/// expression context is thread-local (see smt/Expr.h), so workers never
/// contend on the interning hot path, and a Verdict carries only plain data
/// and may cross threads freely. The token's flag (or the pair's watchdog
/// job flag, which the token fans out to) is installed into each pair's
/// SolverBudget; requestCancel() therefore interrupts even a SAT search
/// already in flight (verdict: Timeout, Reason::Cancelled).
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_REFINE_VALIDATOR_H
#define ALIVE2RE_REFINE_VALIDATOR_H

#include "refine/Refinement.h"
#include "support/ThreadPool.h"

#include <functional>
#include <memory>
#include <mutex>

namespace alive::support {
class ResourceGovernor;
}

namespace alive::refine {

/// One completed source/target pair in a batch.
struct PairResult {
  /// Function name (or the task's label for explicit batches).
  std::string Name;
  /// Position in batch submission order; results returned by the batch
  /// entry points are sorted by it regardless of completion order.
  unsigned Index = 0;
  Verdict V;
};

/// Tallies of one batch run, aggregated from per-pair verdicts (per-job
/// stats live on each Verdict; the process-wide stats::Registry keeps
/// accumulating across batches independently).
struct BatchSummary {
  unsigned Pairs = 0;
  unsigned Correct = 0;
  unsigned Incorrect = 0;
  unsigned Timeout = 0;
  unsigned OutOfMemory = 0;
  unsigned Unsupported = 0;
  unsigned Other = 0; ///< precondition-false / failed
  /// Pairs whose verdict was skipped by the batch deadline (disjoint from
  /// Timeout: these never dispatched).
  unsigned DeadlineSkipped = 0;
  /// Pairs whose final verdict came from an escalated retry rung (> 0).
  unsigned Retried = 0;
  /// Pairs answered wholesale by the pair-level cache (Verdict::Cached).
  unsigned CacheHits = 0;
  unsigned QueriesRun = 0;
  /// Sum of per-pair wall times across every retry rung (CPU-ish cost;
  /// wall clock of a parallel batch is smaller).
  double Seconds = 0;

  /// Folds one verdict into the tallies (including Pairs). The one place
  /// verdict kinds are mapped to summary buckets — tools and benches call
  /// this instead of hand-rolling the switch.
  void countVerdict(const Verdict &V);
};

BatchSummary summarize(const std::vector<PairResult> &Results);

/// The batch-verification engine.
class Validator {
public:
  /// One verification job for verifyBatch: a pair plus the module providing
  /// globals (may be null). \p Name labels the result; empty means the
  /// source function's name.
  struct PairTask {
    const ir::Function *Src = nullptr;
    const ir::Function *Tgt = nullptr;
    const ir::Module *M = nullptr;
    std::string Name;
  };

  explicit Validator(Options Opts = Options());
  ~Validator();

  Validator(const Validator &) = delete;
  Validator &operator=(const Validator &) = delete;

  const Options &options() const { return Opts; }

  /// Streaming callback, invoked once per pair as verdicts complete — in
  /// completion order, possibly from worker threads. Only final verdicts
  /// are emitted: a rung that triggers a retry is not. Invocations are
  /// serialized; the callback must not call back into this Validator.
  using VerdictCallback = std::function<void(const PairResult &)>;
  void onVerdict(VerdictCallback CB);

  /// Verifies that \p Tgt refines \p Src; \p M provides globals (may be
  /// null). Runs on the calling thread — the retry ladder included — and
  /// leaves its expression context alone. The batch deadline armed last
  /// (at construction or by the latest batch call) applies. Invalid options
  /// yield a Failed verdict ("options").
  Verdict verifyPair(const ir::Function &Src, const ir::Function &Tgt,
                     const ir::Module *M = nullptr);

  /// Verifies every task across \p Jobs workers (0 = one per hardware
  /// thread; 1, or a single task, = on the calling thread). Attempts start
  /// in task order, retries after every base attempt. Results come back in
  /// task order; onVerdict streams them in completion order. Each task
  /// resets its thread's expression context first, so on the calling thread
  /// the CALLER's context is reset: do not hold live smt::Expr handles
  /// across this call. An attempt that throws gives a Failed verdict
  /// ("exception").
  ///
  /// \p DeadlineSec bounds the batch's wall clock: negative (default) uses
  /// Options::DeadlineSec, 0 disables, positive overrides. The deadline is
  /// fixed as an instant when the call starts; pairs not yet dispatched by
  /// then return VerdictKind::DeadlineSkipped and in-flight pairs stop at
  /// their next poll after it.
  std::vector<PairResult> verifyBatch(const std::vector<PairTask> &Tasks,
                                      unsigned Jobs = 1,
                                      double DeadlineSec = -1);

  /// Convenience over verifyBatch: every function pair with matching names
  /// across two modules, in source-module definition order (the alive-tv
  /// behavior).
  std::vector<PairResult> verifyModules(const ir::Module &Src,
                                        const ir::Module &Tgt,
                                        unsigned Jobs = 1,
                                        double DeadlineSec = -1);

  /// Requests cooperative cancellation: pairs not yet started return
  /// Timeout (Reason::Cancelled) immediately, and in-flight solver searches
  /// abort at their next poll. Sticky until resetCancel().
  void requestCancel();
  bool cancelRequested() const { return Cancel.isCancelled(); }
  void resetCancel() { Cancel.reset(); }

  /// The result cache, shared by every worker of this Validator; null when
  /// Options::Cache disables both levels. Constructed (and, with a
  /// configured Dir, loaded) eagerly in the constructor.
  support::QueryCache *cache() { return Cache.get(); }

  /// Persists the cache to Options::Cache.Dir (no-op otherwise). Also runs
  /// on destruction; call explicitly to observe failures. \returns false
  /// with a diagnostic in \p Err on I/O errors.
  bool flushCache(std::string *Err = nullptr);

private:
  void emit(const PairResult &R);
  /// One ladder attempt on the current thread: deadline/cancel gates, the
  /// rung-scaled budget, watchdog job registration, pair cache, checkPair
  /// under the deadline, and the watchdog-trip verdict rewrite.
  Verdict attemptPair(const ir::Function &Src, const ir::Function &Tgt,
                      const ir::Module *M, unsigned Rung);
  /// Settles the attempt at \p Rung that gave \p V: stamps its rung and
  /// the ladder's cumulative seconds (accumulated in \p Cum) on it.
  /// \returns true when it warrants an escalated retry; otherwise stamps
  /// the ladder's exit (RetriesExhausted, retry counters) on \p V.
  bool settleAttempt(Verdict &V, unsigned Rung, double &Cum) const;
  /// Runs one batch task attempt at \p Rung (context reset + attemptPair),
  /// accumulating wall cost into \p Cum. \returns true when the pair must
  /// be re-enqueued at the next rung; otherwise the final verdict has been
  /// stored in \p Out and emitted.
  bool attemptTask(const PairTask &T, unsigned Index, unsigned Rung,
                   double &Cum, PairResult &Out);
  /// Fixes the batch deadline \p Sec seconds from now; 0 disarms it.
  void setDeadline(double Sec);
  /// Counts deadline.tripped and emits the "deadline" trace event once for
  /// a call whose deadline stopped \p Stopped pairs in flight or skipped
  /// \p Skipped undispatched ones; nothing when both are 0.
  void reportDeadline(unsigned Stopped, unsigned Skipped) const;

  Options Opts;
  support::CancellationToken Cancel;
  std::mutex CallbackMu; ///< guards Callback and serializes emissions
  VerdictCallback Callback;
  std::unique_ptr<support::ThreadPool> Pool; ///< lazily sized to Jobs
  std::unique_ptr<support::QueryCache> Cache;
  std::unique_ptr<support::ResourceGovernor> Gov; ///< the watchdog, if any
  /// The batch deadline: the instant every attempt's TimeLimit stops at
  /// (max() when disarmed), and the seconds it was armed with.
  smt::TimeLimit::Instant Deadline = smt::TimeLimit::Instant::max();
  double DeadlineArmedSec = 0;
};

} // namespace alive::refine

#endif // ALIVE2RE_REFINE_VALIDATOR_H
