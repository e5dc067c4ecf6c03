//===- refine/Refinement.h - Translation validation core --------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 5 refinement check between a source and a target function:
/// clone, unroll (Section 7), encode both (Sections 3-4, 6) — the source
/// twice, once for the premise and once under the inner existential — and
/// run the staged queries of Section 5.3 through the exists-forall engine.
/// Verdicts use the same classes as the paper's Figures 7 and 8: correct,
/// incorrect (with a counterexample), timeout, out-of-memory, and
/// unsupported (an over-approximated feature was involved, Section 3.8).
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_REFINE_REFINEMENT_H
#define ALIVE2RE_REFINE_REFINEMENT_H

#include "ir/Function.h"
#include "smt/Solver.h"

#include <cstddef>
#include <string>
#include <vector>

namespace alive::support {
class QueryCache;
}

namespace alive::refine {

/// Typed early-stop reason (support/Reason.h), carried on Verdict::Why and
/// smt::SolveOutcome::UnknownReason instead of ad-hoc strings.
using support::parseReason;
using support::Reason;
using support::toString;

/// Result-cache configuration (see support/QueryCache.h and DESIGN.md
/// "Query cache"). Both in-memory levels default on: within one Validator
/// they are pure accelerators — a hit returns the same verdict class the
/// solver would re-derive. Turn levels off where exact per-query solver
/// effort must be reproduced (the determinism tests and the batching
/// benchmarks do), or when persisting across runs is the only goal.
struct CachePolicy {
  /// Consult/fill the staged-query level (fingerprint -> sat/unsat).
  bool QueryLevel = true;
  /// Consult/fill the pair level (fingerprint -> verdict).
  bool PairLevel = true;
  /// Directory of the persistent store; empty = in-memory only. The
  /// Validator loads it on construction and flushes on destruction.
  std::string Dir;

  bool anyLevel() const { return QueryLevel || PairLevel; }
  /// Both levels off: every query reaches the solver.
  static CachePolicy disabled() {
    CachePolicy P;
    P.QueryLevel = P.PairLevel = false;
    return P;
  }
};

/// Budget-escalation retry ladder (resource-governance tentpole). When a
/// pair's verdict is Timeout/OutOfMemory for a budget-shaped reason and
/// rungs remain, the Validator re-runs it with every SolverBudget field
/// scaled by Multiplier^rung. Escalated budgets get their own pair-cache
/// fingerprints, and Timeout/OOM attempts are never cached, so only the
/// ladder's final verdict can reach the cache. Default off (MaxRungs = 0):
/// behavior is exactly the pre-ladder single attempt.
struct RetryPolicy {
  /// Number of escalated retries after the base attempt (rung 0). The
  /// ladder is capped at 8 rungs by Options::validate().
  unsigned MaxRungs = 0;
  /// Budget scale factor per rung; must be > 1 when MaxRungs > 0.
  double Multiplier = 4.0;
};

struct Options {
  /// Loop unroll bound (Section 7). At least 2 covers back-edge phi entries
  /// for non-loop optimizations; loop optimizations may need much more.
  unsigned UnrollFactor = 2;
  /// Solver budget of one pair (the paper's 1-minute / 1 GB defaults,
  /// scaled). TimeoutSec bounds the whole pair: when its verify_pair span
  /// opens, the pair fixes one smt::TimeLimit, TimeoutSec from then, that
  /// every staged query polls. MaxLiterals and MaxConflicts bound each
  /// solver and each check.
  smt::SolverBudget Budget;
  /// Ablation E7: plain equivalence checking without deferred UB.
  bool EquivalenceMode = false;
  /// Ablation E8: symbolic quantifier-instantiation seeds (the Section 3.7
  /// undef-instantiation optimization analog). Off = plain CEGIS.
  bool UseInstantiationSeeds = true;
  /// Result-cache policy. Not part of the pair fingerprint: it controls
  /// whether caching happens, never what a verdict is.
  CachePolicy Cache;
  /// Budget-escalation ladder. Like the governance knobs below it is
  /// excluded from the pair fingerprint — it controls how hard we try, not
  /// what a verdict means.
  RetryPolicy Retry;
  /// Total wall-clock deadline in seconds for a Validator's work (0 = none).
  /// Fixed as one instant on the steady clock when the Validator is
  /// constructed, and again at the start of each verifyBatch/verifyModules
  /// call. Every pair attempt's smt::TimeLimit stops at that instant when
  /// it comes before the pair's own: a pair it stops in flight is a Timeout
  /// with Reason::DeadlineSkipped, and pairs not yet dispatched return
  /// VerdictKind::DeadlineSkipped. Distinct from Budget.TimeoutSec, which
  /// bounds one pair.
  double DeadlineSec = 0;
  /// Memory-watchdog bound on process RSS in bytes (0 = watchdog off). When
  /// the watchdog thread sees RSS above the bound it cancels the
  /// longest-running in-flight pair, which surfaces as OutOfMemory with
  /// Reason::WatchdogCancelled.
  size_t MaxRssBytes = 0;

  /// Sanity-checks the configuration: rejects a zero unroll factor and
  /// zero / non-finite solver budget fields. \returns an empty string when
  /// the options are usable, otherwise a human-readable diagnostic. The
  /// Validator and the command-line tools call this so no tool has to
  /// hand-roll flag checks.
  std::string validate() const;
};

enum class VerdictKind {
  Correct,
  Incorrect,
  Timeout,
  OutOfMemory,
  Unsupported,       ///< over-approximated feature involved (Section 3.8)
  PreconditionFalse, ///< step 1: the preconditions are unsatisfiable
  Failed,            ///< malformed input / signature mismatch
  // Appended so cached verdict kinds (stored as integers) keep their values.
  DeadlineSkipped, ///< batch deadline passed before the pair dispatched
};

/// Raw solver result of one staged query (QueryStats::Result). The former
/// free-form string; toString() (Outcome.cpp) renders the same spellings.
enum class QueryResult : uint8_t {
  Unknown,
  Unsat,
  Sat,
  BudgetExhausted, ///< the per-pair budget ran out before the query started
};
const char *toString(QueryResult R);

/// Cost record for one staged refinement query (Section 5.3). One of these
/// is appended to Verdict::Queries for every query the check runs — the
/// step-1 precondition check included — so QueriesRun always equals
/// Queries.size().
struct QueryStats {
  /// Staged check name ("precondition", "target is more undefined than
  /// source", ...).
  std::string Check;
  /// Raw solver result for this query: Unsat (the check passed, or for the
  /// precondition check: vacuously false), Sat, Unknown, or BudgetExhausted
  /// when the per-pair budget ran out before solving. Render with
  /// toString() — the spellings match the historical strings.
  QueryResult Result = QueryResult::Unknown;
  /// Wall time of the whole staged query.
  double Seconds = 0;
  /// Wall time inside SatSolver::solve across all checks of the query.
  double SolverSeconds = 0;
  /// Number of SAT checks the query issued (outer + inner CEGIS checks).
  unsigned SatChecks = 0;
  /// CEGIS refinement rounds (0 for the plain step-1 check).
  unsigned EFIterations = 0;
  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  /// Peak clause-database size over the query's checks.
  size_t Clauses = 0;
  /// True when the result came from the staged-query cache: no solver ran,
  /// so SatChecks and the effort counters are legitimately zero.
  bool CacheHit = false;
  /// Why inconclusive: when an Unknown query ran two or more CEGIS rounds,
  /// up to three nondeterministic reads of the source whose witness kept
  /// changing between rounds, most restless first, by read path
  /// ("%a > %x > ret"). Empty otherwise.
  std::vector<std::string> RestlessReads;
};

struct Verdict {
  VerdictKind Kind = VerdictKind::Failed;
  /// Which staged check produced the verdict (e.g. "target is more
  /// poisonous than source").
  std::string FailedCheck;
  /// Counterexample or diagnostic text.
  std::string Detail;
  double Seconds = 0;
  unsigned QueriesRun = 0;
  /// Per-staged-query cost, in execution order (observability tentpole).
  std::vector<QueryStats> Queries;
  /// True when the whole verdict came from the pair-level cache: Kind,
  /// FailedCheck, Detail and QueriesRun replay the original run, Seconds is
  /// the lookup cost and Queries is empty (no queries actually ran).
  bool Cached = false;
  /// Why the pair stopped early: None for real verdicts, a solver-level
  /// reason for Timeout/OutOfMemory, Cached for replays, and the
  /// governance reasons (RetriesExhausted/DeadlineSkipped/
  /// WatchdogCancelled) from the resource governor.
  Reason Why = Reason::None;
  /// Retry-ladder rung that produced this verdict (0 = base attempt).
  unsigned Rung = 0;
  /// Wall time across every ladder attempt of this pair, including the
  /// failed cheaper rungs; equals Seconds when no retry happened.
  double CumulativeSeconds = 0;

  bool isCorrect() const { return Kind == VerdictKind::Correct; }
  bool isIncorrect() const { return Kind == VerdictKind::Incorrect; }
  const char *kindName() const;
};

namespace detail {
/// Implementation entry behind Validator::verifyPair: runs the staged
/// checks for one pair under \p Opts, including the per-pair registry
/// samples and the "verdict" trace event. Does not validate \p Opts and
/// does not install a cancellation flag — that is the Validator's job.
/// \p QC, when non-null, is consulted before and filled after every staged
/// query (the query level of the result cache); the pair level lives in
/// the Validator. \p Rung labels the retry-ladder attempt for the verdict
/// and its trace event (0 = base attempt; the Validator passes escalated
/// rungs). \p NotAfter caps the pair's time limit: the Validator passes its
/// batch deadline, and when that instant comes first, a Timeout it causes
/// reads Reason::DeadlineSkipped, "cancelled by batch deadline". The free
/// verifyRefinement/verifyModules wrappers that used to live here are gone
/// — refine::Validator (Validator.h) is the one entry point.
Verdict checkPair(const ir::Function &Src, const ir::Function &Tgt,
                  const ir::Module *M, const Options &Opts,
                  support::QueryCache *QC = nullptr, unsigned Rung = 0,
                  smt::TimeLimit::Instant NotAfter =
                      smt::TimeLimit::Instant::max());

/// Emits the "verdict" trace event of one pair attempt for \p Function,
/// whichever path decided it (a check, the pair cache, a deadline skip).
void traceVerdict(const std::string &Function, const Verdict &V);
} // namespace detail

} // namespace alive::refine

#endif // ALIVE2RE_REFINE_REFINEMENT_H
