//===- refine/Validator.cpp - Batch translation-validation engine -----------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "refine/Validator.h"
#include "refine/Fingerprint.h"
#include "support/Profile.h"
#include "support/QueryCache.h"
#include "support/ResourceGovernor.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <chrono>
#include <cmath>
#include <optional>
#include <thread>

using namespace alive;
using namespace alive::refine;

void BatchSummary::countVerdict(const Verdict &V) {
  ++Pairs;
  switch (V.Kind) {
  case VerdictKind::Correct:
    ++Correct;
    break;
  case VerdictKind::Incorrect:
    ++Incorrect;
    break;
  case VerdictKind::Timeout:
    ++Timeout;
    break;
  case VerdictKind::OutOfMemory:
    ++OutOfMemory;
    break;
  case VerdictKind::Unsupported:
    ++Unsupported;
    break;
  case VerdictKind::PreconditionFalse:
  case VerdictKind::Failed:
    ++Other;
    break;
  case VerdictKind::DeadlineSkipped:
    ++DeadlineSkipped;
    break;
  }
  if (V.Rung > 0)
    ++Retried;
  if (V.Cached)
    ++CacheHits;
  QueriesRun += V.QueriesRun;
  Seconds += V.CumulativeSeconds > 0 ? V.CumulativeSeconds : V.Seconds;
}

BatchSummary refine::summarize(const std::vector<PairResult> &Results) {
  BatchSummary S;
  for (const PairResult &R : Results)
    S.countVerdict(R.V);
  return S;
}

/// The rung-scaled solver budget: every resource field multiplied by
/// Multiplier^Rung, saturating (an unlimited MaxConflicts stays unlimited).
static smt::SolverBudget budgetForRung(const Options &Opts, unsigned Rung) {
  smt::SolverBudget B = Opts.Budget;
  if (Rung == 0 || Opts.Retry.Multiplier <= 1)
    return B;
  double F = std::pow(Opts.Retry.Multiplier, (double)Rung);
  B.TimeoutSec *= F;
  double Lits = (double)B.MaxLiterals * F;
  B.MaxLiterals = Lits >= (double)(~size_t(0) >> 1) ? (~size_t(0) >> 1)
                                                    : (size_t)Lits;
  if (B.MaxConflicts != ~uint64_t(0)) {
    double Conf = (double)B.MaxConflicts * F;
    B.MaxConflicts = Conf >= (double)(~uint64_t(0) >> 1)
                         ? ~uint64_t(0)
                         : (uint64_t)Conf;
  }
  return B;
}

Validator::Validator(Options Opts) : Opts(std::move(Opts)) {
  if (this->Opts.Cache.anyLevel()) {
    support::QueryCache::Config C;
    C.Dir = this->Opts.Cache.Dir;
    Cache = std::make_unique<support::QueryCache>(std::move(C));
    // A rejected or unreadable store degrades to a cold cache and is
    // rewritten on flush — never a reason to fail validation.
    Cache->load();
  }
  setDeadline(this->Opts.DeadlineSec);
  if (this->Opts.MaxRssBytes > 0) {
    support::ResourceGovernor::Config C;
    C.MaxRssBytes = this->Opts.MaxRssBytes;
    Gov = std::make_unique<support::ResourceGovernor>(C);
  }
}

Validator::~Validator() = default;

void Validator::setDeadline(double Sec) {
  DeadlineArmedSec = Sec;
  Deadline = Sec > 0 ? smt::TimeLimit::after(Sec)
                     : smt::TimeLimit::Instant::max();
}

void Validator::reportDeadline(unsigned Stopped, unsigned Skipped) const {
  if (!Stopped && !Skipped)
    return;
  ALIVE_STAT_COUNTER(Tripped, "deadline.tripped");
  Tripped.inc();
  if (trace::enabled())
    trace::Event("deadline")
        .num("deadline_sec", DeadlineArmedSec)
        .num("cancelled_inflight", Stopped);
}

/// Whether the batch deadline stopped the attempt that gave \p V in flight.
static bool stoppedByDeadline(const Verdict &V) {
  return V.Kind == VerdictKind::Timeout && V.Why == Reason::DeadlineSkipped;
}

void Validator::requestCancel() {
  Cancel.requestCancel();
  // Fan out to in-flight watchdog jobs: their pairs poll the job flag, not
  // the token's.
  if (Gov)
    Gov->cancelAll();
}

bool Validator::flushCache(std::string *Err) {
  return !Cache || Cache->flush(Err);
}

void Validator::onVerdict(VerdictCallback CB) {
  std::lock_guard<std::mutex> Lock(CallbackMu);
  Callback = std::move(CB);
}

void Validator::emit(const PairResult &R) {
  // One mutex both reads and serializes: verdict streams interleave cleanly
  // even when workers finish simultaneously.
  std::lock_guard<std::mutex> Lock(CallbackMu);
  if (Callback)
    Callback(R);
}

/// Whether a bigger budget could change \p V. The CEGIS iteration cap
/// (QuantifierLimit) is not budget-scaled, and cancellation (user,
/// deadline, watchdog) must not spawn more work.
static bool budgetShaped(const Verdict &V) {
  if (V.Kind != VerdictKind::Timeout && V.Kind != VerdictKind::OutOfMemory)
    return false;
  switch (V.Why) {
  case Reason::Timeout:
  case Reason::Memory:
  case Reason::ConflictBudget:
  case Reason::BudgetExhausted:
    return true;
  default:
    return false;
  }
}

bool Validator::settleAttempt(Verdict &V, unsigned Rung, double &Cum) const {
  Cum += V.Seconds;
  V.Rung = Rung;
  V.CumulativeSeconds = Cum;
  if (Opts.Retry.MaxRungs == 0)
    return false;
  bool Shaped = budgetShaped(V);
  if (Shaped && Rung < Opts.Retry.MaxRungs && !Cancel.isCancelled() &&
      std::chrono::steady_clock::now() < Deadline) {
    ALIVE_STAT_COUNTER(Requeued, "retry.requeued");
    Requeued.inc();
    return true;
  }
  if (Shaped && Rung >= Opts.Retry.MaxRungs) {
    V.Why = Reason::RetriesExhausted;
    ALIVE_STAT_COUNTER(Exhausted, "retry.exhausted");
    Exhausted.inc();
  } else if (Rung > 0) {
    ALIVE_STAT_COUNTER(Resolved, "retry.resolved");
    Resolved.inc();
  }
  return false;
}

Verdict Validator::attemptPair(const ir::Function &Src,
                               const ir::Function &Tgt, const ir::Module *M,
                               unsigned Rung) {
  if (std::chrono::steady_clock::now() >= Deadline) {
    ALIVE_STAT_COUNTER(Skipped, "deadline.skipped");
    Skipped.inc();
    Verdict V;
    V.Kind = VerdictKind::DeadlineSkipped;
    V.Why = Reason::DeadlineSkipped;
    V.FailedCheck = "deadline";
    V.Detail = "batch deadline exceeded before dispatch";
    V.Rung = Rung;
    detail::traceVerdict(Src.name(), V);
    return V;
  }
  if (Cancel.isCancelled()) {
    Verdict V;
    V.Kind = VerdictKind::Timeout;
    V.Why = Reason::Cancelled;
    V.FailedCheck = toString(Reason::Cancelled);
    V.Detail = "cancelled before verification started";
    V.Rung = Rung;
    return V;
  }

  Options O = Opts;
  O.Budget = budgetForRung(Opts, Rung);

  // Register with the watchdog (when one is running) so it can cancel this
  // pair individually; its job flag subsumes the token's because
  // requestCancel() fans out through cancelAll().
  support::ResourceGovernor::JobScope Job(Gov.get(), Src.name());
  if (!O.Budget.Cancel)
    O.Budget.Cancel = Job.job() ? &Job.job()->Cancel : Cancel.flag();

  std::optional<prof::Span> RetrySpan;
  if (Rung > 0) {
    ALIVE_STAT_COUNTER(Attempts, "retry.attempts");
    Attempts.inc();
    RetrySpan.emplace("retry_attempt", Src.name());
  }

  support::QueryCache *QC =
      Cache && Opts.Cache.QueryLevel ? Cache.get() : nullptr;
  bool PairCache = Cache && Opts.Cache.PairLevel;

  support::Fingerprint Fp;
  if (PairCache) {
    prof::Span FpSpan("cache_lookup", Src.name());
    // Escalated budgets make escalated fingerprints: a rung-2 verdict never
    // masquerades as a base-budget one.
    Fp = fingerprintPair(Src, Tgt, M, O);
    support::CachedVerdict CV;
    if (Cache->findPair(Fp, CV)) {
      Verdict V;
      V.Kind = (VerdictKind)CV.Kind;
      V.FailedCheck = CV.FailedCheck;
      V.Detail = CV.Detail;
      V.QueriesRun = CV.QueriesRun;
      V.Cached = true;
      V.Why = Reason::Cached;
      V.Rung = Rung;
      V.Seconds = FpSpan.seconds();
      detail::traceVerdict(Src.name(), V);
      return V;
    }
  }

  Verdict V = detail::checkPair(Src, Tgt, M, O, QC, Rung, Deadline);

  // A watchdog trip surfaces from the solver as a cancelled Timeout; the
  // job records who pulled the trigger, so rewrite the verdict honestly.
  if (Job.job() && V.Kind == VerdictKind::Timeout &&
      V.Why == Reason::Cancelled &&
      Job.job()->trip() == support::ResourceGovernor::Trip::Watchdog) {
    V.Kind = VerdictKind::OutOfMemory;
    V.Why = Reason::WatchdogCancelled;
    V.Detail = "cancelled by memory watchdog";
  }

  // Timeouts and memouts are budget artifacts, not facts about the pair:
  // a warm run (or a higher rung) must retry them. Deadline skips likewise.
  if (PairCache && V.Kind != VerdictKind::Timeout &&
      V.Kind != VerdictKind::OutOfMemory &&
      V.Kind != VerdictKind::DeadlineSkipped) {
    support::CachedVerdict CV;
    CV.Kind = (uint8_t)V.Kind;
    CV.QueriesRun = V.QueriesRun;
    CV.FailedCheck = V.FailedCheck;
    CV.Detail = V.Detail;
    Cache->putPair(Fp, std::move(CV));
  }
  return V;
}

Verdict Validator::verifyPair(const ir::Function &Src, const ir::Function &Tgt,
                              const ir::Module *M) {
  if (std::string Err = Opts.validate(); !Err.empty()) {
    Verdict V;
    V.Kind = VerdictKind::Failed;
    V.FailedCheck = "options";
    V.Detail = Err;
    return V;
  }
  double Cum = 0;
  for (unsigned Rung = 0;; ++Rung) {
    Verdict V = attemptPair(Src, Tgt, M, Rung);
    if (!settleAttempt(V, Rung, Cum)) {
      reportDeadline(stoppedByDeadline(V),
                     V.Kind == VerdictKind::DeadlineSkipped);
      return V;
    }
  }
}

bool Validator::attemptTask(const PairTask &T, unsigned Index, unsigned Rung,
                            double &Cum, PairResult &Out) {
  Out.Name = !T.Name.empty() ? T.Name : T.Src ? T.Src->name() : "";
  Out.Index = Index;
  Verdict V;
  if (!T.Src || !T.Tgt) {
    V.Kind = VerdictKind::Failed;
    V.FailedCheck = "batch";
    V.Detail = "null function in batch task";
  } else {
    // Fresh per-thread expression context per pair: bounds worker memory
    // over long batches and makes each pair's encoding independent of
    // scheduling, so Jobs=N reproduces Jobs=1 verdicts exactly.
    smt::resetContext();
    V = attemptPair(*T.Src, *T.Tgt, T.M, Rung);
  }
  if (settleAttempt(V, Rung, Cum))
    return true;
  Out.V = std::move(V);
  emit(Out);
  return false;
}

std::vector<PairResult>
Validator::verifyBatch(const std::vector<PairTask> &Tasks, unsigned Jobs,
                       double DeadlineSec) {
  std::vector<PairResult> Out(Tasks.size());
  if (Tasks.empty())
    return Out;
  if (std::string Err = Opts.validate(); !Err.empty()) {
    for (size_t I = 0; I < Tasks.size(); ++I) {
      Out[I].Name = !Tasks[I].Name.empty() ? Tasks[I].Name
                    : Tasks[I].Src         ? Tasks[I].Src->name()
                                           : "";
      Out[I].Index = (unsigned)I;
      Out[I].V.Kind = VerdictKind::Failed;
      Out[I].V.FailedCheck = "options";
      Out[I].V.Detail = Err;
      emit(Out[I]);
    }
    return Out;
  }
  if (Jobs == 0) {
    Jobs = std::thread::hardware_concurrency();
    if (Jobs == 0)
      Jobs = 1;
  }
  setDeadline(DeadlineSec < 0 ? Opts.DeadlineSec : DeadlineSec);

  ALIVE_STAT_COUNTER(Batches, "validator.batches");
  Batches.inc();
  prof::Span BatchSpan("verify_batch");
  if (trace::enabled()) {
    trace::Event Ev("batch");
    Ev.num("pairs", Tasks.size()).num("jobs", Jobs);
    if (DeadlineArmedSec > 0)
      Ev.num("deadline_sec", DeadlineArmedSec);
  }

  // One pair, or one job: a pool without workers runs the tasks on this
  // thread.
  unsigned Workers = Jobs > 1 && Tasks.size() > 1 ? Jobs : 0;
  if (!Pool || Pool->numWorkers() != Workers)
    Pool = std::make_unique<support::ThreadPool>(Workers);
  // A retry re-posts to the back of the queue rather than looping on the
  // worker, and the base attempts are posted in one step, so every pair
  // gets its cheap base attempt before any pair gets an expensive escalated
  // one. Pool->wait() blocks until the pool is fully idle, follow-up posts
  // included, so the ladder needs no completion bookkeeping. Run is
  // self-referential; it stays alive until wait() returns.
  std::function<void(unsigned, unsigned, double)> Run =
      [this, &Tasks, &Out, &Run](unsigned Index, unsigned Rung, double Cum) {
        bool Retry = false;
        try {
          Retry = attemptTask(Tasks[Index], Index, Rung, Cum, Out[Index]);
        } catch (...) {
          Out[Index].V = Verdict();
          Out[Index].V.Kind = VerdictKind::Failed;
          Out[Index].V.FailedCheck = "exception";
          Out[Index].V.Detail = "verification attempt threw";
          emit(Out[Index]);
        }
        if (Retry)
          Pool->post([&Run, Index, Rung, Cum] { Run(Index, Rung + 1, Cum); });
      };
  std::vector<std::function<void()>> Base;
  for (unsigned I = 0; I < Tasks.size(); ++I)
    Base.push_back([&Run, I] { Run(I, 0, 0); });
  Pool->post(std::move(Base));
  Pool->wait();

  unsigned Stopped = 0, Skipped = 0;
  for (const PairResult &R : Out) {
    Stopped += stoppedByDeadline(R.V);
    Skipped += R.V.Kind == VerdictKind::DeadlineSkipped;
  }
  reportDeadline(Stopped, Skipped);
  return Out;
}

std::vector<PairResult> Validator::verifyModules(const ir::Module &Src,
                                                 const ir::Module &Tgt,
                                                 unsigned Jobs,
                                                 double DeadlineSec) {
  std::vector<PairTask> Tasks;
  for (unsigned I = 0; I < Src.numFunctions(); ++I) {
    const ir::Function *SF = Src.function(I);
    if (SF->isDeclaration())
      continue;
    const ir::Function *TF = Tgt.functionByName(SF->name());
    if (!TF || TF->isDeclaration())
      continue;
    Tasks.push_back({SF, TF, &Src, SF->name()});
  }
  return verifyBatch(Tasks, Jobs, DeadlineSec);
}
