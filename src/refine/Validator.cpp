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
#include <deque>
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
    C.MaxEntriesPerShard = this->Opts.Cache.MaxEntriesPerShard;
    Cache = std::make_unique<support::QueryCache>(std::move(C));
    // A rejected or unreadable store degrades to a cold cache and is
    // rewritten on flush — never a reason to fail validation.
    Cache->load();
  }
  if (this->Opts.DeadlineSec > 0 || this->Opts.MaxRssBytes > 0)
    armGovernor(this->Opts.DeadlineSec);
}

Validator::~Validator() = default;

void Validator::armGovernor(double DeadlineSec) {
  if (!Gov) {
    support::ResourceGovernor::Config C;
    C.DeadlineSec = DeadlineSec;
    C.MaxRssBytes = Opts.MaxRssBytes;
    C.SampleIntervalSec = Opts.GovernorSampleSec;
    Gov = std::make_unique<support::ResourceGovernor>(C);
  } else {
    Gov->armDeadline(DeadlineSec);
  }
}

void Validator::requestCancel() {
  Cancel.requestCancel();
  // Fan out to in-flight governor jobs: their pairs poll the job flag, not
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
      !(Gov && Gov->deadlineExpired())) {
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
  if (Gov && Gov->deadlineExpired()) {
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

  // Register with the governor (when one is running) so the deadline and
  // the watchdog can cancel this pair individually; its job flag subsumes
  // the token's because requestCancel() fans out through cancelAll().
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
    auto Start = std::chrono::steady_clock::now();
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
      V.Seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
      detail::traceVerdict(Src.name(), V);
      return V;
    }
  }

  Verdict V = detail::checkPair(Src, Tgt, M, O, QC, Rung);

  // A governor trip surfaces from the solver as a cancelled Timeout; the
  // job records who pulled the trigger, so rewrite the verdict honestly.
  if (Job.job() && V.Kind == VerdictKind::Timeout &&
      V.Why == Reason::Cancelled) {
    switch (Job.job()->trip()) {
    case support::ResourceGovernor::Trip::Watchdog:
      V.Kind = VerdictKind::OutOfMemory;
      V.Why = Reason::WatchdogCancelled;
      V.Detail = "cancelled by memory watchdog";
      break;
    case support::ResourceGovernor::Trip::Deadline:
      V.Why = Reason::DeadlineSkipped;
      V.Detail = "cancelled by batch deadline";
      break;
    case support::ResourceGovernor::Trip::None:
      break;
    }
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
    if (!settleAttempt(V, Rung, Cum))
      return V;
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
  double Deadline = DeadlineSec < 0 ? Opts.DeadlineSec : DeadlineSec;
  if (Deadline > 0)
    armGovernor(Deadline);
  else if (Gov)
    Gov->armDeadline(0);

  ALIVE_STAT_COUNTER(Batches, "validator.batches");
  Batches.inc();
  prof::Span BatchSpan("verify_batch");
  if (trace::enabled()) {
    trace::Event Ev("batch");
    Ev.num("pairs", Tasks.size()).num("jobs", Jobs);
    if (Deadline > 0)
      Ev.num("deadline_sec", Deadline);
  }

  if (Jobs <= 1 || Tasks.size() == 1) {
    // FIFO requeue: a retry goes to the back, so every pair gets its cheap
    // base attempt before any pair gets an expensive escalated one.
    struct Item {
      unsigned Index;
      unsigned Rung;
      double Cum;
    };
    std::deque<Item> Queue;
    for (size_t I = 0; I < Tasks.size(); ++I)
      Queue.push_back({(unsigned)I, 0, 0});
    while (!Queue.empty()) {
      Item It = Queue.front();
      Queue.pop_front();
      if (attemptTask(Tasks[It.Index], It.Index, It.Rung, It.Cum,
                      Out[It.Index]))
        Queue.push_back({It.Index, It.Rung + 1, It.Cum});
    }
    return Out;
  }

  if (!Pool || Pool->numWorkers() != Jobs)
    Pool = std::make_unique<support::ThreadPool>(Jobs);
  // Captured once at fan-out and adopted by each worker, so every per-pair
  // span (and its whole subtree) parents under this batch span even though
  // it runs on another thread.
  prof::Context Ctx = prof::capture();
  // Retries re-post to the pool rather than looping on the worker: an
  // escalated attempt goes to the back of the queue and other pairs run
  // first. Pool->wait() blocks until the pool is fully idle, follow-up
  // posts included, so the ladder needs no completion bookkeeping. Run is
  // self-referential; it stays alive until wait() returns.
  std::function<void(unsigned, unsigned, double)> Run =
      [this, &Tasks, &Out, &Ctx, &Run](unsigned Index, unsigned Rung,
                                       double Cum) {
        prof::Adopt Adopt(Ctx);
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
  for (size_t I = 0; I < Tasks.size(); ++I)
    Pool->post([&Run, I] { Run((unsigned)I, 0, 0); });
  Pool->wait();
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
