//===- perfbench/perfbench.cpp - Seeded end-to-end benchmark -------------===//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// One seeded, closed-loop benchmark over the public API. README.md in this
/// directory describes the workloads, the metrics and how to read them.
///
///   perfbench --workload proofs|bugs|pipeline --seed N --seconds S
///             --trace 0|1 [--jobs J] [--spans FILE] [--pairs FILE]
///
/// A run is a whole number of rounds. Round r's inputs are generated from
/// (seed, r), so a run covers many distinct pairs and its figures do not
/// hinge on a few slow draws. A round first sets up (generates or collects
/// its inputs and constructs a Validator: one setup_s sample), then
/// verifies every pair in a closed loop: the next pair goes in only when a
/// verdict has come back (`pipeline`: one batch per round). Rounds start
/// until --seconds of verification time have been measured and the last
/// cycle of rounds is whole. Each round runs in a child process of its own,
/// the way every alive-* invocation does, so its peak RSS is its own and no
/// heap state leaks between rounds.
///
/// --trace 1 instead repeats the first cycle of rounds, each round in a
/// plain and then a traced pass, in-process. The traced pass times the
/// benchmark's own calls into each layer (spans kept in memory, written to
/// --spans at exit) and re-runs each pair's unroll and encode outside the
/// Validator; smt::resetContext() after those extra calls gives verifyPair
/// the same context as in the plain pass, so effort counts must match
/// exactly, and the benchmark checks that they do.
///
/// Every verdict is checked against the pair's known answer. The last line
/// of stdout is the result object; the line before it carries the details
/// (tallies, failed pairs, budget neighbours) that compare.py reads.
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "opt/Pass.h"
#include "refine/Validator.h"
#include "sema/Encoder.h"
#include "smt/Expr.h"
#include "support/Diag.h"
#include "transform/Unroll.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace alive;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

uint64_t splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

uint64_t roundSeed(uint64_t Seed, unsigned Round) {
  uint64_t S = Seed ^ (0xa24baed4963ee407ULL * (Round + 1));
  return splitmix64(S);
}

/// Deterministic Fisher-Yates (std::shuffle's draw order is unspecified).
template <typename T> void shuffle(std::vector<T> &V, uint64_t Seed) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[splitmix64(Seed) % I]);
}

// --- Workloads --------------------------------------------------------------

/// Per-workload knobs (README.md "Budgets" explains the timeouts).
struct WorkloadSpec {
  const char *Name;
  unsigned Jobs;
  unsigned Unroll;
  double TimeoutSec;
  /// Rounds that together hold the workload's whole input set once. A run
  /// is a whole number of cycles, so every run holds the same mix.
  unsigned CycleRounds;
};

/// One `pipeline` round per appSpecs() app; a cycle holds all five.
constexpr unsigned PipelineApps = 5;

const WorkloadSpec Workloads[] = {
    {"proofs", 1, 8, 0.09, 40},
    {"bugs", 1, 32, 2.0, 1},
    {"pipeline", 4, 2, 0.1, PipelineApps},
};

bool isPipeline(const WorkloadSpec &W) {
  return !std::strcmp(W.Name, "pipeline");
}

/// Generated pairs per `proofs` round; a cycle of rounds draws 400 and
/// holds every curated correct pair once. Small rounds keep most round
/// processes free of the rare pair whose memory blows up, so the rounds'
/// peak RSS has a steady centre.
constexpr unsigned ProofsPerRound = 10;

/// The known answer of a pair, from the corpus's own declarations.
enum class Expect { Incorrect, NotIncorrect };

struct Case {
  std::string Name;
  const corpus::TestPair *Pair;
  Expect Answer;
};

bool decided(refine::VerdictKind K) {
  return K == refine::VerdictKind::Correct ||
         K == refine::VerdictKind::Incorrect ||
         K == refine::VerdictKind::PreconditionFalse;
}

const char *kindName(refine::VerdictKind K) {
  refine::Verdict V;
  V.Kind = K;
  return V.kindName();
}

/// A verdict contradicts the known answer, or is a Failed verdict.
/// Undecided verdicts (timeout, unsupported, out of memory) contradict
/// nothing; they count against decided_ratio instead.
bool failedCheck(Expect E, refine::VerdictKind K) {
  if (K == refine::VerdictKind::Failed)
    return true;
  if (E == Expect::Incorrect)
    return decided(K) && K != refine::VerdictKind::Incorrect;
  return K == refine::VerdictKind::Incorrect;
}

/// Deterministic solver effort of one pair (sums over its staged queries).
struct Effort {
  uint64_t Conflicts = 0, Decisions = 0, Propagations = 0, SatChecks = 0,
           EFIterations = 0, Clauses = 0, Queries = 0;

  static Effort of(const refine::Verdict &V) {
    Effort E;
    for (const refine::QueryStats &Q : V.Queries) {
      E.Conflicts += Q.Conflicts;
      E.Decisions += Q.Decisions;
      E.Propagations += Q.Propagations;
      E.SatChecks += Q.SatChecks;
      E.EFIterations += Q.EFIterations;
      E.Clauses += Q.Clauses;
    }
    E.Queries = V.QueriesRun;
    return E;
  }
  void add(const Effort &O) {
    Conflicts += O.Conflicts;
    Decisions += O.Decisions;
    Propagations += O.Propagations;
    SatChecks += O.SatChecks;
    EFIterations += O.EFIterations;
    Clauses += O.Clauses;
    Queries += O.Queries;
  }
  bool operator==(const Effort &O) const = default;
};

/// What the benchmark keeps of one verified pair.
struct PairRecord {
  unsigned Round = 0;
  std::string Name;
  refine::VerdictKind Kind = refine::VerdictKind::Failed;
  /// Time to verdict: parse + verifyPair at -j 1, the returned
  /// Verdict::Seconds in a batch.
  double Seconds = 0;
  double VerdictSeconds = 0;
  bool Failed = false;
  Effort Work;
  /// The process's peak RSS once the verdict was in: where it jumps, the
  /// pair set a new peak.
  double PeakRssMb = 0;
  /// Diagnostic of a failed pair.
  std::string Detail;
};

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

PairRecord recordOf(unsigned Round, std::string Name, const refine::Verdict &V,
                    double Seconds, Expect Answer) {
  PairRecord R;
  R.Round = Round;
  R.Name = std::move(Name);
  R.Kind = V.Kind;
  R.Seconds = Seconds;
  R.VerdictSeconds = V.Seconds;
  R.Failed = failedCheck(Answer, V.Kind);
  R.Work = Effort::of(V);
  R.PeakRssMb = peakRssMb();
  if (R.Failed)
    R.Detail = (V.FailedCheck + ": " + V.Detail).substr(0, 200);
  return R;
}

// --- Tracing ----------------------------------------------------------------

/// In-memory spans around the benchmark's own calls into each layer;
/// written out once, when the run ends.
class Tracer {
public:
  explicit Tracer(Clock::time_point Origin) : Origin(Origin) {}

  int open(const char *Name, long Pair, int Parent) {
    Spans.push_back({Name, Clock::now(), {}, Parent, Pair});
    return int(Spans.size() - 1);
  }
  /// Closes span \p Id. \returns its duration in seconds.
  double close(int Id) {
    Spans[Id].End = Clock::now();
    return secondsBetween(Spans[Id].Start, Spans[Id].End);
  }
  void add(const char *Name, long Pair, int Parent, Clock::time_point Start,
           Clock::time_point End) {
    Spans.push_back({Name, Start, End, Parent, Pair});
  }

  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  bool write(const std::string &Path) const {
    FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{\"traceEvents\":[\n");
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"pair\":%ld}}\n",
                   I ? "," : "", S.Name,
                   secondsBetween(Origin, S.Start) * 1e6,
                   secondsBetween(S.Start, S.End) * 1e6, I, S.Parent, S.Pair);
    }
    std::fprintf(F, "]}\n");
    return std::fclose(F) == 0;
  }

private:
  struct Span {
    const char *Name;
    Clock::time_point Start, End;
    int Parent;
    long Pair;
  };
  Clock::time_point Origin;
  std::vector<Span> Spans;
};

/// Per-layer time and counts of one traced pass, measured from outside:
/// the benchmark's own calls plus the records Verdict::Queries returns.
struct LayerTotals {
  double ParseS = 0, UnrollS = 0, EncodeS = 0, SatS = 0, NonSatS = 0,
         NonQueryS = 0, TimeoutS = 0, PassesS = 0, BusyS = 0, PairS = 0;
  /// Verification wall time of the pass, and the part of it spent in the
  /// extra calls the traced pass makes (clone + unroll + encode + context
  /// reset) and the plain pass does not.
  double WallS = 0, ExtraS = 0;
  /// Worker time available to verification: the pass wall net of the extra
  /// calls at -j 1, the batch wall x jobs in `pipeline`.
  double CapacityS = 0;
  /// Summed over decided pairs only.
  Effort Work;

  void add(const refine::Verdict &V, double ParseSeconds, double PairSeconds) {
    double QueryS = 0;
    for (const refine::QueryStats &Q : V.Queries) {
      QueryS += Q.Seconds;
      SatS += Q.SolverSeconds;
      NonSatS += Q.Seconds - Q.SolverSeconds;
    }
    NonQueryS += V.Seconds - QueryS;
    ParseS += ParseSeconds;
    PairS += PairSeconds;
    BusyS += V.Seconds;
    if (V.Kind == refine::VerdictKind::Timeout)
      TimeoutS += V.Seconds;
    if (decided(V.Kind))
      Work.add(Effort::of(V));
  }
  void add(const LayerTotals &O) {
    ParseS += O.ParseS;
    UnrollS += O.UnrollS;
    EncodeS += O.EncodeS;
    SatS += O.SatS;
    NonSatS += O.NonSatS;
    NonQueryS += O.NonQueryS;
    TimeoutS += O.TimeoutS;
    PassesS += O.PassesS;
    BusyS += O.BusyS;
    PairS += O.PairS;
    WallS += O.WallS;
    ExtraS += O.ExtraS;
    CapacityS += O.CapacityS;
    Work.add(O.Work);
  }
};

/// Tracing state of a traced pass; null in plain passes.
struct TraceCtx {
  Tracer &T;
  LayerTotals &L;
  int Parent;
};

/// Re-runs what checkPair does before its queries — clone, unroll, memory
/// layout, the three encodings — so transform and sema get their own
/// spans. Leaves the calling thread's expression context reset.
/// \returns the seconds spent.
double unrollAndEncode(const ir::Function &Src, const ir::Function &Tgt,
                       const ir::Module *M, unsigned Unroll, long Pair,
                       TraceCtx &TC) {
  Clock::time_point Start = Clock::now();
  {
    std::unique_ptr<ir::Function> SrcU = Src.clone(), TgtU = Tgt.clone();
    int Id = TC.T.open("transform.unrollLoops", Pair, TC.Parent);
    transform::UnrollResult SU = transform::unrollLoops(*SrcU, Unroll);
    transform::UnrollResult TU = transform::unrollLoops(*TgtU, Unroll);
    TC.L.UnrollS += TC.T.close(Id);
    Diag Err;
    if (!SU.HadIrreducible && !TU.HadIrreducible &&
        ir::verifyFunction(Src, Err) && ir::verifyFunction(Tgt, Err)) {
      Id = TC.T.open("sema.encode", Pair, TC.Parent);
      sema::MemoryLayout Layout = sema::MemoryLayout::compute(*SrcU, *TgtU, M);
      sema::encodeFunction(*SrcU, Layout, SU.Sinks, {"src", false});
      sema::encodeFunction(*SrcU, Layout, SU.Sinks, {"srcI", false});
      sema::encodeFunction(*TgtU, Layout, TU.Sinks, {"tgt", false});
      TC.L.EncodeS += TC.T.close(Id);
    }
  }
  smt::resetContext();
  double S = secondsBetween(Start, Clock::now());
  TC.L.ExtraS += S;
  return S;
}

// --- Rounds -----------------------------------------------------------------

refine::Options optionsFor(const WorkloadSpec &W) {
  refine::Options O;
  O.UnrollFactor = W.Unroll;
  O.Budget.TimeoutSec = W.TimeoutSec;
  O.Cache = refine::CachePolicy::disabled();
  return O;
}

/// Inputs of one -j 1 round: the cases, and the generated pairs some of
/// them point into.
struct SerialInputs {
  std::vector<corpus::TestPair> Generated;
  std::vector<Case> Cases;
};

/// `proofs`: a seeded generated draw plus this round's share of the
/// curated correct pairs. `bugs`: every curated incorrect pair plus the
/// whole known-bug study.
void collectSerial(const WorkloadSpec &W, uint64_t Seed, unsigned Round,
                   SerialInputs &In) {
  bool Proofs = !std::strcmp(W.Name, "proofs");
  unsigned Index = 0;
  for (const corpus::TestPair &P : corpus::unitTestSuite()) {
    if (P.ExpectBug == Proofs ||
        Index++ % W.CycleRounds != Round % W.CycleRounds)
      continue;
    // A bug the unroll bound cannot reach must not be reported either.
    Expect E = P.ExpectBug && P.NeedsUnroll <= W.Unroll ? Expect::Incorrect
                                                         : Expect::NotIncorrect;
    In.Cases.push_back({P.Name, &P, E});
  }
  if (Proofs) {
    In.Generated = corpus::generatedSuite(ProofsPerRound, Seed);
    for (const corpus::TestPair &P : In.Generated)
      In.Cases.push_back({P.Name, &P, Expect::NotIncorrect});
  } else {
    for (const corpus::KnownBug &B : corpus::knownBugSuite())
      In.Cases.push_back({B.Pair.Name, &B.Pair,
                          B.ExpectDetected ? Expect::Incorrect
                                           : Expect::NotIncorrect});
  }
  shuffle(In.Cases, Seed);
}

/// Verifies one case the way alive-corpus does: reset, parse, verifyPair.
PairRecord verifyCase(const Case &C, unsigned Round, refine::Validator &V,
                      unsigned Unroll, long PairId, TraceCtx *TC) {
  smt::resetContext();
  Clock::time_point Start = Clock::now();
  int Id = TC ? TC->T.open("ir.parseModule", PairId, TC->Parent) : -1;
  Diag Err;
  std::unique_ptr<ir::Module> SrcM = ir::parseModule(C.Pair->SrcIR, Err);
  std::unique_ptr<ir::Module> TgtM =
      SrcM ? ir::parseModule(C.Pair->TgtIR, Err) : nullptr;
  double ParseS = secondsBetween(Start, Clock::now());
  if (TC)
    TC->T.close(Id);
  const ir::Function *SF = SrcM && SrcM->numFunctions()
                               ? SrcM->function(SrcM->numFunctions() - 1)
                               : nullptr;
  const ir::Function *TF =
      SF && TgtM ? TgtM->functionByName(SF->name()) : nullptr;
  if (!SF || !TF) {
    refine::Verdict Bad;
    Bad.FailedCheck = "parse";
    Bad.Detail = Err.str();
    return recordOf(Round, C.Name, Bad, ParseS, C.Answer);
  }
  double Extra = TC ? unrollAndEncode(*SF, *TF, SrcM.get(), Unroll, PairId,
                                      *TC)
                    : 0;
  Id = TC ? TC->T.open("refine.verifyPair", PairId, TC->Parent) : -1;
  refine::Verdict Vd = V.verifyPair(*SF, *TF, SrcM.get());
  if (TC)
    TC->T.close(Id);
  double PairS = secondsBetween(Start, Clock::now()) - Extra;
  if (TC)
    TC->L.add(Vd, ParseS, PairS);
  return recordOf(Round, C.Name, Vd, PairS, C.Answer);
}

/// Inputs of one `pipeline` round: app \p Round % 5 of appSpecs(), freshly
/// generated from the round's seed. One app per round process, the way
/// alive-opt compiles one module per invocation: a round's peak RSS is set
/// by its worst pair, and small rounds leave most of them free of the rare
/// pair whose memory blows up.
std::unique_ptr<ir::Module> generateRoundApp(uint64_t Seed, unsigned Round) {
  const std::vector<corpus::AppSpec> &Specs = corpus::appSpecs();
  corpus::AppSpec Spec = Specs[Round % Specs.size()];
  Spec.Seed = splitmix64(Seed);
  return corpus::generateApp(Spec);
}

/// Compiles the app with the -O2 pipeline, collecting every per-pass
/// (before, after) pair through the TV hook, then verifies them all in one
/// batch.
std::vector<PairRecord> compileAndVerify(ir::Module &App, unsigned Round,
                                         refine::Validator &V, unsigned Jobs,
                                         unsigned Unroll, TraceCtx *TC) {
  std::vector<std::unique_ptr<ir::Function>> Keep;
  std::vector<refine::Validator::PairTask> Tasks;
  double HookS = 0;
  opt::TVHook Hook = [&](const ir::Function &Before, const ir::Function &After,
                         const std::string &Pass) {
    Clock::time_point H0 = Clock::now();
    Keep.push_back(Before.clone());
    const ir::Function *B = Keep.back().get();
    Keep.push_back(After.clone());
    Tasks.push_back({B, Keep.back().get(), &App, After.name() + ":" + Pass});
    HookS += secondsBetween(H0, Clock::now());
  };
  int Id = TC ? TC->T.open("opt.runPipeline", -1, TC->Parent) : -1;
  opt::runPipeline(App, opt::defaultPipeline(), Hook);

  int BatchId = -1;
  if (TC) {
    TC->L.PassesS += TC->T.close(Id) - HookS;
    for (size_t I = 0; I < Tasks.size(); ++I)
      unrollAndEncode(*Tasks[I].Src, *Tasks[I].Tgt, Tasks[I].M, Unroll,
                      long(I), *TC);
    BatchId = TC->T.open("refine.verifyBatch", -1, TC->Parent);
    // Per-pair spans inside the batch, from the verdict stream: each ends
    // when its verdict arrives and lasts the returned Verdict::Seconds.
    Tracer *T = &TC->T;
    V.onVerdict([T, BatchId](const refine::PairResult &R) {
      Clock::time_point End = Clock::now();
      auto Len = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(R.V.Seconds));
      T->add("refine.pair", long(R.Index), BatchId, End - Len, End);
    });
  }
  std::vector<refine::PairResult> Results = V.verifyBatch(Tasks, Jobs);
  if (TC)
    TC->L.CapacityS += TC->T.close(BatchId) * Jobs;

  std::vector<PairRecord> Out;
  Out.reserve(Results.size());
  for (const refine::PairResult &R : Results) {
    if (TC)
      TC->L.add(R.V, 0, R.V.Seconds);
    // Every pair of the correct -O2 pipeline must refine its input.
    Out.push_back(
        recordOf(Round, R.Name, R.V, R.V.Seconds, Expect::NotIncorrect));
  }
  return Out;
}

struct Config {
  const WorkloadSpec *W = nullptr;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  unsigned Jobs = 0;
  std::string SpansPath, PairsPath;
};

struct RoundResult {
  std::vector<PairRecord> Pairs;
  double SetupS = 0, TimedS = 0, PeakRssMb = 0;
};

/// Sets up and verifies round \p Round on the calling process.
RoundResult runRound(const Config &C, unsigned Round, TraceCtx *TC) {
  RoundResult R;
  uint64_t Seed = roundSeed(C.Seed, Round);
  Clock::time_point S0 = Clock::now();
  if (!isPipeline(*C.W)) {
    SerialInputs In;
    collectSerial(*C.W, Seed, Round, In);
    refine::Validator V(optionsFor(*C.W));
    Clock::time_point T0 = Clock::now();
    R.SetupS = secondsBetween(S0, T0);
    for (size_t I = 0; I < In.Cases.size(); ++I)
      R.Pairs.push_back(
          verifyCase(In.Cases[I], Round, V, C.W->Unroll, long(I), TC));
    R.TimedS = secondsBetween(T0, Clock::now());
    if (TC)
      TC->L.CapacityS += R.TimedS - TC->L.ExtraS;
  } else {
    std::unique_ptr<ir::Module> App = generateRoundApp(Seed, Round);
    refine::Validator V(optionsFor(*C.W));
    Clock::time_point T0 = Clock::now();
    R.SetupS = secondsBetween(S0, T0);
    R.Pairs = compileAndVerify(*App, Round, V, C.Jobs, C.W->Unroll, TC);
    R.TimedS = secondsBetween(T0, Clock::now());
  }
  if (TC)
    TC->L.WallS += R.TimedS;
  return R;
}

// --- Rounds in child processes ---------------------------------------------

std::string serialize(const RoundResult &R) {
  std::string S;
  char Buf[512];
  for (const PairRecord &P : R.Pairs) {
    std::string Detail = P.Detail;
    std::replace(Detail.begin(), Detail.end(), '\n', ' ');
    std::replace(Detail.begin(), Detail.end(), '\t', ' ');
    const Effort &E = P.Work;
    std::snprintf(Buf, sizeof(Buf),
                  "P\t%u\t%d\t%d\t%.17g\t%.17g\t%.17g\t%llu\t%llu\t%llu\t%llu\t"
                  "%llu\t%llu\t%llu\t",
                  P.Round, int(P.Kind), int(P.Failed), P.Seconds,
                  P.VerdictSeconds, P.PeakRssMb, (unsigned long long)E.Conflicts,
                  (unsigned long long)E.Decisions,
                  (unsigned long long)E.Propagations,
                  (unsigned long long)E.SatChecks,
                  (unsigned long long)E.EFIterations,
                  (unsigned long long)E.Clauses, (unsigned long long)E.Queries);
    S += Buf + P.Name + "\t" + Detail + "\n";
  }
  std::snprintf(Buf, sizeof(Buf), "R\t%.17g\t%.17g\t%.17g\n", R.SetupS,
                R.TimedS, R.PeakRssMb);
  return S + Buf;
}

bool deserialize(const std::string &S, RoundResult &R) {
  size_t Pos = 0;
  bool SawEnd = false;
  while (Pos < S.size()) {
    size_t Eol = S.find('\n', Pos);
    if (Eol == std::string::npos)
      return false;
    std::vector<std::string> F;
    for (size_t B = Pos;;) {
      size_t Tab = S.find('\t', B);
      if (Tab == std::string::npos || Tab > Eol) {
        F.push_back(S.substr(B, Eol - B));
        break;
      }
      F.push_back(S.substr(B, Tab - B));
      B = Tab + 1;
    }
    Pos = Eol + 1;
    if (F[0] == "R" && F.size() == 4) {
      R.SetupS = std::strtod(F[1].c_str(), nullptr);
      R.TimedS = std::strtod(F[2].c_str(), nullptr);
      R.PeakRssMb = std::strtod(F[3].c_str(), nullptr);
      SawEnd = true;
    } else if (F[0] == "P" && F.size() == 16) {
      PairRecord P;
      P.Round = unsigned(std::strtoul(F[1].c_str(), nullptr, 10));
      P.Kind = refine::VerdictKind(std::atoi(F[2].c_str()));
      P.Failed = F[3] == "1";
      P.Seconds = std::strtod(F[4].c_str(), nullptr);
      P.VerdictSeconds = std::strtod(F[5].c_str(), nullptr);
      P.PeakRssMb = std::strtod(F[6].c_str(), nullptr);
      uint64_t *Counts[] = {&P.Work.Conflicts,    &P.Work.Decisions,
                            &P.Work.Propagations, &P.Work.SatChecks,
                            &P.Work.EFIterations, &P.Work.Clauses,
                            &P.Work.Queries};
      for (int I = 0; I < 7; ++I)
        *Counts[I] = std::strtoull(F[7 + I].c_str(), nullptr, 10);
      P.Name = F[14];
      P.Detail = F[15];
      R.Pairs.push_back(std::move(P));
    } else {
      return false;
    }
  }
  return SawEnd;
}

/// Runs round \p Round in a child process and collects its result.
/// \returns false with \p Err set when the child could not run or crashed.
bool runRoundInChild(const Config &C, unsigned Round, RoundResult &Out,
                     std::string &Err) {
  int Fds[2];
  if (pipe(Fds)) {
    Err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::fflush(nullptr);
  pid_t Pid = fork();
  if (Pid < 0) {
    Err = std::string("fork: ") + std::strerror(errno);
    close(Fds[0]);
    close(Fds[1]);
    return false;
  }
  if (Pid == 0) {
    close(Fds[0]);
    RoundResult R = runRound(C, Round, nullptr);
    R.PeakRssMb = peakRssMb();
    std::string S = serialize(R);
    for (size_t Off = 0; Off < S.size();) {
      ssize_t N = write(Fds[1], S.data() + Off, S.size() - Off);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        _exit(3);
      Off += size_t(N);
    }
    _exit(0);
  }
  close(Fds[1]);
  std::string Buf;
  char Chunk[1 << 16];
  for (;;) {
    ssize_t N = read(Fds[0], Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Buf.append(Chunk, size_t(N));
  }
  close(Fds[0]);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status)) {
    Err = "round " + std::to_string(Round) + " crashed (" +
          (WIFSIGNALED(Status)
               ? "signal " + std::to_string(WTERMSIG(Status))
               : "exit " + std::to_string(WEXITSTATUS(Status))) +
          ")";
    return false;
  }
  if (!deserialize(Buf, Out)) {
    Err = "round " + std::to_string(Round) + " sent a malformed result";
    return false;
  }
  return true;
}

// --- Reporting --------------------------------------------------------------

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) >= 0x20) {
      Out += C;
    }
  }
  return Out;
}

struct Metric {
  const char *Name;
  double Value;
  const char *Unit;
};

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string S = "{";
  char Buf[64];
  for (size_t I = 0; I < Ms.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.9g", Ms[I].Value);
    S += std::string(I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " +
         Buf + ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  return S + "}";
}

std::string effortJson(const Effort &E) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "{\"conflicts\": %llu, \"decisions\": %llu, "
                "\"propagations\": %llu, \"sat_checks\": %llu, "
                "\"ef_iterations\": %llu, \"clauses\": %llu, "
                "\"queries\": %llu}",
                (unsigned long long)E.Conflicts,
                (unsigned long long)E.Decisions,
                (unsigned long long)E.Propagations,
                (unsigned long long)E.SatChecks,
                (unsigned long long)E.EFIterations,
                (unsigned long long)E.Clauses, (unsigned long long)E.Queries);
  return Buf;
}

/// Verdict tallies, effort over decided pairs, and the failed pairs.
struct Tally {
  std::map<std::string, unsigned> Kinds;
  unsigned Attempted = 0, Decided = 0, Failed = 0;
  Effort Work;
  std::vector<std::string> FailedNames;

  void add(const PairRecord &R) {
    ++Attempted;
    ++Kinds[kindName(R.Kind)];
    if (decided(R.Kind)) {
      ++Decided;
      Work.add(R.Work);
    }
    if (R.Failed) {
      ++Failed;
      if (FailedNames.size() < 50)
        FailedNames.push_back("round " + std::to_string(R.Round) + " " +
                              R.Name + ": " + kindName(R.Kind) +
                              (R.Detail.empty() ? "" : " (" + R.Detail + ")"));
    }
  }
  std::string json() const {
    std::string S = "\"verdicts\": {";
    for (auto It = Kinds.begin(); It != Kinds.end(); ++It)
      S += (It == Kinds.begin() ? "\"" : ", \"") + It->first +
           "\": " + std::to_string(It->second);
    S += "}, \"effort_decided\": " + effortJson(Work) + ", \"failed_pairs\": [";
    for (size_t I = 0; I < FailedNames.size(); ++I)
      S += (I ? ", \"" : "\"") + jsonEscape(FailedNames[I]) + "\"";
    return S + "]";
  }
};

/// The slowest decided pair, and how many decided pairs came within 1.5x
/// of the budget: the pairs a loaded machine could flip to Timeout.
struct BudgetNeighbours {
  explicit BudgetNeighbours(double Budget) : Budget(Budget) {}

  double Budget;
  unsigned Near = 0;
  std::string Slowest;
  double SlowestS = 0;

  void add(const PairRecord &R) {
    if (!decided(R.Kind))
      return;
    if (Slowest.empty() || R.VerdictSeconds > SlowestS) {
      Slowest = "round " + std::to_string(R.Round) + " " + R.Name;
      SlowestS = R.VerdictSeconds;
    }
    Near += R.VerdictSeconds > Budget / 1.5;
  }
  std::string json() const {
    std::string S = "\"budget\": {\"slowest_decided\": ";
    if (!Slowest.empty()) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.4f", SlowestS);
      S += "{\"pair\": \"" + jsonEscape(Slowest) + "\", \"seconds\": " + Buf +
           "}";
    } else {
      S += "null";
    }
    return S + ", \"decided_within_1.5x\": " + std::to_string(Near) + "}";
  }
};

/// One --pairs line.
void writePair(FILE *F, const PairRecord &R) {
  std::fprintf(F,
               "{\"round\": %u, \"name\": \"%s\", \"kind\": \"%s\", "
               "\"seconds\": %.6f, \"peak_rss_mb\": %.1f, \"failed\": %s, "
               "\"effort\": %s}\n",
               R.Round, jsonEscape(R.Name).c_str(), kindName(R.Kind),
               R.Seconds, R.PeakRssMb, R.Failed ? "true" : "false",
               effortJson(R.Work).c_str());
}

[[noreturn]] void usage(const std::string &Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload proofs|bugs|pipeline "
               "--seed N --seconds S --trace 0|1 [--jobs J] [--spans FILE] "
               "[--pairs FILE]\n",
               Msg.c_str());
  std::exit(2);
}

Config parseArgs(int Argc, char **Argv) {
  Config C;
  bool HaveSeed = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage("missing value for " + A);
    const char *Val = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      for (const WorkloadSpec &W : Workloads)
        if (!std::strcmp(W.Name, Val))
          C.W = &W;
      if (!C.W)
        usage(std::string("unknown workload ") + Val);
    } else if (A == "--seed") {
      errno = 0;
      C.Seed = std::strtoull(Val, &End, 0);
      if (errno || !*Val || *End || *Val == '-')
        usage("--seed expects a non-negative integer");
      HaveSeed = true;
    } else if (A == "--seconds") {
      C.Seconds = std::strtod(Val, &End);
      if (!*Val || *End || !(C.Seconds > 0) || C.Seconds > 3600)
        usage("--seconds expects a number in (0, 3600]");
    } else if (A == "--trace") {
      if (std::strcmp(Val, "0") && std::strcmp(Val, "1"))
        usage("--trace expects 0 or 1");
      C.Trace = Val[0] == '1';
      HaveTrace = true;
    } else if (A == "--jobs") {
      unsigned long J = std::strtoul(Val, &End, 10);
      if (!*Val || *End || J < 1 || J > 256)
        usage("--jobs expects an integer in [1, 256]");
      C.Jobs = unsigned(J);
    } else if (A == "--spans") {
      C.SpansPath = Val;
    } else if (A == "--pairs") {
      C.PairsPath = Val;
    } else {
      usage("unknown argument " + A);
    }
  }
  if (!C.W || !HaveSeed || !(C.Seconds > 0) || !HaveTrace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (!C.Jobs)
    C.Jobs = C.W->Jobs;
  return C;
}

} // namespace

int main(int Argc, char **Argv) {
  Config C = parseArgs(Argc, Argv);
  std::vector<Metric> Ms;
  std::string Detail;
  Tally Tl;
  unsigned Mismatches = 0;
  // Records are tallied and written as they arrive, never kept: every
  // round process starts as a copy of this one, so its peak RSS would
  // otherwise grow with the records of the rounds before it.
  FILE *Pairs = nullptr;
  if (!C.PairsPath.empty() && !(Pairs = std::fopen(C.PairsPath.c_str(), "w"))) {
    std::fprintf(stderr, "error: cannot write %s\n", C.PairsPath.c_str());
    return 1;
  }

  if (!C.Trace) {
    std::vector<double> Setup, Rss, Lat;
    BudgetNeighbours Near(C.W->TimeoutSec);
    double Timed = 0;
    for (unsigned Round = 0; Timed < C.Seconds || Round % C.W->CycleRounds;
         ++Round) {
      RoundResult R;
      std::string Err;
      if (!runRoundInChild(C, Round, R, Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 1;
      }
      Setup.push_back(R.SetupS);
      Rss.push_back(R.PeakRssMb);
      Timed += R.TimedS;
      for (const PairRecord &P : R.Pairs) {
        Tl.add(P);
        Near.add(P);
        if (Pairs)
          writePair(Pairs, P);
        if (decided(P.Kind))
          Lat.push_back(P.Seconds * 1e3);
      }
    }
    // Latency percentiles are over decided pairs: an undecided pair's time
    // is the budget, and decided_ratio already counts those pairs.
    Ms = {
        {"pairs_per_s", double(Tl.Attempted) / Timed, "1/s"},
        {"verdict_p50_ms", quantile(Lat, 0.5), "ms"},
        {"verdict_p90_ms", quantile(Lat, 0.9), "ms"},
        {"decided_ratio", double(Tl.Decided) / double(Tl.Attempted), "ratio"},
        {"peak_rss_mb", quantile(Rss, 0.5), "MB"},
        {"setup_s", quantile(Setup, 0.5), "s"},
    };
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), "\"rounds\": %zu, \"timed_s\": %.4f, ",
                  Setup.size(), Timed);
    Detail = Buf + Near.json() + ", \"round_peak_rss_mb\": [";
    for (size_t I = 0; I < Rss.size(); ++I) {
      std::snprintf(Buf, sizeof(Buf), "%s%.1f", I ? ", " : "", Rss[I]);
      Detail += Buf;
    }
    Detail += "]";
  } else {
    // Repeat the first cycle of rounds until --seconds, each round once
    // plain and once traced.
    Tracer T(Clock::now());
    std::vector<RoundResult> Plain, Traced;
    LayerTotals Sum;
    double PlainWall = 0;
    unsigned Cycles = 0;
    for (Clock::time_point T0 = Clock::now();
         secondsBetween(T0, Clock::now()) < C.Seconds; ++Cycles)
      for (unsigned Round = 0; Round < C.W->CycleRounds; ++Round) {
        Plain.push_back(runRound(C, Round, nullptr));
        PlainWall += Plain.back().TimedS;
        LayerTotals L;
        TraceCtx TC{T, L, T.open("round", long(Round), -1)};
        Traced.push_back(runRound(C, Round, &TC));
        T.close(TC.Parent);
        Sum.add(L);
      }
    // Effort counts of every pair decided in both passes must be equal;
    // a pair decided in one pass only sat at the budget (a flip).
    unsigned Flips = 0;
    for (size_t K = 0; K < Plain.size(); ++K)
      for (size_t I = 0; I < Plain[K].Pairs.size(); ++I) {
        const PairRecord &A = Plain[K].Pairs[I], &B = Traced[K].Pairs[I];
        if (A.Kind != B.Kind) {
          ++Flips;
        } else if (decided(A.Kind) && !(A.Work == B.Work)) {
          ++Mismatches;
          std::fprintf(stderr, "error: effort differs on %s\n",
                       A.Name.c_str());
        }
      }
    // Per-layer figures are per-cycle means over the traced rounds.
    double N = double(Cycles);
    Ms = {
        {"smt.sat_s", Sum.SatS / N, "s"},
        {"smt.nonsat_s", Sum.NonSatS / N, "s"},
        {"smt.conflicts", double(Sum.Work.Conflicts) / N, "count"},
        {"smt.decisions", double(Sum.Work.Decisions) / N, "count"},
        {"smt.propagations", double(Sum.Work.Propagations) / N, "count"},
        {"smt.sat_checks", double(Sum.Work.SatChecks) / N, "count"},
        {"smt.ef_iterations", double(Sum.Work.EFIterations) / N, "count"},
        {"smt.clauses", double(Sum.Work.Clauses) / N, "count"},
        {"refine.queries", double(Sum.Work.Queries) / N, "count"},
        {"refine.nonquery_s", Sum.NonQueryS / N, "s"},
        {"refine.timeout_s", Sum.TimeoutS / N, "s"},
        {"transform.unroll_s", Sum.UnrollS / N, "s"},
        {"sema.encode_s", Sum.EncodeS / N, "s"},
        {"ir.parse_s", Sum.ParseS / N, "s"},
        {"opt.passes_s", Sum.PassesS / N, "s"},
        {"support.pool_busy_ratio", Sum.BusyS / Sum.CapacityS, "ratio"},
        {"trace.time_ratio", (Sum.WallS - Sum.ExtraS) / PlainWall, "ratio"},
    };
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "\"cycles\": %u, \"flips\": %u, \"effort_mismatches\": %u, "
                  "\"accounted_ratio\": %.4f",
                  Cycles, Flips, Mismatches,
                  (Sum.ParseS + Sum.NonQueryS + Sum.NonSatS + Sum.SatS) /
                      Sum.PairS);
    Detail = Buf;
    if (!C.SpansPath.empty() && !T.write(C.SpansPath)) {
      std::fprintf(stderr, "error: cannot write %s\n", C.SpansPath.c_str());
      return 1;
    }
    // Both passes' verdicts face the known-answer gate.
    for (std::vector<RoundResult> *Pass : {&Plain, &Traced})
      for (const RoundResult &R : *Pass)
        for (const PairRecord &P : R.Pairs) {
          Tl.add(P);
          if (Pairs)
            writePair(Pairs, P);
        }
  }

  if (Pairs && std::fclose(Pairs)) {
    std::fprintf(stderr, "error: cannot write %s\n", C.PairsPath.c_str());
    return 1;
  }

  std::string M = metricsJson(Ms);
  std::printf("{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"jobs\": %u, \"unroll\": %u, "
              "\"timeout_s\": %g, \"attempted\": %u, \"failed\": %u, %s, %s, "
              "\"metrics\": %s}}\n",
              C.W->Name, (unsigned long long)C.Seed, int(C.Trace), C.Jobs,
              C.W->Unroll, C.W->TimeoutSec, Tl.Attempted, Tl.Failed,
              Tl.json().c_str(), Detail.c_str(), M.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
              "\"metrics\": %s}\n",
              Tl.Failed == 0 && Mismatches == 0 ? "true" : "false",
              Tl.Attempted, Tl.Failed, M.c_str());
  return 0;
}
