//===- refine/Refinement.cpp - Translation validation core --------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "refine/Refinement.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "sema/Encoder.h"
#include "smt/ExistsForall.h"
#include "smt/Fingerprint.h"
#include "support/Profile.h"
#include "support/QueryCache.h"
#include "support/Stats.h"
#include "support/Trace.h"
#include "transform/Unroll.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <map>
#include <optional>

using namespace alive;
using namespace alive::refine;
using namespace alive::smt;
using namespace alive::sema;
using ir::Function;
using ir::Module;

std::string Options::validate() const {
  if (UnrollFactor == 0)
    return "unroll factor must be at least 1";
  if (!(Budget.TimeoutSec > 0) || !std::isfinite(Budget.TimeoutSec))
    return "solver timeout must be a positive, finite number of seconds";
  if (Budget.MaxLiterals == 0)
    return "solver memory budget (MaxLiterals) must be nonzero";
  if (Budget.MaxConflicts == 0)
    return "solver conflict budget (MaxConflicts) must be nonzero";
  if (Retry.MaxRungs > 8)
    return "retry ladder supports at most 8 rungs";
  if (Retry.MaxRungs > 0 &&
      (!(Retry.Multiplier > 1) || !std::isfinite(Retry.Multiplier)))
    return "retry multiplier must be a finite number greater than 1";
  if (DeadlineSec < 0 || !std::isfinite(DeadlineSec))
    return "deadline must be a non-negative, finite number of seconds";
  return "";
}

namespace {

/// Renders the shared-input part of a counterexample model, mapping the
/// encoder's "in.<arg>.<lane>" symbols back to source argument names.
std::string renderCounterexample(const Model &M, const Function &SrcF) {
  std::map<std::string, std::string> Entries;
  for (const auto &[Id, V] : M.entries()) {
    const Node &N = ExprCtx::get().node(Id);
    if (N.Name.rfind("in.", 0) != 0 && N.Name.rfind("out.", 0) != 0 &&
        N.Name.rfind("blocksize.", 0) != 0 && N.Name.rfind("tgt.", 0) != 0)
      continue;
    std::string Shown = N.Name;
    if (N.Name.rfind("in.", 0) == 0) {
      // in.<idx>.<lane>[.poison|.undef]
      unsigned ArgIdx = 0;
      size_t Pos = 3;
      while (Pos < N.Name.size() && isdigit((unsigned char)N.Name[Pos]))
        ArgIdx = ArgIdx * 10 + (N.Name[Pos++] - '0');
      if (ArgIdx < SrcF.numArgs())
        Shown = "%" + SrcF.arg(ArgIdx)->name() + N.Name.substr(Pos);
    } else if (N.Name.rfind("out.", 0) == 0) {
      std::string Suffix = N.Name.substr(4);
      Shown = Suffix == "memprobe"  ? "target memory probe"
              : Suffix == "membyte" ? "target memory byte"
                                    : "target return value (lane " + Suffix +
                                          ")";
    }
    std::string Val = N.Width == 0 ? (V.isZero() ? "false" : "true")
                                   : V.toString() + " (" + V.toHexString() +
                                         ")";
    Entries[Shown] = Val;
  }
  std::string Out;
  for (const auto &[Name, Val] : Entries)
    Out += "  " + Name + " = " + Val + "\n";
  return Out;
}

/// A seed that renames the inner copy's initial local memory to
/// \p OtherTag's and maps no read yet.
EFQuery::Seed emptySeed(const char *OtherTag) {
  EFQuery::Seed S;
  S.AppRenames = {{"localinit.srcI", std::string("localinit.") + OtherTag}};
  return S;
}

/// Maps \p From, one of the inner copy's reads, to \p Other[J] when that
/// exists and has the same sort, else to zero.
void seedRead(EFQuery::Seed &S, Expr From, const std::vector<Expr> &Other,
              size_t J) {
  unsigned W = From.isBool() ? 0 : From.width();
  if (J < Other.size() && (Other[J].isBool() ? 0 : Other[J].width()) == W)
    S.VarMap[From.id()] = Other[J];
  else
    S.VarMap[From.id()] = W == 0 ? mkFalse() : mkBV(W, 0);
}

/// Instantiates each nondeterministic read of the inner source copy \p SrcI
/// with the read of \p Other that reads the same thing (DESIGN.md
/// "Instantiation seeds"): the first match in the order same read path;
/// same root and same last reader; same root, in order; same creation-order
/// position; zero. The first two may map several inner reads to one
/// (`or %a, %a` -> `%a`). Candidates are taken in creation order, so the
/// seed does not depend on hash order.
EFQuery::Seed alignReads(const FunctionEncoding &SrcI,
                         const FunctionEncoding &Other, const char *OtherTag) {
  const ReadPaths &PS = SrcI.Paths, &PO = Other.Paths;
  constexpr unsigned None = ReadPaths::None;
  // Other's key and path ids as SrcI's (None: SrcI has no such key or
  // path). A parent's id is below its children's.
  std::vector<unsigned> KeyInto(PO.numKeys());
  for (unsigned K = 0; K < PO.numKeys(); ++K)
    KeyInto[K] = PS.findKey(PO.keyText(K));
  std::vector<unsigned> Into(PO.size(), None);
  for (unsigned Id = 0; Id < PO.size(); ++Id) {
    unsigned Parent = PO.parent(Id);
    if (Parent != None && (Parent = Into[Parent]) == None)
      continue;
    Into[Id] = PS.find(Parent, PO.step(Id), KeyInto[PO.keyId(Id)]);
  }
  // Rules 1-3 key a read of width W by its path, by its root and last step
  // (key and kind), and by its root, all as SrcI's ids.
  struct Key {
    unsigned Rule, Id, Last, W;
    bool operator==(const Key &O) const {
      return Rule == O.Rule && Id == O.Id && Last == O.Last && W == O.W;
    }
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      uint64_t H = (uint64_t)K.Id << 32 | K.Last;
      H ^= ((uint64_t)K.W << 2 | K.Rule) * 0x9e3779b97f4a7c15ull;
      return (size_t)(H ^ (H >> 29));
    }
  };
  auto keys = [](unsigned Path, unsigned Root, unsigned LastKey,
                 ReadPaths::Step LastStep, unsigned W) {
    unsigned Last = LastKey == None ? None : LastKey * 8 + (unsigned)LastStep;
    return std::array<Key, 3>{Key{1, Path, 0, W}, Key{2, Root, Last, W},
                              Key{3, Root, 0, W}};
  };
  auto widthOf = [](Expr E) { return E.isBool() ? 0 : E.width(); };
  // Lookups only, never iteration: the seed does not depend on hash order.
  std::unordered_map<Key, std::vector<size_t>, KeyHash> Cands;
  for (size_t J = 0; J < Other.NondetOrder.size(); ++J) {
    unsigned T = Other.NondetPaths[J];
    for (const Key &K :
         keys(Into[T], Into[PO.root(T)], KeyInto[PO.keyId(T)], PO.step(T),
              widthOf(Other.NondetOrder[J])))
      if (K.Id != None && K.Last != None)
        Cands[K].push_back(J);
  }
  EFQuery::Seed S = emptySeed(OtherTag);
  std::unordered_map<Key, size_t, KeyHash> Seen;
  for (size_t I = 0; I < SrcI.NondetOrder.size(); ++I) {
    Expr From = SrcI.NondetOrder[I];
    unsigned P = SrcI.NondetPaths[I];
    std::array<Key, 3> Ks =
        keys(P, PS.root(P), PS.keyId(P), PS.step(P), widthOf(From));
    size_t J = I; // rule 4: the same creation-order position
    bool Found = false;
    for (int R = 0; R < 3; ++R) {
      size_t Nth = Seen[Ks[R]]++;
      auto It = Cands.find(Ks[R]);
      if (Found || It == Cands.end())
        continue;
      const std::vector<size_t> &C = It->second;
      if (R == 2 && Nth >= C.size())
        continue; // rule 3 pairs in order, one to one
      J = C[std::min(Nth, C.size() - 1)];
      Found = true;
    }
    seedRead(S, From, Other.NondetOrder, J);
  }
  return S;
}

/// Pairs the inner copy's reads with \p Other's from the end: robust when
/// the target dropped instructions, e.g. after DCE.
EFQuery::Seed alignEnds(const FunctionEncoding &SrcI,
                        const FunctionEncoding &Other, const char *OtherTag) {
  EFQuery::Seed S = emptySeed(OtherTag);
  size_t LenS = SrcI.NondetOrder.size(), LenO = Other.NondetOrder.size();
  for (size_t I = 0; I < LenS; ++I)
    seedRead(S, SrcI.NondetOrder[I], Other.NondetOrder,
             LenS - I <= LenO ? LenO - (LenS - I) : LenO);
  return S;
}

/// One verification task: everything shared by the staged queries.
class RefinementCheck {
public:
  RefinementCheck(const Function &Src, const Function &Tgt, const Module *M,
                  const Options &Opts, support::QueryCache *QC,
                  const prof::Span &Pair, const TimeLimit &Limit)
      : SrcF(Src), TgtF(Tgt), M(M), Opts(Opts), QC(QC), Pair(Pair),
        Limit(Limit) {}

  Verdict run();

private:
  const Function &SrcF;
  const Function &TgtF;
  const Module *M;
  const Options &Opts;
  /// Staged-query result cache; null = query level disabled.
  support::QueryCache *QC;
  /// The verify_pair span, whose clock is the pair's time.
  const prof::Span &Pair;
  /// The pair's time limit, fixed when its verify_pair span opened.
  const TimeLimit &Limit;

  std::unique_ptr<Function> SrcU, TgtU;
  std::unique_ptr<MemoryLayout> Layout;
  FunctionEncoding Src, SrcI, Tgt;
  std::vector<Expr> OuterBase;
  Expr PhiBase = mkTrue();
  std::vector<EFQuery::Seed> Seeds;
  unsigned Queries = 0;
  /// One record per query run so far; moved into the Verdict.
  std::vector<QueryStats> QStats;

  Verdict verdict(VerdictKind K, std::string Check = "",
                  std::string Detail = "", Reason Why = Reason::None) {
    Verdict V;
    V.Kind = K;
    V.FailedCheck = std::move(Check);
    V.Detail = std::move(Detail);
    V.Why = Why;
    V.Seconds = Pair.seconds();
    // A single attempt is its own cumulative cost; the Validator's retry
    // ladder overwrites this with the whole-ladder sum.
    V.CumulativeSeconds = V.Seconds;
    V.QueriesRun = Queries;
    V.Queries = std::move(QStats);
    return V;
  }

  /// One staged query's answer, from the solver or the query cache. When
  /// Sat, Approx marks a model involving an over-approximated feature and
  /// Detail is the text a verdict shows.
  struct Answer {
    QueryResult Result = QueryResult::Unknown;
    Reason Why = Reason::None;
    bool Approx = false;
    std::string Detail;
    unsigned Iterations = 0;
    std::vector<std::string> Restless;
  };

  /// The protocol of every staged query, step 1 included: one
  /// "staged_query" span, one refine.queries bump and one QueryStats record
  /// per call, so QueriesRun, the Queries vector and the trace stay in
  /// lockstep. With the query cache on, \p Fingerprint() keys a lookup
  /// before \p Solve() runs and a fill after it decides; unknowns are
  /// budget artifacts and never cached.
  template <typename FpFn, typename SolveFn>
  Answer stagedQuery(const std::string &Check, FpFn Fingerprint,
                     SolveFn Solve);

  /// Up to three of \p Changes' variables that are reads of the inner
  /// source copy, in order, named by their read paths.
  std::vector<std::string> restlessReads(
      const std::vector<std::pair<ExprId, unsigned>> &Changes) const {
    std::vector<std::string> Names;
    if (Changes.empty())
      return Names;
    std::unordered_map<ExprId, unsigned> PathOf;
    for (size_t I = 0; I < SrcI.NondetOrder.size(); ++I)
      PathOf[SrcI.NondetOrder[I].id()] = SrcI.NondetPaths[I];
    for (const auto &[Var, N] : Changes) {
      auto It = PathOf.find(Var);
      if (It == PathOf.end())
        continue;
      // `add %a, %a` reads %a twice along the same path: name it once.
      std::string Name = SrcI.Paths.render(It->second);
      if (std::find(Names.begin(), Names.end(), Name) == Names.end())
        Names.push_back(std::move(Name));
      if (Names.size() == 3)
        break;
    }
    return Names;
  }

  /// Runs one EF query; classifies its result. \returns empty optional when
  /// refinement holds for this check.
  std::optional<Verdict> runQuery(const std::string &CheckName,
                                  std::vector<Expr> ExtraOuter, Expr ExtraPhi);
};

QueryResult toQueryResult(SatResult R) {
  return R == SatResult::Unsat ? QueryResult::Unsat
         : R == SatResult::Sat ? QueryResult::Sat
                               : QueryResult::Unknown;
}

template <typename FpFn, typename SolveFn>
RefinementCheck::Answer
RefinementCheck::stagedQuery(const std::string &Check, FpFn Fingerprint,
                             SolveFn Solve) {
  ALIVE_STAT_SAMPLER(QueryTime, "time.query");
  prof::Span ProfSpan("staged_query", Check, QueryTime);
  ++Queries;
  ALIVE_STAT_COUNTER(QueryCount, "refine.queries");
  QueryCount.inc();

  // The query is fully assembled, so its canonical fingerprint is available
  // before any solver work. A hit skips the search entirely; sat-side hits
  // replay the rendered counterexample (plain text: models never cross the
  // cache).
  Answer A;
  support::Fingerprint Fp;
  bool Hit = false;
  if (QC) {
    prof::Span FpSpan("cache_lookup", Check);
    Fp = Fingerprint();
    support::CachedQuery Cached;
    if ((Hit = QC->findQuery(Fp, Cached))) {
      A.Result = Cached.Result == support::CachedQueryResult::Unsat
                     ? QueryResult::Unsat
                     : QueryResult::Sat;
      A.Approx = Cached.Result == support::CachedQueryResult::SatApprox;
      A.Detail = std::move(Cached.Detail);
    }
  }
  if (!Hit)
    A = Solve();

  prof::Tally E = ProfSpan.effort();
  QueryStats QS;
  QS.Check = Check;
  QS.Result = A.Result;
  QS.Seconds = ProfSpan.seconds();
  QS.SolverSeconds = E.SolverSeconds;
  QS.SatChecks = E.SatChecks;
  QS.EFIterations = A.Iterations;
  QS.Conflicts = E.Conflicts;
  QS.Decisions = E.Decisions;
  QS.Propagations = E.Propagations;
  QS.Clauses = E.Clauses;
  QS.CacheHit = Hit;
  QS.RestlessReads = std::move(A.Restless);
  if (trace::enabled())
    trace::Event("query")
        .str("check", QS.Check)
        .str("result", toString(QS.Result))
        .num("seconds", QS.Seconds)
        .num("ef_iterations", QS.EFIterations)
        .effort(E)
        .flag("cached", QS.CacheHit)
        .strs("restless_reads", QS.RestlessReads);
  QStats.push_back(std::move(QS));

  if (QC && !Hit &&
      (A.Result == QueryResult::Unsat || A.Result == QueryResult::Sat))
    QC->putQuery(Fp, {A.Result == QueryResult::Unsat
                          ? support::CachedQueryResult::Unsat
                      : A.Approx ? support::CachedQueryResult::SatApprox
                                 : support::CachedQueryResult::Sat,
                      A.Detail});
  return A;
}

std::optional<Verdict>
RefinementCheck::runQuery(const std::string &CheckName,
                          std::vector<Expr> ExtraOuter, Expr ExtraPhi) {
  EFQuery Q;
  Q.Outer = OuterBase;
  for (Expr E : ExtraOuter)
    Q.Outer.push_back(E);
  Q.Inner = mkAnd(PhiBase, ExtraPhi);
  Q.InnerVars = SrcI.NondetVars;
  Q.InnerAppPrefixes = {"localinit.srcI"};
  if (Opts.UseInstantiationSeeds)
    Q.Seeds = Seeds;
  Q.DeriveEquationDefs = Opts.UseInstantiationSeeds;
  for (const auto &N : Src.ApproxFnNames)
    Q.AvoidAppPrefixes.push_back(N);
  for (const auto &N : SrcI.ApproxFnNames)
    Q.AvoidAppPrefixes.push_back(N);
  for (const auto &N : Tgt.ApproxFnNames)
    Q.AvoidAppPrefixes.push_back(N);

  Answer A = stagedQuery(
      CheckName, [&] { return fingerprintQuery(Q); },
      [&] {
        Answer Out;
        // A query starts only before the pair's instant; a cancelled one
        // stops at solveExistsForall's first poll.
        if (Limit.poll() == Reason::Timeout) {
          Out.Result = QueryResult::BudgetExhausted;
          return Out;
        }
        EFOutcome R = solveExistsForall(Q, Limit);
        Out.Result = toQueryResult(R.Res);
        Out.Why = R.UnknownReason;
        Out.Iterations = R.Iterations;
        Out.Restless = restlessReads(R.WitnessChanges);
        if (R.Res != SatResult::Sat)
          return Out;
        // The engine already retried for a model whose support avoids
        // over-approximated features (Section 3.8); a tainted model means we
        // cannot conclude a real bug.
        Out.Approx = R.ApproxInvolved;
        Out.Detail =
            R.ApproxInvolved
                ? "counterexample depends on over-approximated feature: " +
                      R.ApproxApp
                : "counterexample:\n" + renderCounterexample(R.M, SrcF);
        return Out;
      });
  switch (A.Result) {
  case QueryResult::Unsat:
    return std::nullopt; // this check passes
  case QueryResult::BudgetExhausted:
    return verdict(VerdictKind::Timeout, CheckName, "query budget exhausted",
                   Reason::BudgetExhausted);
  case QueryResult::Unknown:
    // The detail is the reason's spelling, so the verdict text is unchanged
    // from the stringly-typed days.
    return verdict(A.Why == Reason::Memory ? VerdictKind::OutOfMemory
                                           : VerdictKind::Timeout,
                   CheckName, toString(A.Why), A.Why);
  case QueryResult::Sat:
    break;
  }
  return verdict(A.Approx ? VerdictKind::Unsupported : VerdictKind::Incorrect,
                 CheckName, std::move(A.Detail));
}

Verdict RefinementCheck::run() {
  // Structural sanity (we do not trust the compiler under test).
  Diag Err;
  if (!ir::verifyFunction(SrcF, Err) || !ir::verifyFunction(TgtF, Err))
    return verdict(VerdictKind::Failed, "verifier", Err.str());
  if (SrcF.returnType() != TgtF.returnType() ||
      SrcF.numArgs() != TgtF.numArgs())
    return verdict(VerdictKind::Failed, "signature",
                   "source/target signatures differ");
  for (unsigned I = 0; I < SrcF.numArgs(); ++I)
    if (SrcF.arg(I)->type() != TgtF.arg(I)->type())
      return verdict(VerdictKind::Failed, "signature",
                     "argument types differ");

  // Bounded unrolling (Section 7).
  SrcU = SrcF.clone();
  TgtU = TgtF.clone();
  Stopwatch UnrollTimer;
  auto SrcUnroll = transform::unrollLoops(*SrcU, Opts.UnrollFactor);
  auto TgtUnroll = transform::unrollLoops(*TgtU, Opts.UnrollFactor);
  if (trace::enabled())
    trace::Event("unroll")
        .str("function", SrcF.name())
        .num("factor", Opts.UnrollFactor)
        .num("seconds", UnrollTimer.seconds())
        .num("src_sinks", SrcUnroll.Sinks.size())
        .num("tgt_sinks", TgtUnroll.Sinks.size())
        .flag("irreducible",
              SrcUnroll.HadIrreducible || TgtUnroll.HadIrreducible);
  if (SrcUnroll.HadIrreducible || TgtUnroll.HadIrreducible)
    return verdict(VerdictKind::Unsupported, "loops",
                   "irreducible control flow");

  Layout = std::make_unique<MemoryLayout>(
      MemoryLayout::compute(*SrcU, *TgtU, M));

  EncodeOptions SO{"src", Opts.EquivalenceMode};
  EncodeOptions SIO{"srcI", Opts.EquivalenceMode};
  EncodeOptions TO{"tgt", Opts.EquivalenceMode};
  Stopwatch EncodeTimer;
  Src = encodeFunction(*SrcU, *Layout, SrcUnroll.Sinks, SO);
  SrcI = encodeFunction(*SrcU, *Layout, SrcUnroll.Sinks, SIO);
  Tgt = encodeFunction(*TgtU, *Layout, TgtUnroll.Sinks, TO);
  if (trace::enabled())
    trace::Event("encode")
        .str("function", SrcF.name())
        .num("seconds", EncodeTimer.seconds())
        .num("encodings", 3)
        .flag("approx", !Src.ApproxFnNames.empty() ||
                            !SrcI.ApproxFnNames.empty() ||
                            !Tgt.ApproxFnNames.empty());

  // Premise (Section 5.2 final formula): the target executes within bounds
  // under both preconditions; the source-side premise uses its own
  // (outer-bound) nondeterminism copy.
  OuterBase.push_back(Tgt.Pre);
  OuterBase.push_back(Src.Pre);
  OuterBase.push_back(mkNot(Tgt.SinkDomain));
  OuterBase.push_back(mkNot(Src.SinkDomain));
  for (Expr A : Tgt.Axioms)
    OuterBase.push_back(A);
  for (Expr A : Src.Axioms)
    OuterBase.push_back(A);

  PhiBase = SrcI.Pre;
  PhiBase = mkAnd(PhiBase, mkNot(SrcI.SinkDomain));
  for (Expr A : SrcI.Axioms)
    PhiBase = mkAnd(PhiBase, A);

  // Symbolic quantifier-instantiation seeds: pair the inner source copy's
  // nondeterministic reads with (a) the premise source copy's and (b) the
  // target's reads of the same thing, plus (c) the target's reads aligned
  // at the end when the counts differ. Seeds are heuristic accelerators;
  // the CEGIS loop remains the completeness fallback.
  Seeds.push_back(alignReads(SrcI, Src, "src"));
  Seeds.push_back(alignReads(SrcI, Tgt, "tgt"));
  if (SrcI.NondetOrder.size() != Tgt.NondetOrder.size())
    Seeds.push_back(alignEnds(SrcI, Tgt, "tgt"));

  // Step 1: the preconditions must not be vacuously false. A plain check
  // of the premise within the pair's time limit, keyed by the
  // order-independent conjunction fingerprint; here Unsat is the failure.
  Answer Pre = stagedQuery(
      "precondition", [&] { return fingerprintConjunction(OuterBase); },
      [&] {
        Solver S(Limit);
        for (Expr E : OuterBase)
          S.add(E);
        SolveOutcome R = S.check();
        Answer Out;
        Out.Result = toQueryResult(R.Res);
        Out.Why = R.UnknownReason;
        return Out;
      });
  if (Pre.Result == QueryResult::Unsat)
    return verdict(VerdictKind::PreconditionFalse, "precondition",
                   "the combined preconditions are unsatisfiable");

  // Step 2: the target triggers UB only when the source does.
  if (auto V = runQuery("target is more undefined than source", {Tgt.UB},
                        SrcI.UB))
    return *V;

  // Step 3: return-domain agreement (modulo source UB).
  if (auto V = runQuery("target returns when source cannot",
                        {Tgt.RetDomain},
                        mkOr(SrcI.UB, SrcI.RetDomain)))
    return *V;

  // Steps 4-6: return value refinement, lane by lane.
  if (!SrcF.returnType()->isVoid() && !Opts.EquivalenceMode) {
    for (unsigned Lane = 0; Lane < Tgt.RetVal.Elems.size(); ++Lane) {
      const StateValue &TL = Tgt.RetVal.Elems[Lane];
      const StateValue &SL = SrcI.RetVal.Elems[Lane];
      // Step 4: target poison only where source poison (or UB).
      if (auto V = runQuery(
              "target is more poisonous than source (lane " +
                  std::to_string(Lane) + ")",
              {Tgt.RetDomain, mkNot(TL.NonPoison)},
              mkOr(SrcI.UB, mkAnd(SrcI.RetDomain, mkNot(SL.NonPoison)))))
        return *V;
    }
  }
  if (!SrcF.returnType()->isVoid()) {
    for (unsigned Lane = 0; Lane < Tgt.RetVal.Elems.size(); ++Lane) {
      const StateValue &TL = Tgt.RetVal.Elems[Lane];
      const StateValue &SL = SrcI.RetVal.Elems[Lane];
      // Steps 5/6: every defined target value must be producible by the
      // source (undef is covered by the inner existential refresh vars).
      Expr O = mkVar("out." + std::to_string(Lane), TL.Val.width());
      const ir::Type *LaneTy = laneType(SrcF.returnType(), Lane);
      Expr SrcMatches = mkEq(SL.Val, O);
      if (LaneTy->isPtr()) {
        // Local pointers are private to each function; treat a pair of
        // local blocks as mutually refining (coarse pointerRefined()).
        Expr BothLocal =
            mkAnd(Layout->isLocalBid(Layout->ptrBid(SL.Val)),
                  Layout->isLocalBid(Layout->ptrBid(O)));
        SrcMatches = mkOr(SrcMatches, BothLocal);
      }
      Expr Good =
          Opts.EquivalenceMode
              ? SrcMatches
              : mkOr(SrcI.UB, mkAnd(SrcI.RetDomain,
                                    mkOr(mkNot(SL.NonPoison), SrcMatches)));
      std::vector<Expr> Outer{Tgt.RetDomain, mkEq(O, TL.Val)};
      if (!Opts.EquivalenceMode)
        Outer.push_back(TL.NonPoison);
      if (auto V = runQuery("target's return value is more specific (lane " +
                                std::to_string(Lane) + ")",
                            Outer, Good))
        return *V;
    }
  }

  // Step 7: memory refinement via an adversarial probe address into a
  // non-local block.
  if (!Opts.EquivalenceMode) {
    unsigned PB = Layout->ptrBits();
    Expr Probe = mkVar("out.memprobe", PB);
    Expr Bid = Layout->ptrBid(Probe);
    Expr InRange = mkAnd(
        mkNe(Bid, mkBV(Layout->bidBits(), 0)),
        mkAnd(Layout->isNonLocalOrNull(Bid),
              mkUlt(Layout->ptrOff(Probe),
                    Layout->blockSize(Bid, "tgt"))));
    Expr TgtByte = Tgt.Mem->loadByte(Probe);
    Expr OByte = mkVar("out.membyte", Layout->byteBits());
    Expr SrcByte = SrcI.Mem->loadByte(Probe);

    ByteOps BO(*Layout);
    Expr MaskS = BO.npMask(SrcByte), MaskT = BO.npMask(OByte);
    // Pointer bytes carry whole-byte poison: any nonzero source mask means
    // the source byte is poison and refines anything; otherwise the target
    // byte must be an identical non-poison pointer byte.
    Expr PtrRefined = mkOr(
        mkNe(MaskS, mkBV(8, 0)),
        mkAnd(BO.isPtrByte(OByte),
              mkAnd(mkEq(BO.ptrPayloadPtr(SrcByte), BO.ptrPayloadPtr(OByte)),
                    mkAnd(mkEq(BO.ptrPayloadIdx(SrcByte),
                               BO.ptrPayloadIdx(OByte)),
                          mkEq(MaskT, mkBV(8, 0))))));
    // Non-pointer bytes: the target may be poisonous only where the source
    // is, and must agree on the bits the source defines.
    Expr AllPoisonS = mkEq(MaskS, mkBV(BitVec::allOnes(8)));
    Expr NewPoison = mkNe(mkBVAnd(MaskT, mkBVNot(MaskS)), mkBV(8, 0));
    Expr Diff = mkBVAnd(mkBVXor(BO.intValue(SrcByte), BO.intValue(OByte)),
                        mkBVNot(MaskS));
    Expr IntRefined =
        mkOr(AllPoisonS,
             mkAnd(mkNot(BO.isPtrByte(OByte)),
                   mkAnd(mkNot(NewPoison), mkEq(Diff, mkBV(8, 0)))));
    Expr Refined =
        mkIte(BO.isPtrByte(SrcByte), PtrRefined, IntRefined);
    if (auto V = runQuery(
            "target's memory is more specific",
            {InRange, mkEq(OByte, TgtByte), mkNot(Tgt.UB)},
            mkOr(SrcI.UB, Refined)))
      return *V;
  }

  // Step 8 (Section 6): every target call must correspond to a source call
  // with the same callee, arguments and memory version.
  if (!Opts.EquivalenceMode) {
    for (const CallRecord &TC : Tgt.Calls) {
      Expr SomeMatch = mkFalse();
      for (const CallRecord &SC : SrcI.Calls) {
        if (SC.Callee != TC.Callee || SC.Args.size() != TC.Args.size())
          continue;
        Expr Match = mkAnd(SC.Dom, mkEq(SC.Version, TC.Version));
        for (size_t I = 0; I < SC.Args.size(); ++I)
          Match = mkAnd(Match, mkEq(SC.Args[I], TC.Args[I]));
        SomeMatch = mkOr(SomeMatch, Match);
      }
      if (auto V = runQuery("target introduces a call to @" + TC.Callee,
                            {TC.Dom}, mkOr(SrcI.UB, SomeMatch)))
        return *V;
    }
  }

  return verdict(VerdictKind::Correct);
}

} // namespace

Verdict refine::detail::checkPair(const Function &Src, const Function &Tgt,
                                  const Module *M, const Options &Opts,
                                  support::QueryCache *QC, unsigned Rung,
                                  TimeLimit::Instant NotAfter) {
  ALIVE_STAT_COUNTER(Pairs, "refine.pairs");
  Pairs.inc();
  ALIVE_STAT_SAMPLER(VerifyTime, "time.verify");
  prof::Span ProfSpan("verify_pair", Src.name(), VerifyTime);
  TimeLimit Limit(Opts.Budget, NotAfter);
  RefinementCheck C(Src, Tgt, M, Opts, QC, ProfSpan, Limit);
  Verdict V = C.run();
  V.Rung = Rung;
  // The batch deadline came before the pair's own instant, so the time
  // limit that stopped the pair was the deadline's.
  if (Limit.capped() && V.Kind == VerdictKind::Timeout &&
      (V.Why == Reason::Timeout || V.Why == Reason::BudgetExhausted)) {
    V.Why = Reason::DeadlineSkipped;
    V.Detail = "cancelled by batch deadline";
  }
  traceVerdict(Src.name(), V);
  return V;
}

void refine::detail::traceVerdict(const std::string &Function,
                                  const Verdict &V) {
  if (trace::enabled())
    trace::Event("verdict")
        .str("function", Function)
        .str("kind", V.kindName())
        .str("failed_check", V.FailedCheck)
        .str("reason", toString(V.Why))
        .num("seconds", V.Seconds)
        .num("queries_run", V.QueriesRun)
        .num("rung", V.Rung)
        .flag("cached", V.Cached);
}
