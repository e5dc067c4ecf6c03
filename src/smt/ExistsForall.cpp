//===- smt/ExistsForall.cpp - EF-SMT via CEGIS instantiation ----------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/ExistsForall.h"

#include "support/Profile.h"
#include "support/Stats.h"
#include "support/Trace.h"

using namespace alive;
using namespace alive::smt;

namespace {

/// Derives definitional instantiations for inner variables from equations
/// in Phi: a conjunct-or-disjunct subterm (= u t) with u inner and t
/// inner-free suggests u := t (for equalities under an ite on an inner var,
/// the branch variable is also tried). Iterates so chains of definitions
/// resolve. This plays the role of Z3's pattern-based instantiation that
/// Alive2 depends on for its undef encoding (Section 3.3/3.7).
/// Unification-style descent: given (= U T) with T inner-free, record
/// candidate definitions for inner variables appearing in value position of
/// U. Descends through ite arms, extracts and concats (the shapes the byte
/// packing of Section 4 produces).
struct PartialDef {
  BitVec Mask; // bits of the variable this definition constrains
  Expr Value;  // the constrained bits (other bits zero)
};

void matchDefs(Expr U, Expr T, const BitVec &Mask,
               const std::unordered_set<ExprId> &InnerVars,
               std::unordered_map<ExprId, PartialDef> &Defs, unsigned Depth,
               bool PreferSecond);

/// Grounds \p E: substitutes current defs, then pins any remaining inner
/// variables to zero (recording those pins as definitions so the final
/// instantiation is consistent). Returns the inner-free result.
Expr groundWithZeros(Expr E, const std::unordered_set<ExprId> &InnerVars,
                     std::unordered_map<ExprId, PartialDef> &Defs) {
  std::unordered_map<ExprId, Expr> Flat;
  for (const auto &[Id, P] : Defs)
    Flat[Id] = P.Value;
  Expr R = substitute(E, Flat);
  std::unordered_set<ExprId> Vars;
  collectVars(R, Vars);
  std::unordered_map<ExprId, Expr> Zeros;
  for (ExprId V : Vars) {
    if (!InnerVars.count(V))
      continue;
    Expr Var(V);
    unsigned W = Var.isBool() ? 1 : Var.width();
    Expr Zero = Var.isBool() ? mkFalse() : mkBV(Var.width(), 0);
    Zeros[V] = Zero;
    Defs[V] = {BitVec::allOnes(W), Zero};
  }
  return Zeros.empty() ? R : substitute(R, Zeros);
}

void matchDefs(Expr U, Expr T, const BitVec &Mask,
               const std::unordered_set<ExprId> &InnerVars,
               std::unordered_map<ExprId, PartialDef> &Defs, unsigned Depth,
               bool PreferSecond) {
  if (Depth == 0)
    return;
  // Copy the fields up front: building expressions below may reallocate
  // the node arena and invalidate references into it.
  Kind K = U.kind();
  std::vector<ExprId> Ops = U.node().Ops;
  unsigned P0 = U.node().P0;
  if (K == Kind::Var) {
    if (!InnerVars.count(U.id()) || U.isBool() || U.width() != T.width())
      return;
    auto It = Defs.find(U.id());
    if (It == Defs.end()) {
      Defs[U.id()] = {Mask, mkBVAnd(T, mkBV(Mask))};
      return;
    }
    // Merge bit ranges that are not yet constrained.
    BitVec Fresh = Mask.bvand(It->second.Mask.bvnot());
    if (Fresh.isZero())
      return;
    It->second.Mask = It->second.Mask.bvor(Fresh);
    It->second.Value =
        mkBVOr(It->second.Value, mkBVAnd(T, mkBV(Fresh)));
    return;
  }
  switch (K) {
  case Kind::Ite:
    matchDefs(Expr(Ops[1]), T, Mask, InnerVars, Defs, Depth - 1,
              PreferSecond);
    matchDefs(Expr(Ops[2]), T, Mask, InnerVars, Defs, Depth - 1,
              PreferSecond);
    return;
  case Kind::Extract: {
    // (= (extract x lo len) t): constrains bits [lo, lo+len) of x.
    Expr X(Ops[0]);
    unsigned XW = X.width();
    Expr Widened = mkZExt(T, XW);
    BitVec NewMask = Mask.zext(XW);
    if (P0 > 0) {
      Widened = mkShl(Widened, mkBV(XW, P0));
      NewMask = NewMask.shl(BitVec(XW, P0));
    }
    matchDefs(X, Widened, NewMask, InnerVars, Defs, Depth - 1, PreferSecond);
    return;
  }
  case Kind::Concat: {
    Expr Hi(Ops[0]), Lo(Ops[1]);
    matchDefs(Lo, mkExtract(T, 0, Lo.width()),
              Mask.extract(0, Lo.width()), InnerVars, Defs, Depth - 1,
              PreferSecond);
    matchDefs(Hi, mkExtract(T, Lo.width(), Hi.width()),
              Mask.extract(Lo.width(), Hi.width()), InnerVars, Defs,
              Depth - 1, PreferSecond);
    return;
  }
  case Kind::BNot:
    matchDefs(Expr(Ops[0]), mkBVNot(T), Mask, InnerVars, Defs, Depth - 1,
              PreferSecond);
    return;
  case Kind::Add:
  case Kind::BXor: {
    // Invertible in either argument when every bit is constrained: ground
    // the other side (pinning its residual inner variables to zero) and
    // solve for this one. Descend into the side with more unresolved inner
    // variables (PreferSecond breaks ties the other way).
    if (!Mask.isAllOnes())
      return; // cannot invert through partially-constrained bits
    auto innerCount = [&](Expr E) {
      std::unordered_set<ExprId> Vars;
      collectVars(E, Vars);
      unsigned N = 0;
      for (ExprId V : Vars)
        N += InnerVars.count(V) && !Defs.count(V);
      return N;
    };
    unsigned N0 = innerCount(Expr(Ops[0]));
    unsigned N1 = innerCount(Expr(Ops[1]));
    int First;
    if (N0 != N1)
      First = N0 > N1 ? 0 : 1;
    else
      First = PreferSecond ? 1 : 0;
    for (int Pass = 0; Pass < 2; ++Pass) {
      int Side = Pass == 0 ? First : 1 - First;
      if (innerCount(Expr(Ops[Side])) == 0)
        continue;
      Expr Other = groundWithZeros(Expr(Ops[1 - Side]), InnerVars, Defs);
      Expr Solved =
          K == Kind::Add ? mkSub(T, Other) : mkBVXor(T, Other);
      matchDefs(Expr(Ops[Side]), Solved, Mask, InnerVars, Defs, Depth - 1,
                PreferSecond);
      break; // one argument per node keeps the pinning consistent
    }
    return;
  }
  default:
    return;
  }
}

void deriveEquationDefs(Expr Phi, const std::unordered_set<ExprId> &InnerVars,
                        std::unordered_map<ExprId, Expr> &Out,
                        bool PreferSecond) {
  // Collect all Eq nodes once. Store ids, not Node pointers: matchDefs
  // interns new expressions, which may reallocate the node arena.
  std::vector<ExprId> Eqs;
  walk(Phi, [&Eqs](ExprId Id, const Node &N) {
    if (N.K == Kind::Eq)
      Eqs.push_back(Id);
  });
  std::unordered_map<ExprId, PartialDef> Defs;
  for (int Round = 0; Round < 4; ++Round) {
    size_t Before = Defs.size();
    for (ExprId EqId : Eqs) {
      for (int Side = 0; Side < 2; ++Side) {
        ExprId UId = ExprCtx::get().node(EqId).Ops[Side];
        ExprId TId = ExprCtx::get().node(EqId).Ops[1 - Side];
        Expr U(UId);
        Expr T(TId);
        if (U.isBool())
          continue;
        std::unordered_map<ExprId, Expr> Flat;
        for (const auto &[Id, P] : Defs)
          Flat[Id] = P.Value;
        Expr TSub = substitute(T, Flat);
        if (mentionsAnyVar(TSub, InnerVars))
          continue;
        matchDefs(U, TSub, BitVec::allOnes(U.width()), InnerVars, Defs, 12,
                  PreferSecond);
      }
    }
    if (Defs.size() == Before)
      break;
  }
  for (const auto &[Id, P] : Defs)
    Out[Id] = P.Value;
}

/// True if any avoided application survives in the query's support after
/// substituting the candidate model's plain variables (Section 3.8's
/// partial-model check).
bool modelInvolvesApp(const EFQuery &Query, const Model &M,
                      std::string &Which) {
  if (Query.AvoidAppPrefixes.empty())
    return false;
  std::unordered_map<ExprId, Expr> Subst;
  for (const auto &[Id, V] : M.entries()) {
    const Node &N = ExprCtx::get().node(Id);
    if (N.Name.rfind("!ack.", 0) == 0)
      continue;
    Subst[Id] = N.Width == 0 ? mkBool(!V.isZero()) : mkBV(V);
  }
  auto survives = [&](Expr E) {
    Expr Folded = substitute(E, Subst);
    std::unordered_set<ExprId> Apps;
    collectApps(Folded, Apps);
    for (ExprId A : Apps) {
      const std::string &Name = ExprCtx::get().node(A).Name;
      for (const std::string &P : Query.AvoidAppPrefixes)
        if (Name.rfind(P, 0) == 0) {
          Which = Name;
          return true;
        }
    }
    return false;
  };
  for (Expr E : Query.Outer)
    if (survives(E))
      return true;
  return survives(Query.Inner);
}

} // namespace

EFOutcome smt::solveExistsForall(const EFQuery &Query,
                                 const SolverBudget &Budget) {
  EFOutcome Out;
  // Constructed before the TraceEmitter so the "ef_query" trace event
  // (emitted in the Emitter's destructor) still carries this span's id.
  ALIVE_STAT_SAMPLER(QueryTime, "time.ef_query");
  prof::Span ProfSpan("ef_search", {}, QueryTime);
  ALIVE_STAT_COUNTER(Queries, "ef.queries");
  Queries.inc();

  // Emits the query's summary on every exit path.
  struct TraceEmitter {
    EFOutcome &Out;
    const prof::Span &Span;
    ~TraceEmitter() {
      if (!trace::enabled())
        return;
      trace::Event("ef_query")
          .str("result", toString(Out.Res))
          .num("iterations", Out.Iterations)
          .num("seconds", Span.seconds())
          .effort(Span.effort())
          .flag("approx_involved", Out.ApproxInvolved);
    }
  } Emitter{Out, ProfSpan};

  std::vector<Expr> Outer = Query.Outer;
  Expr Phi = Query.Inner;
  std::unordered_set<ExprId> InnerVars = Query.InnerVars;

  // Equation-derived definitions of inner variables (e-matching analog),
  // in two variants: preferring to solve the first or the second argument
  // of invertible nodes (covering symmetric undef cases).
  std::vector<std::unordered_map<ExprId, Expr>> EqDefVariants;
  if (Query.DeriveEquationDefs) {
    for (bool PreferSecond : {false, true}) {
      std::unordered_map<ExprId, Expr> Defs;
      deriveEquationDefs(Phi, InnerVars, Defs, PreferSecond);
      if (!Defs.empty())
        EqDefVariants.push_back(std::move(Defs));
    }
  }

  // Symbolic instantiations of the universal (see EFQuery::Seeds): each
  // given seed as-is, plus each equation-defs variant layered over it.
  std::vector<EFQuery::Seed> AllSeeds = Query.Seeds;
  for (const auto &EqDefs : EqDefVariants) {
    if (Query.Seeds.empty()) {
      EFQuery::Seed S;
      S.VarMap = EqDefs;
      AllSeeds.push_back(std::move(S));
      continue;
    }
    for (const EFQuery::Seed &S : Query.Seeds) {
      EFQuery::Seed Augmented = S;
      for (const auto &[Id, T] : EqDefs)
        Augmented.VarMap[Id] = T;
      AllSeeds.push_back(std::move(Augmented));
    }
  }
  for (const EFQuery::Seed &S : AllSeeds) {
    Expr Inst = renameApps(substitute(Phi, S.VarMap), S.AppRenames);
    // Partial instantiation would be unsound: skip a seed that leaves an
    // inner variable or an inner application behind.
    bool InnerLeft = mentionsAnyVar(Inst, InnerVars);
    if (!InnerLeft) {
      std::unordered_set<ExprId> Apps;
      collectApps(Inst, Apps);
      for (ExprId A : Apps)
        for (const std::string &P : Query.InnerAppPrefixes)
          InnerLeft |= ExprCtx::get().node(A).Name.rfind(P, 0) == 0;
    }
    if (InnerLeft) {
      ALIVE_STAT_COUNTER(SeedsSkipped, "ef.seeds_skipped");
      SeedsSkipped.inc();
      continue;
    }
    ALIVE_STAT_COUNTER(SeedsAccepted, "ef.seeds_accepted");
    SeedsAccepted.inc();
    Outer.push_back(mkNot(Inst));
  }

  // Ackermannize the whole query in one id-sorted pass. An axiom between
  // outer applications constrains the outer side; one involving an inner
  // application may depend on the inner choice, so it joins Phi.
  std::vector<Expr> Roots = Outer;
  Roots.push_back(Phi);
  std::vector<Expr> OuterAxioms, InnerAxioms;
  Ackermannizer Ack(&InnerVars, &Query.InnerAppPrefixes);
  if (Ack.addApps(Roots, [&](Expr Axiom, bool Inner) {
        (Inner ? InnerAxioms : OuterAxioms).push_back(Axiom);
      })) {
    for (Expr &E : Outer)
      E = Ack.rewrite(E);
    Phi = Ack.rewrite(Phi);
    Outer.insert(Outer.end(), OuterAxioms.begin(), OuterAxioms.end());
    for (Expr Axiom : InnerAxioms)
      Phi = mkAnd(Phi, Axiom);
  }

  // Outer variables: everything free in the query that is not inner-bound.
  std::unordered_set<ExprId> AllVars;
  for (Expr E : Outer)
    collectVars(E, AllVars);
  collectVars(Phi, AllVars);
  std::vector<ExprId> OuterVars;
  std::vector<ExprId> PhiInnerVars;
  for (ExprId V : AllVars) {
    if (InnerVars.count(V))
      PhiInnerVars.push_back(V);
    else
      OuterVars.push_back(V);
  }

  // Phase result classification for the search loop below.
  enum class Phase { FoundClean, Unsat, Unknown, Exhausted };

  std::vector<Expr> InstBlockings; // universal instantiations: globally sound
  int DirtyRetries = Query.AvoidAppPrefixes.empty() ? 0 : 24;

  auto runPhase = [&](Solver &OuterSolver, unsigned MaxIterations) -> Phase {
    size_t NextBlocking = 0;
    for (unsigned Iter = 0; Iter < MaxIterations; ++Iter) {
      // One span per CEGIS round (outer check + witness check).
      prof::Span IterSpan("ef_iteration");
      ++Out.Iterations;
      ALIVE_STAT_COUNTER(Iterations, "ef.iterations");
      Iterations.inc();
      // Pick up instantiations discovered by earlier phases.
      for (; NextBlocking < InstBlockings.size(); ++NextBlocking)
        OuterSolver.add(InstBlockings[NextBlocking]);
      // Cooperative cancellation between checks; the SAT solver polls the
      // same flag inside a check.
      if (Budget.Cancel && Budget.Cancel->load(std::memory_order_relaxed)) {
        Out.Res = SatResult::Unknown;
        Out.UnknownReason = Reason::Cancelled;
        return Phase::Unknown;
      }
      double Remaining = Budget.TimeoutSec - ProfSpan.seconds();
      if (Remaining <= 0) {
        Out.Res = SatResult::Unknown;
        Out.UnknownReason = Reason::Timeout;
        return Phase::Unknown;
      }
      SolverBudget SubBudget = Budget;
      SubBudget.TimeoutSec = Remaining;

      SolveOutcome OuterRes = OuterSolver.check(SubBudget);
      if (OuterRes.isUnsat())
        return Phase::Unsat;
      if (OuterRes.isUnknown()) {
        Out.Res = SatResult::Unknown;
        Out.UnknownReason = OuterRes.UnknownReason;
        return Phase::Unknown;
      }

      // Instantiate Phi with the candidate outer model.
      Expr PhiInst;
      {
        prof::Span InstSpan("ef_instantiate");
        std::unordered_map<ExprId, Expr> OuterSubst;
        for (ExprId V : OuterVars) {
          Expr Var(V);
          BitVec Val = OuterRes.M.get(Var);
          OuterSubst[V] = Var.isBool() ? mkBool(!Val.isZero()) : mkBV(Val);
        }
        PhiInst = substitute(Phi, OuterSubst);
      }

      Model Witness;
      bool NoInnerWitness = PhiInst.isFalse();
      if (!NoInnerWitness && !PhiInst.isTrue()) {
        Remaining = Budget.TimeoutSec - ProfSpan.seconds();
        if (Remaining <= 0) {
          Out.Res = SatResult::Unknown;
          Out.UnknownReason = Reason::Timeout;
          return Phase::Unknown;
        }
        SubBudget.TimeoutSec = Remaining;
        SolveOutcome InnerRes = checkSat(PhiInst, SubBudget);
        if (InnerRes.isUnknown()) {
          Out.Res = SatResult::Unknown;
          Out.UnknownReason = InnerRes.UnknownReason;
          return Phase::Unknown;
        }
        NoInnerWitness = InnerRes.isUnsat();
        if (!NoInnerWitness)
          Witness = InnerRes.M;
      }

      if (NoInnerWitness) {
        // Genuine outer witness. If its support includes an
        // over-approximated feature, remember it and keep searching for a
        // clean model for a bounded number of attempts (Section 3.8).
        std::string App;
        if (!modelInvolvesApp(Query, OuterRes.M, App)) {
          Out.Res = SatResult::Sat;
          Out.M = OuterRes.M;
          Out.ApproxInvolved = false;
          return Phase::FoundClean;
        }
        if (!Out.ApproxInvolved) {
          Out.ApproxInvolved = true;
          Out.ApproxApp = App;
          Out.M = OuterRes.M;
          Out.Res = SatResult::Sat;
        }
        if (DirtyRetries-- <= 0)
          return Phase::Exhausted;
        // Block this outer assignment (phase-local: excludes a model we
        // already remembered) and continue the search.
        Expr Block = mkFalse();
        for (ExprId V : OuterVars) {
          Expr Var(V);
          BitVec Val = OuterRes.M.get(Var);
          Block = mkOr(Block, Var.isBool()
                                  ? (Val.isZero() ? Var : mkNot(Var))
                                  : mkNe(Var, mkBV(Val)));
        }
        OuterSolver.add(Block);
        continue;
      }

      // Spurious candidate: instantiate the universal with the witness and
      // block; such instantiations are sound in every phase. (When PhiInst
      // was constant-true, the default all-zero witness works since Phi
      // collapsed without consulting the inner variables.)
      std::unordered_map<ExprId, Expr> InnerSubst;
      for (ExprId V : PhiInnerVars) {
        Expr Var(V);
        BitVec Val = Witness.get(Var);
        InnerSubst[V] = Var.isBool() ? mkBool(!Val.isZero()) : mkBV(Val);
      }
      InstBlockings.push_back(mkNot(substitute(Phi, InnerSubst)));
    }
    return Phase::Exhausted;
  };

  // Phase A: bias toward all-zero inputs. Models found here are small and
  // readable, and exercise the exact (non-over-approximated) semantic
  // paths first. Only run when there are avoided apps to dodge.
  if (!Query.AvoidAppPrefixes.empty()) {
    Solver ZeroSolver(Budget.MaxLiterals);
    for (Expr E : Outer)
      ZeroSolver.add(E);
    for (ExprId V : OuterVars) {
      Expr Var(V);
      const std::string &Name = Var.node().Name;
      if (Name.rfind("in.", 0) != 0)
        continue;
      ZeroSolver.add(Var.isBool() ? mkNot(Var)
                                  : mkEq(Var, mkBV(Var.width(), 0)));
    }
    Phase R = runPhase(ZeroSolver, 48);
    if (R == Phase::FoundClean || R == Phase::Unknown)
      return Out;
    // Unsat/Exhausted here only means "no zero-input counterexample".
  }

  // Phase B: the full search.
  Solver OuterSolver(Budget.MaxLiterals);
  for (Expr E : Outer)
    OuterSolver.add(E);
  Phase R = runPhase(OuterSolver, 512);
  switch (R) {
  case Phase::FoundClean:
  case Phase::Unknown:
    return Out;
  case Phase::Unsat:
  case Phase::Exhausted:
    // If a dirty model was remembered, the query IS satisfiable; report it
    // (flagged). An Unsat answer after dirty blockings only means no clean
    // model exists.
    if (Out.ApproxInvolved) {
      Out.Res = SatResult::Sat;
      return Out;
    }
    if (R == Phase::Unsat) {
      Out.Res = SatResult::Unsat;
      return Out;
    }
    Out.Res = SatResult::Unknown;
    Out.UnknownReason = Reason::QuantifierLimit;
    return Out;
  }
  return Out;
}
