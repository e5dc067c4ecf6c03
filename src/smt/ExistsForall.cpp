//===- smt/ExistsForall.cpp - EF-SMT via CEGIS instantiation ----------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/ExistsForall.h"

#include "support/Profile.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <optional>
#include <string_view>

using namespace alive;
using namespace alive::smt;

namespace {

// Derives definitional instantiations for inner variables from equations
// in Phi: a subterm (= U t) with t inner-free suggests solving U = t for
// U's inner variables. This plays the role of Z3's pattern-based
// instantiation that Alive2 depends on for its undef encoding (Section
// 3.3/3.7). The descent through U's operators follows one invertibility
// table; a definition may constrain only some bits of its variable (the
// byte packing of Section 4 produces extracts and concats).

/// What one descent step solves: the operand, the term it must equal, and
/// the bits of it that term constrains.
struct Inverse {
  unsigned Operand;
  Expr X;
  BitVec Mask;
};
using MaybeInverse = std::optional<Inverse>;

/// One row of the invertibility table (Niemetz et al., "Solving Quantified
/// Bit-Vectors Using Invertibility Conditions", CAV 2018) for (= U t).
/// Ground rows solve operand Side of a binary U with the other operand
/// grounded to S; the other rows solve each of U's independent parts
/// (Side 0, 1) on their own, with S invalid. Invert returns nothing when
/// the row has no inverse there. Sub, neg, zext and sext are built from
/// these operators (smt/Expr.cpp), so they need no rows of their own.
struct InvRow {
  Kind K;
  bool Ground;
  MaybeInverse (*Invert)(Expr U, unsigned Side, Expr T, Expr S,
                         const BitVec &Mask);
};

/// Carries cross bit ranges: arithmetic inverts only on a full mask.
MaybeInverse whole(unsigned Side, Expr X, const BitVec &Mask) {
  return Mask.isAllOnes() ? MaybeInverse({Side, X, Mask}) : std::nullopt;
}

/// A constant shift amount below the width, or nothing.
std::optional<BitVec> shiftAmount(unsigned Side, Expr S) {
  BitVec K;
  if (Side != 0 || !S.getConst(K) || K.uge(BitVec(K.width(), K.width())))
    return std::nullopt;
  return K;
}

/// c^-1 modulo 2^w for odd c, by Newton's iteration (c is its own inverse
/// to three bits, and each step doubles the correct bits).
BitVec oddInverse(const BitVec &C) {
  BitVec X = C;
  while (!C.mul(X).isOne())
    X = X.mul(BitVec(C.width(), 2).sub(C.mul(X)));
  return X;
}

const InvRow InvTable[] = {
    // x + s = t: x := t - s.
    {Kind::Add, true,
     [](Expr, unsigned Side, Expr T, Expr S, const BitVec &M) {
       return whole(Side, mkSub(T, S), M);
     }},
    // x ^ s = t: x := t ^ s, bit by bit.
    {Kind::BXor, true,
     [](Expr, unsigned Side, Expr T, Expr S, const BitVec &M) {
       return MaybeInverse({Side, mkBVXor(T, S), M});
     }},
    // x & s = t and x | s = t: x := t solves both whenever any x does.
    {Kind::BAnd, true,
     [](Expr, unsigned Side, Expr T, Expr, const BitVec &M) {
       return MaybeInverse({Side, T, M});
     }},
    {Kind::BOr, true,
     [](Expr, unsigned Side, Expr T, Expr, const BitVec &M) {
       return MaybeInverse({Side, T, M});
     }},
    // x * c = t for odd c: x := t * c^-1 (Simplify folds the product).
    {Kind::Mul, true,
     [](Expr, unsigned Side, Expr T, Expr S, const BitVec &M) {
       BitVec C;
       if (!S.getConst(C) || !C.bit(0))
         return MaybeInverse();
       return whole(Side, mkMul(T, mkBV(oddInverse(C))), M);
     }},
    // x << k = t: x := t >> k; t's bits move down onto x's.
    {Kind::Shl, true,
     [](Expr, unsigned Side, Expr T, Expr S, const BitVec &M) {
       auto K = shiftAmount(Side, S);
       return K ? MaybeInverse({0, mkLShr(T, S), M.lshr(*K)})
                : std::nullopt;
     }},
    // x >> k = t (logical or arithmetic): x := t << k; the bits move up.
    {Kind::LShr, true,
     [](Expr, unsigned Side, Expr T, Expr S, const BitVec &M) {
       auto K = shiftAmount(Side, S);
       return K ? MaybeInverse({0, mkShl(T, S), M.shl(*K)}) : std::nullopt;
     }},
    {Kind::AShr, true,
     [](Expr, unsigned Side, Expr T, Expr S, const BitVec &M) {
       auto K = shiftAmount(Side, S);
       return K ? MaybeInverse({0, mkShl(T, S), M.shl(*K)}) : std::nullopt;
     }},
    // ~x = t: x := ~t.
    {Kind::BNot, false,
     [](Expr, unsigned Side, Expr T, Expr, const BitVec &M) {
       return Side ? std::nullopt : MaybeInverse({0, mkBVNot(T), M});
     }},
    // extract(x, lo, len) = t: t sets bits [lo, lo + len) of x.
    {Kind::Extract, false,
     [](Expr U, unsigned Side, Expr T, Expr, const BitVec &M) {
       unsigned XW = Expr(U.node().Ops[0]).width(), Lo = U.node().P0;
       if (Side)
         return MaybeInverse();
       return MaybeInverse({0, mkShl(mkZExt(T, XW), mkBV(XW, Lo)),
                            M.zext(XW).shl(BitVec(XW, Lo))});
     }},
    // concat(hi, lo) = t: each part is its slice of t, the low part first.
    {Kind::Concat, false,
     [](Expr U, unsigned Side, Expr T, Expr, const BitVec &M) {
       unsigned LoW = Expr(U.node().Ops[1]).width();
       unsigned Off = Side ? LoW : 0, W = Side ? U.width() - LoW : LoW;
       return MaybeInverse({1 - Side, mkExtract(T, Off, W),
                            M.extract(Off, W)});
     }},
    // ite(c, a, b) = t: either arm may be the one taken.
    {Kind::Ite, false,
     [](Expr, unsigned Side, Expr T, Expr, const BitVec &M) {
       return MaybeInverse({1 + Side, T, M});
     }},
};

/// The state of one derivation: the definitions found so far, as the map
/// substitute() takes, and the bits of each variable they constrain (a
/// definition's other bits are zero).
struct Derivation {
  const std::unordered_set<ExprId> &InnerVars;
  std::unordered_map<ExprId, Expr> Defs;
  std::unordered_map<ExprId, BitVec> Masks;
  /// Which operand of a ground row to solve first on a tie.
  unsigned PreferSecond;

  /// Inner variables of \p E without a definition yet.
  unsigned unresolved(ExprId E) const {
    unsigned N = 0;
    walk(Expr(E), [&](ExprId Id, const Node &Nd) {
      N += Nd.K == Kind::Var && InnerVars.count(Id) && !Defs.count(Id);
    });
    return N;
  }

  /// Grounds \p E: substitutes current defs, then pins any remaining inner
  /// variables to zero (recording those pins as definitions so the final
  /// instantiation is consistent). Returns the inner-free result.
  Expr ground(Expr E) {
    Expr R = substitute(E, Defs);
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
      Defs[V] = Zero;
      Masks[V] = BitVec::allOnes(W);
    }
    return Zeros.empty() ? R : substitute(R, Zeros);
  }
};

/// Solves (= U T) on the bits \p Mask for U's inner variables, descending
/// through InvTable, and records what it finds in \p D.
void matchDefs(Expr U, Expr T, const BitVec &Mask, Derivation &D,
               unsigned Depth) {
  if (Depth == 0)
    return;
  if (U.kind() == Kind::Var) {
    if (!D.InnerVars.count(U.id()) || U.isBool() || U.width() != T.width())
      return;
    auto It = D.Masks.find(U.id());
    if (It == D.Masks.end()) {
      D.Masks[U.id()] = Mask;
      D.Defs[U.id()] = mkBVAnd(T, mkBV(Mask));
      return;
    }
    // Merge bit ranges that are not yet constrained.
    BitVec Fresh = Mask.bvand(It->second.bvnot());
    if (Fresh.isZero())
      return;
    It->second = It->second.bvor(Fresh);
    Expr &Value = D.Defs[U.id()];
    Value = mkBVOr(Value, mkBVAnd(T, mkBV(Fresh)));
    return;
  }
  const InvRow *Row = nullptr;
  for (const InvRow &R : InvTable)
    Row = R.K == U.kind() ? &R : Row;
  if (!Row)
    return;
  const Node::OpList &Ops = U.node().Ops;
  if (!Row->Ground) {
    for (unsigned Side = 0; Side < 2; ++Side)
      if (MaybeInverse Inv = Row->Invert(U, Side, T, Expr(), Mask))
        matchDefs(Expr(Ops[Inv->Operand]), Inv->X, Inv->Mask, D, Depth - 1);
    return;
  }
  // Solve the operand with more unresolved inner variables (PreferSecond
  // breaks ties), the other one grounded. One operand per node keeps the
  // pinning consistent: when the descent defines none of the solved
  // operand's variables, undo the attempt's pins and solve the other.
  unsigned N0 = D.unresolved(Ops[0]), N1 = D.unresolved(Ops[1]);
  unsigned First = N0 != N1 ? N0 < N1 : D.PreferSecond;
  for (unsigned Side : {First, 1 - First}) {
    if (D.unresolved(Ops[Side]) == 0)
      continue;
    auto Defs = D.Defs;
    auto Masks = D.Masks;
    Expr S = D.ground(Expr(Ops[1 - Side]));
    unsigned Open = D.unresolved(Ops[Side]);
    if (MaybeInverse Inv = Row->Invert(U, Side, T, S, Mask))
      matchDefs(Expr(Ops[Side]), Inv->X, Inv->Mask, D, Depth - 1);
    if (D.unresolved(Ops[Side]) < Open)
      return;
    D.Defs = std::move(Defs);
    D.Masks = std::move(Masks);
  }
}

/// Definitions of \p Phi's inner variables, derived from its equations.
std::unordered_map<ExprId, Expr>
deriveEquationDefs(Expr Phi, const std::unordered_set<ExprId> &InnerVars,
                   bool PreferSecond) {
  // Collect all Eq nodes once.
  std::vector<ExprId> Eqs;
  walk(Phi, [&Eqs](ExprId Id, const Node &N) {
    if (N.K == Kind::Eq)
      Eqs.push_back(Id);
  });
  Derivation D{InnerVars, {}, {}, PreferSecond};
  for (int Round = 0; Round < 4; ++Round) {
    size_t Before = D.Defs.size();
    for (ExprId EqId : Eqs) {
      for (int Side = 0; Side < 2; ++Side) {
        ExprId UId = ExprCtx::get().node(EqId).Ops[Side];
        ExprId TId = ExprCtx::get().node(EqId).Ops[1 - Side];
        Expr U(UId);
        Expr T(TId);
        if (U.isBool())
          continue;
        Expr TSub = substitute(T, D.Defs);
        if (mentionsAnyVar(TSub, InnerVars))
          continue;
        matchDefs(U, TSub, BitVec::allOnes(U.width()), D, 12);
      }
    }
    if (D.Defs.size() == Before)
      break;
  }
  return std::move(D.Defs);
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
                                 const TimeLimit &Limit) {
  EFOutcome Out;
  // Constructed before the TraceEmitter so the "ef_query" trace event
  // (emitted in the Emitter's destructor) still carries this span's id.
  ALIVE_STAT_SAMPLER(QueryTime, "time.ef_query");
  prof::Span ProfSpan("ef_search", {}, QueryTime);
  ALIVE_STAT_COUNTER(Queries, "ef.queries");
  Queries.inc();

  // The stage whose formula refuted the outer side as it was built; empty
  // while none has.
  std::string_view RefutedBy;
  // Emits the query's summary on every exit path.
  struct TraceEmitter {
    EFOutcome &Out;
    const prof::Span &Span;
    const std::string_view &RefutedBy;
    ~TraceEmitter() {
      if (!trace::enabled())
        return;
      trace::Event("ef_query")
          .str("result", toString(Out.Res))
          .num("iterations", Out.Iterations)
          .num("seconds", Span.seconds())
          .effort(Span.effort())
          .flag("approx_involved", Out.ApproxInvolved)
          .str("refuted_by", RefutedBy);
    }
  } Emitter{Out, ProfSpan, RefutedBy};

  // Polls the time limit; a stop leaves Out Unknown with the poll's
  // reason.
  auto stopped = [&] {
    Out.UnknownReason = Limit.poll();
    if (Out.UnknownReason == Reason::None)
      return false;
    Out.Res = SatResult::Unknown;
    return true;
  };
  // A query that starts past the time limit prepares nothing and builds no
  // solver.
  if (stopped())
    return Out;

  // Refute before building: the outer side goes into the solver one formula
  // at a time, stage by stage, and the first formula that leaves the solver
  // refuted ends the build, since no later one can make the query Sat. Each
  // formula's applications are Ackermannized as it arrives, with the one
  // Ackermannizer. Its outer axioms wait until after the last seed; an
  // axiom involving an inner application may depend on the inner choice,
  // so it joins Phi.
  std::unordered_set<ExprId> InnerVars = Query.InnerVars;
  Ackermannizer Ack(&InnerVars, &Query.InnerAppPrefixes);
  std::vector<Expr> OuterAxioms, InnerAxioms;
  auto onAxiom = [&](Expr Axiom, bool Inner) {
    (Inner ? InnerAxioms : OuterAxioms).push_back(Axiom);
  };
  // Phase A's solver when there are avoided applications, else Phase B's.
  std::optional<Solver> Search(std::in_place, Limit);
  std::vector<Expr> Outer; // what the build asserted, in order
  // Asserts \p E, applications rewritten; true once the solver is refuted.
  auto assertOuter = [&](Expr E) {
    Outer.push_back(E);
    Search->add(E);
    return Search->refuted();
  };
  auto ackermannize = [&](Expr E) {
    return Ack.addApps({&E, 1}, onAxiom) ? Ack.rewrite(E) : E;
  };
  // A symbolic instantiation of the universal (see EFQuery::Seeds): asserts
  // not-Phi[S] unless S is partial, which would be unsound, i.e. leaves an
  // inner variable or an inner application behind.
  auto assertSeed = [&](const EFQuery::Seed &S) {
    Expr Inst = renameApps(substitute(Query.Inner, S.VarMap), S.AppRenames);
    bool InnerLeft = mentionsAnyVar(Inst, Query.InnerVars);
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
      return false;
    }
    ALIVE_STAT_COUNTER(SeedsAccepted, "ef.seeds_accepted");
    SeedsAccepted.inc();
    return assertOuter(ackermannize(mkNot(Inst)));
  };
  // The stages in order; \returns the one whose formula refuted the build,
  // or "" when every seed went in.
  RefutedBy = [&]() -> std::string_view {
    for (Expr E : Query.Outer)
      if (assertOuter(ackermannize(E)))
        return "outer";
    prof::Span SeedSpan("ef_seeds");
    for (const EFQuery::Seed &S : Query.Seeds)
      if (assertSeed(S))
        return "seed";
    if (!Query.DeriveEquationDefs)
      return "";
    // Equation-derived definitions of inner variables (e-matching analog),
    // in two variants: preferring to solve the first or the second argument
    // of invertible nodes (covering symmetric undef cases). Each variant is
    // a seed of its own when there are none, else layered over each seed.
    std::vector<std::unordered_map<ExprId, Expr>> EqDefVariants;
    {
      prof::Span DeriveSpan("ef_derive");
      for (bool PreferSecond : {false, true}) {
        std::unordered_map<ExprId, Expr> Defs =
            deriveEquationDefs(Query.Inner, Query.InnerVars, PreferSecond);
        if (!Defs.empty())
          EqDefVariants.push_back(std::move(Defs));
      }
    }
    for (const auto &EqDefs : EqDefVariants) {
      if (Query.Seeds.empty()) {
        EFQuery::Seed S;
        S.VarMap = EqDefs;
        if (assertSeed(S))
          return "derived_seed";
        continue;
      }
      for (const EFQuery::Seed &S : Query.Seeds) {
        EFQuery::Seed Augmented = S;
        for (const auto &[Id, T] : EqDefs)
          Augmented.VarMap[Id] = T;
        if (assertSeed(Augmented))
          return "derived_seed";
      }
    }
    return "";
  }();

  // Outer variables: everything free in the query that is not inner-bound.
  // A refuted build needs neither them nor Phi: its first check answers.
  Expr Phi = Query.Inner;
  std::vector<ExprId> OuterVars;
  std::vector<ExprId> PhiInnerVars;
  if (RefutedBy.empty()) {
    // Phi's applications last, then the outer axioms.
    Phi = ackermannize(Phi);
    for (Expr Axiom : InnerAxioms)
      Phi = mkAnd(Phi, Axiom);
    for (Expr Axiom : OuterAxioms)
      if (assertOuter(Axiom)) {
        RefutedBy = "outer";
        break;
      }
    std::unordered_set<ExprId> AllVars;
    for (Expr E : Outer)
      collectVars(E, AllVars);
    collectVars(Phi, AllVars);
    for (ExprId V : AllVars) {
      if (InnerVars.count(V))
        PhiInnerVars.push_back(V);
      else
        OuterVars.push_back(V);
    }
  }

  // Phase result classification for the search loop below.
  enum class Phase { FoundClean, Unsat, Unknown, Exhausted };

  std::vector<Expr> InstBlockings; // universal instantiations: globally sound
  // Each inner variable's last witness and how often it changed.
  std::unordered_map<ExprId, std::pair<BitVec, unsigned>> Witnesses;
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
      // The checks poll the same time limit inside.
      if (stopped())
        return Phase::Unknown;

      SolveOutcome OuterRes = OuterSolver.check();
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
        if (stopped())
          return Phase::Unknown;
        SolveOutcome InnerRes = checkSat(PhiInst, Limit);
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
        auto [It, First] = Witnesses.try_emplace(V, Val, 0);
        if (!First && It->second.first != Val) {
          It->second.first = Val;
          ++It->second.second;
        }
      }
      InstBlockings.push_back(mkNot(substitute(Phi, InnerSubst)));
    }
    return Phase::Exhausted;
  };

  // An inconclusive search names its restless inner variables.
  auto inconclusive = [&] {
    if (Out.Iterations < 2)
      return Out;
    for (const auto &[V, W] : Witnesses)
      if (W.second)
        Out.WitnessChanges.push_back({V, W.second});
    std::sort(Out.WitnessChanges.begin(), Out.WitnessChanges.end(),
              [](const auto &A, const auto &B) {
                return A.second != B.second ? A.second > B.second
                                            : A.first < B.first;
              });
    return Out;
  };

  // Phase A: bias toward all-zero inputs. Models found here are small and
  // readable, and exercise the exact (non-over-approximated) semantic
  // paths first. Only run when there are avoided apps to dodge, and the
  // build stands.
  if (!Query.AvoidAppPrefixes.empty() && RefutedBy.empty()) {
    for (ExprId V : OuterVars) {
      Expr Var(V);
      const std::string &Name = Var.node().Name;
      if (Name.rfind("in.", 0) != 0)
        continue;
      Search->add(Var.isBool() ? mkNot(Var)
                               : mkEq(Var, mkBV(Var.width(), 0)));
    }
    Phase R = runPhase(*Search, 48);
    if (R == Phase::FoundClean)
      return Out;
    if (R == Phase::Unknown)
      return inconclusive();
    // Unsat/Exhausted here only means "no zero-input counterexample".
    // Phase B's solver holds what the build asserted, in the same order.
    Search.emplace(Limit);
    for (Expr E : Outer)
      Search->add(E);
  }

  // Phase B: the full search. A refuted build ends in its first check.
  Phase R = runPhase(*Search, 512);
  switch (R) {
  case Phase::FoundClean:
    return Out;
  case Phase::Unknown:
    return inconclusive();
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
    return inconclusive();
  }
  return Out;
}
