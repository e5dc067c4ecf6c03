//===- tests/smt/ExistsForallTest.cpp --------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
// Tests for the CEGIS exists-forall engine, including refinement-shaped
// queries: Outer /\ not exists Inner . Phi.
//===----------------------------------------------------------------------===//

#include "smt/ExistsForall.h"
#include "support/Diag.h"
#include "support/Profile.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include "gtest/gtest.h"

#include <sstream>

using namespace alive;
using namespace alive::smt;

namespace {

TEST(ExistsForall, FindsMaximum) {
  // exists x . not exists y . y > x  ==> x must be the max value.
  Expr X = mkFreshVar("x", 8), Y = mkFreshVar("y", 8);
  EFQuery Q;
  Q.Inner = mkUgt(Y, X);
  Q.InnerVars = {Y.id()};
  EFOutcome R = solveExistsForall(Q, TimeLimit());
  ASSERT_EQ(R.Res, SatResult::Sat);
  EXPECT_TRUE(R.M.get(X).isAllOnes());
}

TEST(ExistsForall, AlwaysWitnessedIsUnsat) {
  // not exists y . y == x is false for every x: the query is UNSAT.
  Expr X = mkFreshVar("x", 8), Y = mkFreshVar("y", 8);
  EFQuery Q;
  Q.Inner = mkEq(Y, X);
  Q.InnerVars = {Y.id()};
  EFOutcome R = solveExistsForall(Q, TimeLimit());
  EXPECT_EQ(R.Res, SatResult::Unsat);
}

TEST(ExistsForall, RefinementShapedUnsat) {
  // "target O = 2*I refines source O = I + I": for every (I, O) the target
  // produces, the source can produce it too => no counterexample (UNSAT).
  Expr I = mkFreshVar("I", 8), O = mkFreshVar("O", 8);
  EFQuery Q;
  Q.Outer = {mkEq(O, mkMul(I, mkBV(8, 2)))};
  Q.Inner = mkEq(O, mkAdd(I, I));
  // No inner nondeterminism variables: Phi is ground given outer.
  EFOutcome R = solveExistsForall(Q, TimeLimit());
  EXPECT_EQ(R.Res, SatResult::Unsat);
}

TEST(ExistsForall, RefinementShapedSat) {
  // Target O = I + 1 does NOT refine source O = 2*I: find I where the
  // target output is odd.
  Expr I = mkFreshVar("I", 8), O = mkFreshVar("O", 8);
  EFQuery Q;
  Q.Outer = {mkEq(O, mkAdd(I, mkBV(8, 1)))};
  Q.Inner = mkEq(O, mkMul(I, mkBV(8, 2)));
  EFOutcome R = solveExistsForall(Q, TimeLimit());
  ASSERT_EQ(R.Res, SatResult::Sat);
  BitVec IV = R.M.get(I), OV = R.M.get(O);
  EXPECT_EQ(OV, IV.add(BitVec(8, 1)));
  EXPECT_NE(OV, IV.mul(BitVec(8, 2)));
}

TEST(ExistsForall, NondeterministicSourceRefines) {
  // Source may output any even number (nondeterminism N): O = 2*N.
  // Target picks O = 2*I. Refinement holds: choose N = I.
  Expr I = mkFreshVar("I", 8), O = mkFreshVar("O", 8),
       N = mkFreshVar("N", 8);
  EFQuery Q;
  Q.Outer = {mkEq(O, mkMul(I, mkBV(8, 2)))};
  Q.Inner = mkEq(O, mkMul(N, mkBV(8, 2)));
  Q.InnerVars = {N.id()};
  EFOutcome R = solveExistsForall(Q, TimeLimit());
  EXPECT_EQ(R.Res, SatResult::Unsat);
}

TEST(ExistsForall, NondeterminismCannotBeAdded) {
  // Target outputs any odd number (outer nondet M): O = 2*M + 1.
  // Source only outputs even numbers (inner nondet N): O = 2*N. SAT.
  Expr O = mkFreshVar("O", 8), MVar = mkFreshVar("M", 8),
       N = mkFreshVar("N", 8);
  EFQuery Q;
  Q.Outer = {mkEq(O, mkAdd(mkMul(MVar, mkBV(8, 2)), mkBV(8, 1)))};
  Q.Inner = mkEq(O, mkMul(N, mkBV(8, 2)));
  Q.InnerVars = {N.id()};
  EFOutcome R = solveExistsForall(Q, TimeLimit());
  ASSERT_EQ(R.Res, SatResult::Sat);
  EXPECT_TRUE(R.M.get(O).bit(0)) << "counterexample output must be odd";
}

TEST(ExistsForall, InnerConjunctionOfConstraints) {
  // Source nondeterminism constrained to a range: N in [0, 10), O = N.
  // Target outputs I truncated to [0, 10) via urem: refines.
  Expr I = mkFreshVar("I", 8), O = mkFreshVar("O", 8),
       N = mkFreshVar("N", 8);
  EFQuery Q;
  Q.Outer = {mkEq(O, mkURem(I, mkBV(8, 10)))};
  Q.Inner = mkAnd(mkUlt(N, mkBV(8, 10)), mkEq(O, N));
  Q.InnerVars = {N.id()};
  EXPECT_EQ(solveExistsForall(Q, TimeLimit()).Res, SatResult::Unsat);

  // Target outputs I itself: fails whenever I >= 10.
  EFQuery Q2;
  Q2.Outer = {mkEq(O, I)};
  Q2.Inner = mkAnd(mkUlt(N, mkBV(8, 10)), mkEq(O, N));
  Q2.InnerVars = {N.id()};
  EFOutcome R = solveExistsForall(Q2, TimeLimit());
  ASSERT_EQ(R.Res, SatResult::Sat);
  EXPECT_TRUE(R.M.get(O).uge(BitVec(8, 10)));
}

TEST(ExistsForall, UFCongruenceAcrossQuantifier) {
  // Outer asserts O = f(I); Phi asks for N with f(N) == O. Choosing N = I
  // must satisfy it by congruence, so the query is UNSAT.
  Expr I = mkFreshVar("I", 8), O = mkFreshVar("O", 8),
       N = mkFreshVar("N", 8);
  EFQuery Q;
  Q.Outer = {mkEq(O, mkApp("f", 8, {I}))};
  Q.Inner = mkEq(O, mkApp("f", 8, {N}));
  Q.InnerVars = {N.id()};
  EFOutcome R = solveExistsForall(Q, TimeLimit());
  EXPECT_EQ(R.Res, SatResult::Unsat);
}

TEST(ExistsForall, TrivialInnerFalse) {
  // not exists y . false is trivially true: query reduces to outer SAT.
  Expr X = mkFreshVar("x", 8);
  EFQuery Q;
  Q.Outer = {mkEq(X, mkBV(8, 42))};
  Q.Inner = mkFalse();
  EFOutcome R = solveExistsForall(Q, TimeLimit());
  ASSERT_EQ(R.Res, SatResult::Sat);
  EXPECT_EQ(R.M.get(X).low64(), 42u);
}

TEST(ExistsForall, TrivialInnerTrue) {
  // not exists y . true is false: query UNSAT regardless of outer.
  Expr X = mkFreshVar("x", 8);
  EFQuery Q;
  Q.Outer = {mkEq(X, mkBV(8, 42))};
  Q.Inner = mkTrue();
  EXPECT_EQ(solveExistsForall(Q, TimeLimit()).Res, SatResult::Unsat);
}

/// "not exists Inner . Phi" under \p Outer holds (Unsat). Solving Phi's
/// equation through one row of the invertibility table decides it in one
/// CEGIS round; plain CEGIS, which blocks one witness per round, needs more.
void expectOneRound(std::vector<Expr> Outer, Expr Phi,
                    std::unordered_set<ExprId> Inner) {
  EFQuery Q;
  Q.Outer = std::move(Outer);
  Q.Inner = Phi;
  Q.InnerVars = std::move(Inner);
  EFOutcome R = solveExistsForall(Q, TimeLimit());
  EXPECT_EQ(R.Res, SatResult::Unsat);
  EXPECT_EQ(R.Iterations, 1u);
  Q.DeriveEquationDefs = false;
  EFOutcome Plain = solveExistsForall(Q, TimeLimit());
  EXPECT_NE(Plain.Res, SatResult::Sat);
  EXPECT_GT(Plain.Iterations, 1u);
}

TEST(ExistsForall, InvertsAdd) {
  Expr I = mkFreshVar("I", 8), O = mkFreshVar("O", 8), N = mkFreshVar("N", 8);
  expectOneRound({}, mkEq(mkAdd(N, I), O), {N.id()});
}

TEST(ExistsForall, InvertsXor) {
  Expr I = mkFreshVar("I", 8), O = mkFreshVar("O", 8), N = mkFreshVar("N", 8);
  expectOneRound({}, mkEq(mkBVXor(I, N), O), {N.id()});
}

TEST(ExistsForall, InvertsAndOr) {
  // n & i = o has a solution when o's bits are within i's (o = i & j), and
  // n | i = o when i's bits are within o's (o = i | j); n := o solves both.
  Expr I = mkFreshVar("I", 8), J = mkFreshVar("J", 8), O = mkFreshVar("O", 8),
       N = mkFreshVar("N", 8);
  expectOneRound({mkEq(O, mkBVAnd(I, J))}, mkEq(mkBVAnd(N, I), O), {N.id()});
  expectOneRound({mkEq(O, mkBVOr(I, J))}, mkEq(mkBVOr(I, N), O), {N.id()});
}

TEST(ExistsForall, InvertsMulByOddConstant) {
  // n := o * 3^-1; Simplify folds (o * 171) * 3 back to o.
  Expr O = mkFreshVar("O", 8), N = mkFreshVar("N", 8);
  expectOneRound({}, mkEq(mkMul(N, mkBV(8, 3)), O), {N.id()});
}

TEST(ExistsForall, InvertsShiftsByConstant) {
  Expr I = mkFreshVar("I", 8), O = mkFreshVar("O", 8), N = mkFreshVar("N", 8);
  Expr K = mkBV(8, 3);
  expectOneRound({mkEq(O, mkShl(I, K))}, mkEq(mkShl(N, K), O), {N.id()});
  expectOneRound({mkEq(O, mkLShr(I, K))}, mkEq(mkLShr(N, K), O), {N.id()});
  expectOneRound({mkEq(O, mkAShr(I, K))}, mkEq(mkAShr(N, K), O), {N.id()});
}

TEST(ExistsForall, InvertsNot) {
  Expr O = mkFreshVar("O", 8), N = mkFreshVar("N", 8);
  expectOneRound({}, mkEq(mkBVNot(N), O), {N.id()});
}

TEST(ExistsForall, InvertsExtractAndConcat) {
  // extract(n, 4, 4) = o sets bits 4..7 of n; concat(h, l) = o sets both
  // halves.
  Expr O4 = mkFreshVar("O", 4), N = mkFreshVar("N", 8);
  expectOneRound({}, mkEq(mkExtract(N, 4, 4), O4), {N.id()});
  Expr O = mkFreshVar("O", 8), H = mkFreshVar("H", 4), L = mkFreshVar("L", 4);
  expectOneRound({}, mkEq(mkConcat(H, L), O), {H.id(), L.id()});
}

TEST(ExistsForall, InvertsIteArms) {
  // Either arm may be taken: n := o and m := o make ite(c, n, m) = o.
  Expr O = mkFreshVar("O", 8), C = mkFreshVar("C", 0), N = mkFreshVar("N", 8),
       M = mkFreshVar("M", 8);
  expectOneRound({}, mkEq(mkIte(C, N, M), O), {C.id(), N.id(), M.id()});
}

TEST(ExistsForall, TimeBudgetRespected) {
  Expr X = mkFreshVar("x", 24), Y = mkFreshVar("y", 24);
  EFQuery Q;
  // forall y . y*y != x  -- forces many instantiation rounds or hard SAT.
  Q.Inner = mkEq(mkMul(Y, Y), X);
  Q.InnerVars = {Y.id()};
  SolverBudget B;
  B.TimeoutSec = 0.02;
  EFOutcome R = solveExistsForall(Q, TimeLimit(B));
  // Must terminate quickly with some verdict; never hang.
  SUCCEED();
  (void)R;
}

TEST(ExistsForall, PreparationStopsAtTheTimeLimit) {
  // The query polls the time limit before its preparation: a query whose
  // instant has already passed instantiates none of its seeds (accepted or
  // skipped) and builds no solver, with or without equation derivation in
  // front of the seeds. A set cancel flag stops it the same way.
  Expr I = mkFreshVar("I", 8), O = mkFreshVar("O", 8), N = mkFreshVar("N", 8);
  EFQuery Q;
  Q.Outer = {mkEq(O, mkAdd(I, mkBV(8, 1)))};
  Q.Inner = mkEq(mkAdd(N, mkBV(8, 1)), O);
  Q.InnerVars = {N.id()};
  for (Expr T : {I, O, mkBV(8, 0), mkBV(8, 7)}) {
    EFQuery::Seed S;
    S.VarMap[N.id()] = T;
    Q.Seeds.push_back(std::move(S));
  }
  stats::Counter Accepted = stats::counter("ef.seeds_accepted");
  stats::Counter Skipped = stats::counter("ef.seeds_skipped");
  SolverBudget Past;
  Past.TimeoutSec = -1;
  std::atomic<bool> Cancel{true};
  SolverBudget Cancelled;
  Cancelled.Cancel = &Cancel;
  for (bool Derive : {true, false}) {
    SCOPED_TRACE(Derive);
    Q.DeriveEquationDefs = Derive;
    for (auto [Budget, Why] : {std::pair{Past, Reason::Timeout},
                               std::pair{Cancelled, Reason::Cancelled}}) {
      uint64_t Accepted0 = Accepted.value(), Skipped0 = Skipped.value();
      prof::Span Query("query");
      EFOutcome R = solveExistsForall(Q, TimeLimit(Budget));
      EXPECT_EQ(R.Res, SatResult::Unknown);
      EXPECT_EQ(R.UnknownReason, Why);
      EXPECT_EQ(R.Iterations, 0u);
      EXPECT_EQ(Accepted.value(), Accepted0);
      EXPECT_EQ(Skipped.value(), Skipped0);
      EXPECT_EQ(Query.effort().SatChecks, 0u);
    }
  }
  // Within the limit, the same query is decided.
  EXPECT_EQ(solveExistsForall(Q, TimeLimit()).Res, SatResult::Unsat);
}

/// Decides \p Q with the trace attached. \returns the outcome, the delta
/// of ef.seeds_accepted and the ef_query event's refuted_by field.
struct TracedOutcome {
  EFOutcome R;
  uint64_t Accepted;
  std::string RefutedBy;
};
TracedOutcome solveTraced(const EFQuery &Q) {
  stats::Counter Accepted = stats::counter("ef.seeds_accepted");
  uint64_t Accepted0 = Accepted.value();
  std::ostringstream SS;
  trace::setStream(&SS);
  EFOutcome R = solveExistsForall(Q, TimeLimit());
  trace::setStream(nullptr);
  std::string Line = SS.str(), Key = "\"refuted_by\":\"";
  size_t At = Line.rfind(Key);
  std::string RefutedBy = "<missing>";
  if (At != std::string::npos) {
    At += Key.size();
    RefutedBy = Line.substr(At, Line.find('"', At) - At);
  }
  return {std::move(R), Accepted.value() - Accepted0, RefutedBy};
}

/// Two seeds for inner \p N that leave nothing inner behind: each is
/// accepted unless the build ends before it.
std::vector<EFQuery::Seed> twoSeeds(Expr N, Expr First, Expr Second) {
  std::vector<EFQuery::Seed> Seeds(2);
  Seeds[0].VarMap[N.id()] = First;
  Seeds[1].VarMap[N.id()] = Second;
  return Seeds;
}

TEST(ExistsForall, RefutedOuterSideBuildsNoSeed) {
  // x = 3 and x + 1 = 5 refute the outer side by propagation alone. The
  // build stops there: neither seed nor any equation definition is
  // instantiated, and the one round's check answers Unsat.
  Expr X = mkFreshVar("x", 8), N = mkFreshVar("n", 8);
  EFQuery Q;
  Q.Outer = {mkEq(X, mkBV(8, 3)), mkEq(mkAdd(X, mkBV(8, 1)), mkBV(8, 5))};
  Q.Inner = mkEq(mkAdd(N, mkBV(8, 1)), X);
  Q.InnerVars = {N.id()};
  Q.Seeds = twoSeeds(N, X, mkBV(8, 0));
  ASSERT_TRUE(Q.DeriveEquationDefs);
  TracedOutcome T = solveTraced(Q);
  EXPECT_EQ(T.R.Res, SatResult::Unsat);
  EXPECT_EQ(T.R.Iterations, 1u);
  EXPECT_EQ(T.Accepted, 0u);
  EXPECT_EQ(T.RefutedBy, "outer");
}

TEST(ExistsForall, RefutingSeedEndsTheBuild) {
  // Under x = 3, the first seed n := 2 instantiates not (2 + 1 = x), which
  // root propagation refutes; the second seed, n := 7, is never accepted.
  Expr X = mkFreshVar("x", 8), N = mkFreshVar("n", 8);
  EFQuery Q;
  Q.Outer = {mkEq(X, mkBV(8, 3))};
  Q.Inner = mkEq(mkAdd(N, mkBV(8, 1)), X);
  Q.InnerVars = {N.id()};
  Q.Seeds = twoSeeds(N, mkBV(8, 2), mkBV(8, 7));
  TracedOutcome T = solveTraced(Q);
  EXPECT_EQ(T.R.Res, SatResult::Unsat);
  EXPECT_EQ(T.R.Iterations, 1u);
  EXPECT_EQ(T.Accepted, 1u);
  EXPECT_EQ(T.RefutedBy, "seed");

  // Seeds that leave it open end the build with the derived seeds, whose
  // definition n := x - 1 refutes it; a query no stage refutes says "".
  Q.Seeds = twoSeeds(N, mkBV(8, 0), mkBV(8, 7));
  T = solveTraced(Q);
  EXPECT_EQ(T.R.Res, SatResult::Unsat);
  EXPECT_EQ(T.R.Iterations, 1u);
  EXPECT_EQ(T.Accepted, 3u);
  EXPECT_EQ(T.RefutedBy, "derived_seed");
  Q.DeriveEquationDefs = false;
  T = solveTraced(Q);
  EXPECT_EQ(T.R.Res, SatResult::Unsat);
  EXPECT_EQ(T.Accepted, 2u);
  EXPECT_EQ(T.RefutedBy, "");
}

} // namespace
