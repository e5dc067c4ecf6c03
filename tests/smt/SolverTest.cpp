//===- tests/smt/SolverTest.cpp --------------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
// Tests for the solver facade: incremental assertions, model extraction,
// Ackermannization of uninterpreted applications (functional consistency),
// and resource budget verdicts.
//===----------------------------------------------------------------------===//

#include "smt/BitBlast.h"
#include "smt/Solver.h"
#include "support/Diag.h"
#include "support/Profile.h"
#include "support/Stats.h"

#include "gtest/gtest.h"

#include <atomic>

using namespace alive;
using namespace alive::smt;

namespace {

TEST(Solver, IncrementalNarrowing) {
  Expr X = mkFreshVar("x", 8);
  Solver S;
  S.add(mkUgt(X, mkBV(8, 10)));
  ASSERT_TRUE(S.check().isSat());
  S.add(mkUlt(X, mkBV(8, 13)));
  SolveOutcome R = S.check();
  ASSERT_TRUE(R.isSat());
  uint64_t V = R.M.get(X).low64();
  EXPECT_TRUE(V == 11 || V == 12) << V;
  S.add(mkNe(X, mkBV(8, 11)));
  S.add(mkNe(X, mkBV(8, 12)));
  EXPECT_TRUE(S.check().isUnsat());
}

TEST(Solver, TriviallyFalseAssertion) {
  Solver S;
  S.add(mkFalse());
  EXPECT_TRUE(S.check().isUnsat());
}

TEST(Solver, ModelCoversAllAssertedVars) {
  Expr X = mkFreshVar("x", 8), Y = mkFreshVar("y", 4), P = mkFreshVar("p", 0);
  Solver S;
  S.add(mkEq(X, mkBV(8, 77)));
  S.add(mkEq(Y, mkBV(4, 5)));
  S.add(P);
  SolveOutcome R = S.check();
  ASSERT_TRUE(R.isSat());
  EXPECT_EQ(R.M.get(X).low64(), 77u);
  EXPECT_EQ(R.M.get(Y).low64(), 5u);
  EXPECT_TRUE(R.M.getBool(P));
}

TEST(Solver, AckermannFunctionalConsistency) {
  // f(x) != f(y) /\ x == y must be UNSAT.
  Expr X = mkFreshVar("x", 8), Y = mkFreshVar("y", 8);
  Expr FX = mkApp("f", 8, {X});
  Expr FY = mkApp("f", 8, {Y});
  Solver S;
  S.add(mkEq(X, Y));
  S.add(mkNe(FX, FY));
  EXPECT_TRUE(S.check().isUnsat());
}

TEST(Solver, AckermannAllowsDistinctResults) {
  // f(1) != f(2) is satisfiable: f is uninterpreted.
  Expr F1 = mkApp("f", 8, {mkBV(8, 1)});
  Expr F2 = mkApp("f", 8, {mkBV(8, 2)});
  EXPECT_TRUE(checkSat(mkNe(F1, F2)).isSat());
  // But f(1) != f(1) is not (hash-consing makes them identical).
  EXPECT_TRUE(checkSat(mkNe(F1, mkApp("f", 8, {mkBV(8, 1)}))).isUnsat());
}

TEST(Solver, AckermannCrossAssertionConsistency) {
  // Apps asserted incrementally still respect congruence.
  Expr X = mkFreshVar("x", 8);
  Expr Out1 = mkFreshVar("o1", 8), Out2 = mkFreshVar("o2", 8);
  Solver S;
  S.add(mkEq(Out1, mkApp("g", 8, {X, mkBV(8, 3)})));
  S.add(mkEq(Out2, mkApp("g", 8, {mkAdd(X, mkBV(8, 0)), mkBV(8, 3)})));
  S.add(mkNe(Out1, Out2));
  EXPECT_TRUE(S.check().isUnsat())
      << "x+0 folds to x so both apps are syntactically equal";

  Solver S2;
  Expr Y = mkFreshVar("y", 8);
  S2.add(mkEq(Out1, mkApp("g", 8, {X, mkBV(8, 3)})));
  S2.add(mkEq(Out2, mkApp("g", 8, {Y, mkBV(8, 3)})));
  S2.add(mkEq(X, Y));
  S2.add(mkNe(Out1, Out2));
  EXPECT_TRUE(S2.check().isUnsat()) << "congruence across assertions";
}

TEST(Solver, ModelAssignsVariablesOnlyAxiomsMention) {
  // x and y occur only as f's arguments, so after Ackermannization only
  // the congruence axiom x = y -> f(x) = f(y) mentions them. A model must
  // still assign them, and the axiom rules out x = y.
  Expr X = mkFreshVar("x", 8), Y = mkFreshVar("y", 8);
  Solver S;
  S.add(mkEq(mkApp("f", 8, {X}), mkBV(8, 1)));
  S.add(mkEq(mkApp("f", 8, {Y}), mkBV(8, 2)));
  SolveOutcome R = S.check();
  ASSERT_TRUE(R.isSat());
  EXPECT_TRUE(R.M.has(X.id()));
  EXPECT_TRUE(R.M.has(Y.id()));
  EXPECT_NE(R.M.get(X).low64(), R.M.get(Y).low64());
}

TEST(Solver, NestedApps) {
  // h(h(x)) with x == c must equal h(h(c)).
  Expr X = mkFreshVar("x", 4);
  Expr C = mkBV(4, 9);
  Expr HX = mkApp("h", 4, {mkApp("h", 4, {X})});
  Expr HC = mkApp("h", 4, {mkApp("h", 4, {C})});
  Solver S;
  S.add(mkEq(X, C));
  S.add(mkNe(HX, HC));
  EXPECT_TRUE(S.check().isUnsat());
}

TEST(Solver, DifferentFunctionsUnrelated) {
  Expr X = mkFreshVar("x", 8);
  Expr FX = mkApp("f", 8, {X});
  Expr GX = mkApp("g", 8, {X});
  EXPECT_TRUE(checkSat(mkNe(FX, GX)).isSat());
}

TEST(Solver, TimeoutVerdict) {
  // A hard instance (wide multiplication equivalence) with a microscopic
  // time budget must report timeout, matching the paper's TO bucket.
  Expr X = mkFreshVar("x", 32), Y = mkFreshVar("y", 32);
  Expr Hard = mkEq(mkMul(X, Y), mkAdd(mkMul(Y, mkBVNot(X)), mkBV(32, 17)));
  SolverBudget B;
  B.TimeoutSec = 0.02;
  SolveOutcome R = checkSat(Hard, TimeLimit(B));
  // Either the solver is lucky and finds a model fast, or it times out;
  // it must never claim UNSAT.
  EXPECT_FALSE(R.isUnsat());
  if (R.isUnknown())
    EXPECT_EQ(R.UnknownReason, support::Reason::Timeout);
}

TEST(Solver, LiteralBudgetStopsBitBlasting) {
  // The budget reaches the bit-blaster: a multiplier needs far more than 100
  // literals, so the check answers Memory before the SAT search starts.
  Expr X = mkFreshVar("x", 32), Y = mkFreshVar("y", 32);
  SolverBudget B;
  B.MaxLiterals = 100;
  prof::Span Check("check");
  SolveOutcome R = checkSat(mkEq(mkMul(X, Y), mkBV(32, 12345)), TimeLimit(B));
  ASSERT_TRUE(R.isUnknown());
  EXPECT_EQ(R.UnknownReason, support::Reason::Memory);
  EXPECT_EQ(Check.effort().SatChecks, 0u);
}

TEST(Solver, BitBlastingStopsAtTheTimeBudget) {
  // The time budget reaches the bit-blaster too: it polls the clock every
  // 2^12 clauses and after each growth of its gate table, so under a spent
  // budget a formula of more than 10^5 clauses stops at the first growth,
  // the 257th gate, 821 clauses in. Through the Solver it stops sooner, at
  // add's own poll, and the check answers Timeout before the SAT search
  // starts.
  Expr Prod = mkFreshVar("x", 64);
  for (int I = 0; I < 3; ++I)
    Prod = mkMul(Prod, mkFreshVar("y", 64));
  Expr F = mkEq(Prod, mkBV(64, 12345));
  {
    Solver Unbounded;
    Unbounded.add(F);
    ASSERT_GT(Unbounded.numClauses(), 100000u);
  }
  SolverBudget B;
  B.TimeoutSec = 0;
  {
    SatSolver Sat;
    BitBlaster Blaster(Sat, TimeLimit(B));
    Blaster.assertTrue(F);
    EXPECT_EQ(Blaster.stopReason(), support::Reason::Timeout);
    EXPECT_EQ(Blaster.numClausesEmitted(), 821u);
  }
  Solver S{TimeLimit(B)};
  S.add(F);
  EXPECT_LT(S.numClauses(), 1u << 13);
  prof::Span Check("check");
  SolveOutcome R = S.check();
  ASSERT_TRUE(R.isUnknown());
  EXPECT_EQ(R.UnknownReason, support::Reason::Timeout);
  EXPECT_EQ(Check.effort().SatChecks, 0u);
}

TEST(Solver, AddPollsTheLimit) {
  // Each add polls the limit before it blasts: once the cancel flag is up,
  // the next assertion emits no clause and the check answers Cancelled
  // without a SAT check.
  std::atomic<bool> Cancel{false};
  SolverBudget B;
  B.Cancel = &Cancel;
  Expr X = mkFreshVar("x", 8), Y = mkFreshVar("y", 8), Z = mkFreshVar("z", 8);
  Solver S{TimeLimit(B)};
  S.add(mkEq(mkAdd(X, Y), mkBV(8, 3)));
  size_t Clauses = S.numClauses();
  ASSERT_GT(Clauses, 0u);
  Cancel.store(true);
  S.add(mkEq(mkAdd(Y, Z), mkBV(8, 5)));
  EXPECT_EQ(S.numClauses(), Clauses);
  prof::Span Check("check");
  SolveOutcome R = S.check();
  ASSERT_TRUE(R.isUnknown());
  EXPECT_EQ(R.UnknownReason, support::Reason::Cancelled);
  EXPECT_EQ(Check.effort().SatChecks, 0u);
}

TEST(Solver, RefutedSolverBlastsNoMore) {
  // x = 3 and x + 1 = 5 meet in a conflict of root propagation, without a
  // search. From then on nothing is blasted: a 32-bit multiplier identity
  // asserted after creates no variable and emits no clause, at the
  // facade and in the bit-blaster below it, and the check answers Unsat.
  Expr X = mkFreshVar("x", 8), A = mkFreshVar("a", 32),
       B = mkFreshVar("b", 32);
  Expr Three = mkEq(X, mkBV(8, 3));
  Expr Five = mkEq(mkAdd(X, mkBV(8, 1)), mkBV(8, 5));
  Expr Identity = mkEq(mkMul(A, mkAdd(B, mkBV(32, 1))), mkAdd(mkMul(A, B), A));
  stats::Counter Vars = stats::counter("bitblast.vars");
  stats::Counter Clauses = stats::counter("bitblast.clauses");
  // The counts a fresh solver blasts for the conflict, with and without
  // the identity after it.
  auto blasted = [&](bool WithIdentity) {
    uint64_t Vars0 = Vars.value(), Clauses0 = Clauses.value();
    {
      Solver S;
      S.add(Three);
      EXPECT_FALSE(S.refuted());
      S.add(Five);
      EXPECT_TRUE(S.refuted());
      if (WithIdentity)
        S.add(Identity);
      prof::Span Check("check");
      EXPECT_TRUE(S.check().isUnsat());
      EXPECT_EQ(Check.effort().Decisions, 0u);
    }
    return std::pair{Vars.value() - Vars0, Clauses.value() - Clauses0};
  };
  auto Conflict = blasted(false);
  EXPECT_GT(Conflict.second, 0u);
  EXPECT_EQ(blasted(true), Conflict);

  SatSolver Sat;
  BitBlaster Blaster(Sat, TimeLimit());
  Blaster.assertTrue(Three);
  Blaster.assertTrue(Five);
  ASSERT_FALSE(Sat.okay());
  int NumVars = Sat.numVars();
  uint64_t Emitted = Blaster.numClausesEmitted();
  Blaster.assertTrue(Identity);
  EXPECT_EQ(Sat.numVars(), NumVars);
  EXPECT_EQ(Blaster.numClausesEmitted(), Emitted);
  EXPECT_EQ(Sat.solve(), SatStatus::Unsat);
}

TEST(Solver, BitBlastedSearchEffortIsPinned) {
  // The exact effort of a fixed bit-blasted query: 5-bit distributivity,
  // valid, so the check is Unsat after a search that passes one reduction
  // of the learned clauses. Bit-blasting (its gate table and canonical gate
  // forms included) and the SAT core must not change the search; a change
  // that means to updates these numbers on purpose.
  resetContext(); // operand order of commutative nodes follows interning
  Expr X = mkFreshVar("x", 5), Y = mkFreshVar("y", 5), Z = mkFreshVar("z", 5);
  Solver S;
  S.add(mkNe(mkMul(X, mkAdd(Y, Z)), mkAdd(mkMul(X, Y), mkMul(X, Z))));
  SolveOutcome R = S.check();
  ASSERT_TRUE(R.isUnsat());
  EXPECT_EQ(S.numConflicts(), 5875u);
  EXPECT_EQ(S.numDecisions(), 7566u);
  EXPECT_EQ(S.numPropagations(), 386111u);
  EXPECT_EQ(S.numClauses(), 4594u);
}

TEST(Solver, CheckIsRepeatable) {
  Expr X = mkFreshVar("x", 8);
  Solver S;
  S.add(mkUgt(X, mkBV(8, 250)));
  SolveOutcome R1 = S.check();
  SolveOutcome R2 = S.check();
  ASSERT_TRUE(R1.isSat());
  ASSERT_TRUE(R2.isSat());
  EXPECT_TRUE(R2.M.get(X).ugt(BitVec(8, 250)));
}

} // namespace
