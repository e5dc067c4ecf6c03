//===- tests/smt/SatTest.cpp -----------------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
// Tests for the CDCL SAT core: hand-built instances, pigeonhole UNSAT
// certificates, budget handling, incremental solving, learned-clause
// database reduction, pinned search effort, and a randomized cross-check
// against a brute-force enumerator.
//===----------------------------------------------------------------------===//

#include "smt/Sat.h"
#include "support/Diag.h"

#include "gtest/gtest.h"

#include <utility>
#include <vector>

using namespace alive;
using namespace alive::smt;

namespace {

TEST(Sat, TrivialSat) {
  SatSolver S;
  int A = S.newVar(), B = S.newVar();
  S.addClause(mkLit(A), mkLit(B));
  S.addClause(negLit(mkLit(A)));
  ASSERT_EQ(S.solve(), SatStatus::Sat);
  EXPECT_FALSE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
}

TEST(Sat, TrivialUnsat) {
  SatSolver S;
  int A = S.newVar();
  S.addClause(mkLit(A));
  EXPECT_FALSE(S.addClause(negLit(mkLit(A))));
  EXPECT_EQ(S.solve(), SatStatus::Unsat);
}

TEST(Sat, EmptyClauseIsUnsat) {
  SatSolver S;
  S.newVar();
  EXPECT_FALSE(S.addClause(std::vector<Lit>{}));
  EXPECT_EQ(S.solve(), SatStatus::Unsat);
}

TEST(Sat, TautologyIsDropped) {
  SatSolver S;
  int A = S.newVar();
  EXPECT_TRUE(S.addClause(mkLit(A), negLit(mkLit(A))));
  EXPECT_EQ(S.solve(), SatStatus::Sat);
}

TEST(Sat, ChainPropagation) {
  // x0 and (x_i -> x_{i+1}) for a long chain; then force !x_n: UNSAT.
  SatSolver S;
  const int N = 200;
  std::vector<int> Vars;
  for (int I = 0; I <= N; ++I)
    Vars.push_back(S.newVar());
  S.addClause(mkLit(Vars[0]));
  for (int I = 0; I < N; ++I)
    S.addClause(negLit(mkLit(Vars[I])), mkLit(Vars[I + 1]));
  ASSERT_EQ(S.solve(), SatStatus::Sat);
  for (int I = 0; I <= N; ++I)
    EXPECT_TRUE(S.modelValue(Vars[I]));
  S.addClause(negLit(mkLit(Vars[N])));
  EXPECT_EQ(S.solve(), SatStatus::Unsat);
}

/// Builds the pigeonhole principle PHP(Holes+1, Holes): unsatisfiable and
/// requires real conflict-driven search.
static void buildPigeonhole(SatSolver &S, int Holes) {
  int Pigeons = Holes + 1;
  std::vector<std::vector<int>> V(Pigeons, std::vector<int>(Holes));
  for (int P = 0; P < Pigeons; ++P)
    for (int H = 0; H < Holes; ++H)
      V[P][H] = S.newVar();
  for (int P = 0; P < Pigeons; ++P) {
    std::vector<Lit> C;
    for (int H = 0; H < Holes; ++H)
      C.push_back(mkLit(V[P][H]));
    S.addClause(C);
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addClause(negLit(mkLit(V[P1][H])), negLit(mkLit(V[P2][H])));
}

TEST(Sat, PigeonholeUnsat) {
  for (int Holes = 2; Holes <= 6; ++Holes) {
    SatSolver S;
    buildPigeonhole(S, Holes);
    EXPECT_EQ(S.solve(), SatStatus::Unsat) << "PHP with " << Holes;
  }
}

TEST(Sat, PigeonholeReducesClauseDatabase) {
  // PHP(8,7) runs past the first reduction (after 4000 conflicts), so the
  // search continues on a compacted clause arena.
  SatSolver S;
  buildPigeonhole(S, 7);
  size_t Original = S.numClauses();
  EXPECT_EQ(S.solve(), SatStatus::Unsat);
  EXPECT_GE(S.numDbReductions(), 1u);
  EXPECT_GT(S.numLearnedClauses(), 4000u);
  // Reduction deleted learned clauses; the originals all survive.
  EXPECT_GE(S.numClauses(), Original);
  EXPECT_LT(S.numClauses(), Original + S.numLearnedClauses());
}

/// True if the solver's model satisfies every clause of \p Clauses.
static bool modelSatisfies(const SatSolver &S,
                           const std::vector<std::vector<Lit>> &Clauses) {
  for (const std::vector<Lit> &C : Clauses) {
    bool ClauseSat = false;
    for (Lit L : C)
      ClauseSat |= S.modelValue(litVar(L)) != litSign(L);
    if (!ClauseSat)
      return false;
  }
  return true;
}

TEST(Sat, SatisfiableAfterReductionAndIncrementalAdd) {
  // Random 3-SAT near the phase transition (150 variables, ratio 4.26);
  // seed 48 is satisfiable and takes ~4900 conflicts, one reduction.
  const int NumVars = 150;
  Rng R(48);
  SatSolver S;
  for (int I = 0; I < NumVars; ++I)
    S.newVar();
  std::vector<std::vector<Lit>> Clauses;
  for (int I = 0; I < (int)(NumVars * 4.26); ++I) {
    std::vector<Lit> C;
    for (int J = 0; J < 3; ++J)
      C.push_back(mkLit((int)R.next(NumVars), R.chance(1, 2)));
    Clauses.push_back(C);
    ASSERT_TRUE(S.addClause(C));
  }
  ASSERT_EQ(S.solve(), SatStatus::Sat);
  EXPECT_GE(S.numDbReductions(), 1u);
  EXPECT_TRUE(modelSatisfies(S, Clauses));

  // Keep solving on the compacted database: block the model found, so the
  // next one must differ, and check it against every clause.
  std::vector<Lit> Block;
  for (int V = 0; V < NumVars; ++V)
    Block.push_back(mkLit(V, S.modelValue(V)));
  Clauses.push_back(Block);
  ASSERT_TRUE(S.addClause(Block));
  ASSERT_EQ(S.solve(), SatStatus::Sat);
  EXPECT_TRUE(modelSatisfies(S, Clauses));
}

TEST(Sat, SearchEffortIsPinned) {
  // The exact effort of a fixed instance. The clause store's layout must not
  // change the search: a change that alters branching, learning, restarts
  // or reduction updates these numbers on purpose.
  SatSolver S;
  buildPigeonhole(S, 7);
  ASSERT_EQ(S.solve(), SatStatus::Unsat);
  EXPECT_EQ(S.numConflicts(), 5144u);
  EXPECT_EQ(S.numDecisions(), 6834u);
  EXPECT_EQ(S.numPropagations(), 68589u);
  EXPECT_EQ(S.numDbReductions(), 1u);
}

TEST(Sat, LongWatchListKeepsItsOrder) {
  // x implies a_1 .. a_8: the eight binary clauses put eight watchers on x,
  // past the list's inline capacity, in this order. Asserting x visits
  // them in list order, so a_k is the k-th literal x implies. a_K alone
  // implies both d and !d; the root propagation then stops at that
  // conflict, after x and a_1 .. a_K: K + 1 propagations exactly when the
  // watchers kept their order.
  const int N = 8;
  for (int K = 1; K <= N; ++K) {
    SCOPED_TRACE(K);
    SatSolver S;
    int X = S.newVar();
    std::vector<int> A;
    for (int I = 0; I < N; ++I)
      A.push_back(S.newVar());
    int D = S.newVar();
    for (int I = 0; I < N; ++I)
      ASSERT_TRUE(S.addClause(negLit(mkLit(X)), mkLit(A[I])));
    ASSERT_TRUE(S.addClause(negLit(mkLit(A[K - 1])), mkLit(D)));
    ASSERT_TRUE(S.addClause(negLit(mkLit(A[K - 1])), negLit(mkLit(D))));
    EXPECT_FALSE(S.addClause(mkLit(X)));
    EXPECT_EQ(S.numPropagations(), uint64_t(K + 1));
  }
}

TEST(Sat, PropagationHeavySearchStopsInTime) {
  // Chains of variables, each equal to the next: a decision propagates its
  // whole chain, and the instance is satisfiable with no conflict, so the
  // conflict poll never runs. With an expired budget, the search must still
  // stop at the first propagation poll: after PropagationsPerPoll
  // propagations plus at most the one pass that crossed it. 256 chains of
  // 1024 make few decisions and heavy propagation; chains of one variable
  // make one decision per propagation.
  for (auto [Chains, Length] : {std::pair{256, 1024}, std::pair{20000, 1}}) {
    SCOPED_TRACE(Length);
    SatSolver S;
    for (int C = 0; C < Chains; ++C) {
      int Prev = S.newVar();
      for (int I = 1; I < Length; ++I) {
        int Var = S.newVar();
        S.addClause(mkLit(Prev, true), mkLit(Var));
        S.addClause(mkLit(Prev), mkLit(Var, true));
        Prev = Var;
      }
    }
    SolverBudget B;
    B.TimeoutSec = 0.0;
    ASSERT_EQ(S.solve(TimeLimit(B)), SatStatus::Unknown);
    EXPECT_EQ(S.unknownReason(), support::Reason::Timeout);
    EXPECT_EQ(S.numConflicts(), 0u);
    EXPECT_GE(S.numPropagations(), SatSolver::PropagationsPerPoll);
    EXPECT_LE(S.numPropagations(),
              SatSolver::PropagationsPerPoll + uint64_t(Length));

    // Within budget, the same search runs to a model.
    ASSERT_EQ(S.solve(), SatStatus::Sat);
    EXPECT_EQ(S.numConflicts(), 0u);
    EXPECT_GE(S.numPropagations(), uint64_t(Chains) * Length);
  }
}

TEST(Sat, ConflictBudgetReturnsUnknown) {
  SatSolver S;
  buildPigeonhole(S, 9); // hard enough to exceed a tiny conflict budget
  SolverBudget B;
  B.MaxConflicts = 5;
  SatStatus R = S.solve(TimeLimit(B));
  EXPECT_EQ(R, SatStatus::Unknown);
  EXPECT_EQ(S.unknownReason(), support::Reason::ConflictBudget);
}

TEST(Sat, CancellationReturnsUnknown) {
  SatSolver S;
  buildPigeonhole(S, 9);
  SolverBudget B;
  std::atomic<bool> Cancel{true}; // already set: solve aborts at entry
  B.Cancel = &Cancel;
  SatStatus R = S.solve(TimeLimit(B));
  EXPECT_EQ(R, SatStatus::Unknown);
  EXPECT_EQ(S.unknownReason(), support::Reason::Cancelled);
}

TEST(Sat, CancelFlagClearDoesNotDisturbSolve) {
  SatSolver S;
  int A = S.newVar(), B = S.newVar();
  S.addClause(mkLit(A), mkLit(B));
  SolverBudget Budget;
  std::atomic<bool> Cancel{false};
  Budget.Cancel = &Cancel;
  EXPECT_EQ(S.solve(TimeLimit(Budget)), SatStatus::Sat);
}

TEST(Sat, IncrementalSolving) {
  SatSolver S;
  int A = S.newVar(), B = S.newVar(), C = S.newVar();
  S.addClause(mkLit(A), mkLit(B));
  ASSERT_EQ(S.solve(), SatStatus::Sat);
  S.addClause(negLit(mkLit(A)));
  ASSERT_EQ(S.solve(), SatStatus::Sat);
  EXPECT_TRUE(S.modelValue(B));
  S.addClause(negLit(mkLit(B)), mkLit(C));
  ASSERT_EQ(S.solve(), SatStatus::Sat);
  EXPECT_TRUE(S.modelValue(C));
  S.addClause(negLit(mkLit(C)));
  EXPECT_EQ(S.solve(), SatStatus::Unsat);
}

//===----------------------------------------------------------------------===//
// Randomized cross-check against brute force
//===----------------------------------------------------------------------===//

static bool bruteForceSat(int NumVars,
                          const std::vector<std::vector<Lit>> &Clauses) {
  for (uint32_t Assign = 0; Assign < (1u << NumVars); ++Assign) {
    bool AllSat = true;
    for (const auto &C : Clauses) {
      bool ClauseSat = false;
      for (Lit L : C) {
        bool V = (Assign >> litVar(L)) & 1;
        if (litSign(L))
          V = !V;
        if (V) {
          ClauseSat = true;
          break;
        }
      }
      if (!ClauseSat) {
        AllSat = false;
        break;
      }
    }
    if (AllSat)
      return true;
  }
  return false;
}

class SatRandom : public ::testing::TestWithParam<int> {};

TEST_P(SatRandom, MatchesBruteForce) {
  int Seed = GetParam();
  Rng R(Seed);
  for (int Round = 0; Round < 60; ++Round) {
    int NumVars = 3 + (int)R.next(10);
    // Around the 3-SAT phase transition (ratio ~4.3) to get both outcomes.
    int NumClauses = (int)(NumVars * (3.0 + (double)R.next(3)));
    SatSolver S;
    for (int I = 0; I < NumVars; ++I)
      S.newVar();
    std::vector<std::vector<Lit>> Clauses;
    bool AddedOk = true;
    for (int I = 0; I < NumClauses; ++I) {
      std::vector<Lit> C;
      int Len = 1 + (int)R.next(3);
      for (int J = 0; J < Len; ++J)
        C.push_back(mkLit((int)R.next(NumVars), R.chance(1, 2)));
      Clauses.push_back(C);
      AddedOk &= S.addClause(C);
    }
    bool Expected = bruteForceSat(NumVars, Clauses);
    if (!AddedOk) {
      EXPECT_FALSE(Expected);
      continue;
    }
    SatStatus Got = S.solve();
    ASSERT_NE(Got, SatStatus::Unknown);
    EXPECT_EQ(Got == SatStatus::Sat, Expected);
    if (Got == SatStatus::Sat) {
      // The model must actually satisfy all the clauses.
      for (const auto &C : Clauses) {
        bool ClauseSat = false;
        for (Lit L : C)
          if (S.modelValue(litVar(L)) != litSign(L))
            ClauseSat = true;
        EXPECT_TRUE(ClauseSat);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandom, ::testing::Range(1, 9));

} // namespace
