//===- tests/smt/BitBlastTest.cpp ------------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
// Verifies the CNF circuits against the BitVec reference semantics:
// exhaustively at width 3 and with randomized sweeps at wider widths. Each
// check proves "circuit(a, b) != reference(a, b)" UNSAT with the operands
// pinned by unit constraints, so the circuit itself (not the constant
// folder) is exercised.
//===----------------------------------------------------------------------===//

#include "smt/Solver.h"
#include "support/Diag.h"

#include "gtest/gtest.h"

#include <functional>

using namespace alive;
using namespace alive::smt;

namespace {

enum class Op {
  Add,
  Sub,
  Mul,
  UDiv,
  URem,
  SDiv,
  SRem,
  And,
  Or,
  Xor,
  Shl,
  LShr,
  AShr,
  Ult,
  Slt,
  Eq,
};

static const Op AllOps[] = {Op::Add,  Op::Sub,  Op::Mul,  Op::UDiv,
                            Op::URem, Op::SDiv, Op::SRem, Op::And,
                            Op::Or,   Op::Xor,  Op::Shl,  Op::LShr,
                            Op::AShr, Op::Ult,  Op::Slt,  Op::Eq};

static Expr apply(Op O, Expr A, Expr B) {
  switch (O) {
  case Op::Add:
    return mkAdd(A, B);
  case Op::Sub:
    return mkSub(A, B);
  case Op::Mul:
    return mkMul(A, B);
  case Op::UDiv:
    return mkUDiv(A, B);
  case Op::URem:
    return mkURem(A, B);
  case Op::SDiv:
    return mkSDiv(A, B);
  case Op::SRem:
    return mkSRem(A, B);
  case Op::And:
    return mkBVAnd(A, B);
  case Op::Or:
    return mkBVOr(A, B);
  case Op::Xor:
    return mkBVXor(A, B);
  case Op::Shl:
    return mkShl(A, B);
  case Op::LShr:
    return mkLShr(A, B);
  case Op::AShr:
    return mkAShr(A, B);
  case Op::Ult:
    return mkBoolToBV1(mkUlt(A, B));
  case Op::Slt:
    return mkBoolToBV1(mkSlt(A, B));
  case Op::Eq:
    return mkBoolToBV1(mkEq(A, B));
  }
  return Expr();
}

static BitVec reference(Op O, const BitVec &A, const BitVec &B) {
  auto b1 = [](bool V) { return BitVec(1, V ? 1 : 0); };
  switch (O) {
  case Op::Add:
    return A.add(B);
  case Op::Sub:
    return A.sub(B);
  case Op::Mul:
    return A.mul(B);
  case Op::UDiv:
    return A.udiv(B);
  case Op::URem:
    return A.urem(B);
  case Op::SDiv:
    return A.sdiv(B);
  case Op::SRem:
    return A.srem(B);
  case Op::And:
    return A.bvand(B);
  case Op::Or:
    return A.bvor(B);
  case Op::Xor:
    return A.bvxor(B);
  case Op::Shl:
    return A.shl(B);
  case Op::LShr:
    return A.lshr(B);
  case Op::AShr:
    return A.ashr(B);
  case Op::Ult:
    return b1(A.ult(B));
  case Op::Slt:
    return b1(A.slt(B));
  case Op::Eq:
    return b1(A == B);
  }
  return BitVec();
}

/// Pins x=a, y=b with unit constraints and proves op(x,y) != ref UNSAT.
static void checkOnInputs(Op O, unsigned W, uint64_t AV, uint64_t BV_) {
  BitVec A(W, AV), B(W, BV_);
  BitVec Ref = reference(O, A, B);
  Expr X = mkFreshVar("x", W), Y = mkFreshVar("y", W);
  Expr Circuit = apply(O, X, Y);
  Solver S;
  S.add(mkEq(X, mkBV(A)));
  S.add(mkEq(Y, mkBV(B)));
  S.add(mkNe(Circuit, mkBV(Ref)));
  SolveOutcome R = S.check();
  EXPECT_TRUE(R.isUnsat()) << "op " << (int)O << " width " << W << " a=" << AV
                           << " b=" << BV_ << " expected "
                           << Ref.toString();
}

TEST(BitBlast, ExhaustiveWidth3) {
  for (Op O : AllOps)
    for (uint64_t A = 0; A < 8; ++A)
      for (uint64_t B = 0; B < 8; ++B)
        checkOnInputs(O, 3, A, B);
}

class BitBlastRandom : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitBlastRandom, RandomInputsMatchReference) {
  unsigned W = GetParam();
  Rng R(0xbb + W);
  for (Op O : AllOps) {
    for (int Iter = 0; Iter < 6; ++Iter) {
      uint64_t A = R.next();
      uint64_t B = R.next();
      if (R.chance(1, 6))
        B = 0;
      if (R.chance(1, 6))
        B = R.next(W + 3); // small shift amounts
      checkOnInputs(O, W, A, B);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitBlastRandom,
                         ::testing::Values(1u, 2u, 4u, 5u, 8u, 13u, 16u));

TEST(BitBlast, SolverFindsModels) {
  // x * 7 == 35 at width 8 must produce x == 5 (7 is odd => unique inverse).
  Expr X = mkFreshVar("x", 8);
  Solver S;
  S.add(mkEq(mkMul(X, mkBV(8, 7)), mkBV(8, 35)));
  SolveOutcome R = S.check();
  ASSERT_TRUE(R.isSat());
  EXPECT_EQ(R.M.get(X).low64(), 5u);
}

TEST(BitBlast, UnsatAlgebraicLaw) {
  // forall x, y: (x ^ y) ^ y == x, checked as UNSAT of the negation.
  Expr X = mkFreshVar("x", 16), Y = mkFreshVar("y", 16);
  SolveOutcome R = checkSat(mkNe(mkBVXor(mkBVXor(X, Y), Y), X));
  EXPECT_TRUE(R.isUnsat());
}

TEST(BitBlast, AddCommutes) {
  Expr X = mkFreshVar("x", 24), Y = mkFreshVar("y", 24);
  // The simplifier folds ~~y to y and sorts commutative operands, so both
  // sides are one node and the query folds to false before blasting.
  // GateIdenticalTermsShareGates below takes the circuit path.
  Expr L = mkAdd(X, Y);
  Expr Rhs = mkAdd(mkBVNot(mkBVNot(Y)), X);
  EXPECT_TRUE(checkSat(mkNe(L, Rhs)).isUnsat());
}

TEST(BitBlast, GateIdenticalTermsShareGates) {
  // x + y and ~(x ^ -1) + ~(y ^ -1) are different nodes (the simplifier
  // leaves x ^ -1 alone), but both adders read the literals of x and y and
  // lower to the same gates. The gate table builds them once: blasting the
  // second sum emits no clause and returns the first sum's literals, so
  // L != R is refuted with neither a conflict nor a decision.
  Expr X = mkFreshVar("x", 24), Y = mkFreshVar("y", 24);
  Expr Ones = mkBV(BitVec::allOnes(24));
  Expr L = mkAdd(X, Y);
  Expr R = mkAdd(mkBVNot(mkBVXor(X, Ones)), mkBVNot(mkBVXor(Y, Ones)));
  ASSERT_NE(L.id(), R.id());

  SatSolver Sat;
  BitBlaster Blaster(Sat, TimeLimit());
  std::vector<Lit> LBits = Blaster.blastBV(L);
  uint64_t Clauses = Blaster.numClausesEmitted();
  EXPECT_EQ(Blaster.blastBV(R), LBits);
  EXPECT_EQ(Blaster.numClausesEmitted(), Clauses);
  EXPECT_GT(Blaster.numGateHits(), 0u);

  Solver S;
  S.add(mkNe(L, R));
  ASSERT_TRUE(S.check().isUnsat());
  EXPECT_EQ(S.numConflicts(), 0u);
  EXPECT_EQ(S.numDecisions(), 0u);
}

TEST(BitBlast, UDivLaw) {
  // forall x, y != 0: (x / y) * y + (x % y) == x.
  Expr X = mkFreshVar("x", 6), Y = mkFreshVar("y", 6);
  Expr Law = mkEq(mkAdd(mkMul(mkUDiv(X, Y), Y), mkURem(X, Y)), X);
  SolveOutcome R = checkSat(mkAnd(mkNe(Y, mkBV(6, 0)), mkNot(Law)));
  EXPECT_TRUE(R.isUnsat());
}

TEST(BitBlast, ShiftBySmallConstant) {
  Expr X = mkFreshVar("x", 8);
  // x << 1 == x + x
  EXPECT_TRUE(
      checkSat(mkNe(mkShl(X, mkBV(8, 1)), mkAdd(X, X))).isUnsat());
}

TEST(BitBlast, SignedComparisonBoundary) {
  // exists x: x < 0 (signed) and x > 100 (unsigned): any negative byte.
  Expr X = mkFreshVar("x", 8);
  SolveOutcome R = checkSat(
      mkAnd(mkSlt(X, mkBV(8, 0)), mkUgt(X, mkBV(8, 100))));
  ASSERT_TRUE(R.isSat());
  BitVec V = R.M.get(X);
  EXPECT_TRUE(V.sign());
  EXPECT_TRUE(V.ugt(BitVec(8, 100)));
}

/// Random expression trees: the blasted circuit must agree with the
/// BitVec reference evaluator on random models, and "tree != evaluate"
/// with pinned leaves must be UNSAT.
class BitBlastTrees : public ::testing::TestWithParam<int> {};

TEST_P(BitBlastTrees, RandomTreesMatchEvaluator) {
  Rng R(0x7ee5 + GetParam());
  for (int Round = 0; Round < 8; ++Round) {
    resetContext();
    unsigned W = 2 + (unsigned)R.next(9);
    std::vector<Expr> LeafVars;
    for (int I = 0; I < 3; ++I)
      LeafVars.push_back(mkVar("leaf" + std::to_string(I), W));
    // A condition over the operands. A sign-bit test blasts to the bit
    // itself, or to its negation under a BNot, so an arm holding that bit
    // is tied to the condition; a comparator's output is a negative
    // literal, which makes the ITE swap its arms.
    auto cond = [&](Expr A, Expr B) {
      switch (R.next(4)) {
      case 0:
        return mkUlt(A, B);
      case 1:
        return mkSignBit(A);
      case 2:
        return mkSignBit(mkBVNot(A));
      default:
        return mkNot(mkSignBit(A));
      }
    };
    // Build a random tree over the leaves. Besides the operators, it makes
    // the shapes that exercise each canonical gate form: BNot operands
    // (negative XOR and AND inputs) and ITEs with a constant arm, an arm
    // tied to the condition bit, or complementary arms.
    std::function<Expr(unsigned)> build = [&](unsigned Depth) -> Expr {
      if (Depth == 0 || R.chance(1, 5)) {
        if (R.chance(1, 4))
          return mkBV(W, R.next());
        return LeafVars[R.next(LeafVars.size())];
      }
      Expr A = build(Depth - 1);
      Expr B = build(Depth - 1);
      switch (R.next(14)) {
      case 0:
        return mkAdd(A, B);
      case 1:
        return mkSub(A, B);
      case 2:
        return mkMul(A, B);
      case 3:
        return mkBVAnd(A, B);
      case 4:
        return mkBVOr(A, B);
      case 5:
        return mkBVXor(A, B);
      case 6:
        return mkShl(A, B);
      case 7:
        return mkLShr(A, B);
      case 8:
        return mkIte(cond(A, B), A, B);
      case 9:
        return mkBVNot(A);
      case 10: {
        Expr K = mkBV(W, R.next());
        return R.chance(1, 2) ? mkIte(cond(A, B), A, K)
                              : mkIte(cond(A, B), K, A);
      }
      case 11: {
        Expr Tied = R.chance(1, 2) ? A : mkBVNot(A);
        Expr C = R.chance(1, 2) ? mkSignBit(A) : mkSignBit(mkBVNot(A));
        return R.chance(1, 2) ? mkIte(C, Tied, B) : mkIte(C, B, Tied);
      }
      case 12:
        return R.chance(1, 2) ? mkIte(cond(A, B), A, mkBVNot(A))
                              : mkIte(cond(A, B), mkBVNot(A), A);
      default:
        return mkURem(A, B);
      }
    };
    Expr Tree = build(4);

    // Pin the leaves to random values and compare against the evaluator.
    Model M;
    Solver S;
    for (Expr L : LeafVars) {
      BitVec V(W, R.next());
      M.set(L.id(), V);
      S.add(mkEq(L, mkBV(V)));
    }
    BitVec Expected = evaluate(Tree, M);
    S.add(mkNe(Tree, mkBV(Expected)));
    EXPECT_TRUE(S.check().isUnsat())
        << "circuit disagrees with the evaluator: " << toString(Tree);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitBlastTrees, ::testing::Range(0, 10));

TEST(BitBlast, MemoryBudgetReported) {
  // A factoring instance cannot be decided by root-level propagation, so a
  // microscopic literal budget must yield a memory verdict, not an answer.
  Expr X = mkFreshVar("x", 32), Y = mkFreshVar("y", 32);
  Expr Semiprime = mkBV(32, 3161263197u); // 56383 * 56659
  Expr Q = mkAnd(mkEq(mkMul(X, Y), Semiprime),
                 mkAnd(mkUgt(X, mkBV(32, 1)), mkUgt(Y, mkBV(32, 1))));
  SolverBudget B;
  B.MaxLiterals = 100;
  SolveOutcome R = checkSat(Q, TimeLimit(B));
  ASSERT_TRUE(R.isUnknown());
  EXPECT_EQ(R.UnknownReason, support::Reason::Memory);
}

TEST(BitBlast, GateTableGrowthPollsTheLimit) {
  // Growing the gate table rehashes every gate and emits no clause, so the
  // blaster polls its time limit after each growth. Under a spent limit a
  // 64-bit multiplier, which passes 2^12 clauses, stops at the first
  // growth (the 257th gate), not at the first clause poll.
  Expr F = mkEq(mkMul(mkFreshVar("x", 64), mkFreshVar("y", 64)),
                mkBV(64, 12345));
  {
    SatSolver Sat;
    BitBlaster Unbounded(Sat, TimeLimit());
    Unbounded.assertTrue(F);
    ASSERT_GT(Unbounded.numClausesEmitted(), uint64_t(1) << 12);
  }
  SolverBudget B;
  B.TimeoutSec = 0;
  SatSolver Sat;
  BitBlaster Blaster(Sat, TimeLimit(B));
  Blaster.assertTrue(F);
  EXPECT_EQ(Blaster.stopReason(), support::Reason::Timeout);
  EXPECT_GT(Blaster.numClausesEmitted(), 256u);
  EXPECT_LT(Blaster.numClausesEmitted(), uint64_t(1) << 12);
}

} // namespace
