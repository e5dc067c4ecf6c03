//===- tests/smt/ExprTest.cpp ----------------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
// Tests for the hash-consed expression DAG: interning identity, the
// construction-time folding rules, substitution and ground evaluation.
//===----------------------------------------------------------------------===//

#include "smt/Expr.h"
#include "smt/Fingerprint.h"
#include "support/Diag.h"

#include "gtest/gtest.h"

#include <thread>

using namespace alive;
using namespace alive::smt;

namespace {

class ExprTest : public ::testing::Test {
protected:
  void SetUp() override { resetContext(); }
};

TEST_F(ExprTest, HashConsingGivesIdenticalIds) {
  Expr A = mkVar("x", 8);
  Expr B = mkVar("x", 8);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, mkVar("x", 16));
  EXPECT_NE(A, mkVar("y", 8));
  Expr S1 = mkAdd(A, mkBV(8, 3));
  Expr S2 = mkAdd(B, mkBV(8, 3));
  EXPECT_EQ(S1, S2);
}

TEST_F(ExprTest, CommutativeCanonicalization) {
  Expr X = mkVar("x", 8), Y = mkVar("y", 8);
  EXPECT_EQ(mkAdd(X, Y), mkAdd(Y, X));
  EXPECT_EQ(mkMul(X, Y), mkMul(Y, X));
  EXPECT_EQ(mkBVAnd(X, Y), mkBVAnd(Y, X));
  EXPECT_EQ(mkEq(X, Y), mkEq(Y, X));
}

TEST_F(ExprTest, ConstantFolding) {
  Expr A = mkBV(8, 10), B = mkBV(8, 20);
  BitVec V;
  ASSERT_TRUE(mkAdd(A, B).getConst(V));
  EXPECT_EQ(V.low64(), 30u);
  ASSERT_TRUE(mkMul(A, B).getConst(V));
  EXPECT_EQ(V.low64(), 200u);
  EXPECT_TRUE(mkUlt(A, B).isTrue());
  EXPECT_TRUE(mkEq(A, A).isTrue());
  EXPECT_TRUE(mkEq(A, B).isFalse());
  ASSERT_TRUE(mkConcat(A, B).getConst(V));
  EXPECT_EQ(V.low64(), 0x0a14u);
}

TEST_F(ExprTest, BooleanIdentities) {
  Expr P = mkVar("p", 0);
  EXPECT_EQ(mkAnd(P, mkTrue()), P);
  EXPECT_TRUE(mkAnd(P, mkFalse()).isFalse());
  EXPECT_EQ(mkOr(P, mkFalse()), P);
  EXPECT_TRUE(mkOr(P, mkTrue()).isTrue());
  EXPECT_TRUE(mkAnd(P, mkNot(P)).isFalse());
  EXPECT_TRUE(mkOr(P, mkNot(P)).isTrue());
  EXPECT_EQ(mkNot(mkNot(P)), P);
  EXPECT_TRUE(mkXor(P, P).isFalse());
  EXPECT_EQ(mkXor(P, mkFalse()), P);
  EXPECT_EQ(mkXor(P, mkTrue()), mkNot(P));
}

TEST_F(ExprTest, BitVectorIdentities) {
  Expr X = mkVar("x", 8);
  Expr Zero = mkBV(8, 0), Ones = mkBV(BitVec::allOnes(8));
  EXPECT_EQ(mkAdd(X, Zero), X);
  EXPECT_EQ(mkMul(X, mkBV(8, 1)), X);
  EXPECT_TRUE(mkMul(X, Zero).isZeroConst());
  EXPECT_EQ(mkBVAnd(X, Ones), X);
  EXPECT_TRUE(mkBVAnd(X, Zero).isZeroConst());
  EXPECT_EQ(mkBVOr(X, Zero), X);
  EXPECT_TRUE(mkBVXor(X, X).isZeroConst());
  EXPECT_EQ(mkBVNot(mkBVNot(X)), X);
  EXPECT_EQ(mkShl(X, Zero), X);
  EXPECT_TRUE(mkUlt(X, Zero).isFalse());
}

TEST_F(ExprTest, IteSimplification) {
  Expr P = mkVar("p", 0);
  Expr X = mkVar("x", 8), Y = mkVar("y", 8);
  EXPECT_EQ(mkIte(mkTrue(), X, Y), X);
  EXPECT_EQ(mkIte(mkFalse(), X, Y), Y);
  EXPECT_EQ(mkIte(P, X, X), X);
  // Negated condition swaps arms.
  EXPECT_EQ(mkIte(mkNot(P), X, Y), mkIte(P, Y, X));
  // Bool ite folds into plain connectives.
  Expr Q = mkVar("q", 0);
  EXPECT_EQ(mkIte(P, mkTrue(), Q), mkOr(P, Q));
  EXPECT_EQ(mkIte(P, Q, mkFalse()), mkAnd(P, Q));
  EXPECT_EQ(mkIte(P, mkTrue(), mkFalse()), P);
  EXPECT_EQ(mkIte(P, mkFalse(), mkTrue()), mkNot(P));
}

TEST_F(ExprTest, BoolToBVRoundTrip) {
  Expr P = mkVar("p", 0);
  // (= (ite p #b1 #b0) #b1) folds back to p.
  EXPECT_EQ(mkEq(mkBoolToBV1(P), mkBV(1, 1)), P);
  EXPECT_EQ(mkEq(mkBoolToBV1(P), mkBV(1, 0)), mkNot(P));
}

TEST_F(ExprTest, ExtractConcatForwarding) {
  Expr X = mkVar("x", 8), Y = mkVar("y", 8);
  Expr C = mkConcat(X, Y);
  EXPECT_EQ(mkExtract(C, 0, 8), Y);
  EXPECT_EQ(mkExtract(C, 8, 8), X);
  EXPECT_EQ(mkExtract(X, 0, 8), X) << "full-width extract is identity";
  // extract of extract composes.
  EXPECT_EQ(mkExtract(mkExtract(X, 2, 6), 1, 3), mkExtract(X, 3, 3));
  // Adjacent extracts of the same base re-assemble.
  EXPECT_EQ(mkConcat(mkExtract(X, 4, 4), mkExtract(X, 0, 4)), X);
}

TEST_F(ExprTest, ZextSextTrunc) {
  Expr X = mkVar("x", 8);
  EXPECT_EQ(mkZExt(X, 8), X);
  EXPECT_EQ(mkZExt(X, 16).width(), 16u);
  EXPECT_EQ(mkTrunc(mkZExt(X, 16), 8), X);
  EXPECT_EQ(mkTrunc(mkSExt(X, 16), 8), X);
  BitVec V;
  ASSERT_TRUE(mkSExt(mkBV(8, 0x80), 16).getConst(V));
  EXPECT_EQ(V.low64(), 0xff80u);
}

TEST_F(ExprTest, SubstituteAndEvaluate) {
  Expr X = mkVar("x", 8), Y = mkVar("y", 8);
  Expr E = mkAdd(mkMul(X, mkBV(8, 3)), Y);
  std::unordered_map<ExprId, Expr> Map;
  Map[X.id()] = mkBV(8, 5);
  Expr E2 = substitute(E, Map);
  // x*3 folded to 15, y stays.
  EXPECT_EQ(E2, mkAdd(mkBV(8, 15), Y));
  Map[Y.id()] = mkBV(8, 7);
  BitVec V;
  ASSERT_TRUE(substitute(E, Map).getConst(V));
  EXPECT_EQ(V.low64(), 22u);

  Model M;
  M.set(X.id(), BitVec(8, 5));
  M.set(Y.id(), BitVec(8, 7));
  EXPECT_EQ(evaluate(E, M).low64(), 22u);
}

TEST_F(ExprTest, EvaluateAllOperators) {
  Rng R(42);
  for (int Iter = 0; Iter < 200; ++Iter) {
    unsigned W = 1 + (unsigned)R.next(16);
    uint64_t AV = R.next(), BV_ = R.next();
    Expr X = mkVar("x", W), Y = mkVar("y", W);
    Model M;
    BitVec A(W, AV), B(W, BV_);
    M.set(X.id(), A);
    M.set(Y.id(), B);
    EXPECT_EQ(evaluate(mkAdd(X, Y), M), A.add(B));
    EXPECT_EQ(evaluate(mkSub(X, Y), M), A.sub(B));
    EXPECT_EQ(evaluate(mkMul(X, Y), M), A.mul(B));
    EXPECT_EQ(evaluate(mkUDiv(X, Y), M), A.udiv(B));
    EXPECT_EQ(evaluate(mkSRem(X, Y), M), A.srem(B));
    EXPECT_EQ(evaluate(mkShl(X, Y), M), A.shl(B));
    EXPECT_EQ(evaluate(mkAShr(X, Y), M), A.ashr(B));
    EXPECT_EQ(!evaluate(mkSlt(X, Y), M).isZero(), A.slt(B));
    EXPECT_EQ(!evaluate(mkUle(X, Y), M).isZero(), A.ule(B));
    EXPECT_EQ(evaluate(mkConcat(X, Y), M), A.concat(B));
    EXPECT_EQ(!evaluate(mkSAddOverflow(X, Y), M).isZero(),
              A.saddOverflow(B));
    EXPECT_EQ(!evaluate(mkUMulOverflow(X, Y), M).isZero(),
              A.umulOverflow(B));
  }
}

TEST_F(ExprTest, CollectVarsAndMentions) {
  Expr X = mkVar("x", 8), Y = mkVar("y", 8), Z = mkVar("z", 8);
  Expr E = mkAdd(X, mkMul(Y, Y));
  std::unordered_set<ExprId> Vars;
  collectVars(E, Vars);
  EXPECT_EQ(Vars.size(), 2u);
  EXPECT_TRUE(Vars.count(X.id()));
  EXPECT_TRUE(Vars.count(Y.id()));
  std::unordered_set<ExprId> Just{Z.id()};
  EXPECT_FALSE(mentionsAnyVar(E, Just));
  Just.insert(Y.id());
  EXPECT_TRUE(mentionsAnyVar(E, Just));
}

TEST_F(ExprTest, AppsAreOpaque) {
  Expr X = mkVar("x", 8);
  Expr A1 = mkApp("fadd", 8, {X, mkBV(8, 1)});
  Expr A2 = mkApp("fadd", 8, {X, mkBV(8, 1)});
  EXPECT_EQ(A1, A2) << "identical apps are hash-consed";
  EXPECT_NE(A1, mkApp("fadd", 8, {X, mkBV(8, 2)}));
  std::unordered_set<ExprId> Apps;
  collectApps(mkAdd(A1, X), Apps);
  EXPECT_EQ(Apps.size(), 1u);
}

TEST_F(ExprTest, RewriteApps) {
  Expr X = mkVar("x", 8);
  Expr A = mkApp("f", 8, {X});
  Expr E = mkAdd(A, mkBV(8, 1));
  std::unordered_map<ExprId, Expr> Map;
  Map[A.id()] = mkBV(8, 9);
  BitVec V;
  ASSERT_TRUE(rewriteApps(E, Map).getConst(V));
  EXPECT_EQ(V.low64(), 10u);
}

TEST_F(ExprTest, RenameApps) {
  // Renames by prefix, inside other applications' arguments too, and keeps
  // the suffix after the prefix.
  Expr X = mkVar("x", 8);
  std::vector<std::pair<std::string, std::string>> Renames = {
      {"localinit.srcI", "localinit.tgt"}};
  Expr Nested = mkApp("localinit.srcI.b", 8,
                      {mkApp("localinit.srcI", 8, {X})});
  Expr E = mkAdd(Nested, mkApp("mem0", 8, {X}));
  Expr Want = mkAdd(
      mkApp("localinit.tgt.b", 8, {mkApp("localinit.tgt", 8, {X})}),
      mkApp("mem0", 8, {X}));
  EXPECT_EQ(renameApps(E, Renames), Want);
  // Nothing to rename: the very same node comes back.
  EXPECT_EQ(renameApps(Want, Renames), Want);
}

TEST_F(ExprTest, FreshVarsAreDistinct) {
  Expr A = mkFreshVar("undef", 8);
  Expr B = mkFreshVar("undef", 8);
  EXPECT_NE(A, B);
}

TEST_F(ExprTest, ToStringSmoke) {
  Expr X = mkVar("x", 8);
  Expr E = mkAdd(X, mkBV(8, 3));
  std::string S = toString(E);
  EXPECT_NE(S.find("bvadd"), std::string::npos);
  EXPECT_NE(S.find("x"), std::string::npos);
}

TEST_F(ExprTest, DagSizeSharesSubterms) {
  Expr X = mkVar("x", 8);
  Expr Sq = mkMul(X, X);
  Expr E = mkAdd(Sq, Sq); // add folds? no: mul(x,x) + mul(x,x) stays
  EXPECT_LE(dagSize(E), 4u);
}

//===----------------------------------------------------------------------===//
// Node storage and walk memos
//===----------------------------------------------------------------------===//

TEST_F(ExprTest, AppArityAcrossTheInlineOperandLimit) {
  // Three operands live in the node itself; a fourth spills them all to a
  // heap block. Interning, equality, rewriting and fingerprints must not
  // tell the two apart.
  for (unsigned Arity : {0u, 3u, 4u, 9u}) {
    SCOPED_TRACE(Arity);
    resetContext();
    auto argsOf = [Arity](bool Reversed) {
      std::vector<Expr> Args(Arity);
      for (unsigned K = 0; K < Arity; ++K) {
        unsigned I = Reversed ? Arity - 1 - K : K;
        Args[I] = mkVar("a" + std::to_string(I), 8);
      }
      return Args;
    };
    std::vector<Expr> Args = argsOf(false);
    Expr F = mkApp("f", 16, Args);
    EXPECT_EQ(F, mkApp("f", 16, Args));
    ASSERT_EQ(F.node().Ops.size(), Arity);
    for (unsigned I = 0; I < Arity; ++I)
      EXPECT_EQ(F.node().Ops[I], Args[I].id());
    std::vector<Expr> Longer = Args;
    Longer.push_back(mkVar("z", 8));
    EXPECT_NE(F, mkApp("f", 16, Longer));
    EXPECT_NE(F, mkApp("g", 16, Args));
    if (Arity > 0) {
      std::vector<Expr> Other = Args;
      Other.back() = mkVar("z", 8);
      EXPECT_NE(F, mkApp("f", 16, Other));
    }

    std::unordered_map<ExprId, Expr> Map;
    std::vector<Expr> Consts;
    for (unsigned I = 0; I < Arity; ++I) {
      Consts.push_back(mkBV(8, I + 1));
      Map[Args[I].id()] = Consts.back();
    }
    EXPECT_EQ(substitute(F, Map), mkApp("f", 16, Consts));
    EXPECT_EQ(substitute(F, {}), F);
    EXPECT_EQ(renameApps(F, {{"f", "h."}}), mkApp("h.", 16, Args));
    EXPECT_EQ(renameApps(F, {{"g", "h."}}), F);

    Fingerprint Fp = fingerprint(F);
    if (Arity >= 2) {
      std::vector<Expr> Swapped = Args;
      std::swap(Swapped[0], Swapped[1]);
      EXPECT_NE(fingerprint(mkApp("f", 16, Swapped)), Fp);
    }
    // The same app built after a reset, its arguments interned in the
    // opposite order, fingerprints the same.
    resetContext();
    EXPECT_EQ(fingerprint(mkApp("f", 16, argsOf(true))), Fp);
  }
}

TEST_F(ExprTest, NodeReferencesSurviveInterning) {
  Expr X = mkVar("x", 8);
  Expr E = mkAdd(X, mkBV(8, 5));
  const Node &N = E.node();
  // Enough new nodes to fill more than one storage chunk.
  Expr Acc = X;
  for (size_t I = 0; I < ExprCtx::ChunkSize; ++I)
    Acc = mkMul(Acc, mkVar("v" + std::to_string(I), 8));
  EXPECT_GT(ExprCtx::get().size(), 2 * ExprCtx::ChunkSize);
  EXPECT_EQ(N.K, Kind::Add);
  EXPECT_EQ(N.Width, 8u);
  ASSERT_EQ(N.Ops.size(), 2u);
  EXPECT_EQ(&N, &E.node());
  EXPECT_EQ(E, mkAdd(X, mkBV(8, 5)));
}

/// A DAG with shared subterms: x*y occurs twice.
static Expr sharedDag(Expr X, Expr Y) {
  Expr Prod = mkMul(X, Y);
  return mkAdd(Prod, mkBVAnd(Prod, mkBVXor(X, mkBV(8, 3))));
}

TEST_F(ExprTest, WalksNestInsideCallbacks) {
  // A walk's callback may start walks and rewrites of its own, which intern
  // new nodes; each gets its own memo, so the outer walk still visits every
  // node once.
  Expr X = mkVar("x", 8), Y = mkVar("y", 8), Z = mkVar("z", 8);
  Expr E = sharedDag(X, Y);
  std::unordered_map<ExprId, Expr> Map{{X.id(), Z}};
  std::unordered_set<ExprId> Visited, Renamed{X.id()};
  size_t Inner = 0;
  walk(E, [&](ExprId Id, const Node &N) {
    EXPECT_TRUE(Visited.insert(Id).second) << "visited twice: " << Id;
    Inner += dagSize(Expr(Id));
    Expr S = substitute(Expr(Id), Map);
    EXPECT_FALSE(mentionsAnyVar(S, Renamed));
    EXPECT_EQ(S.width(), N.Width);
  });
  EXPECT_EQ(Visited.size(), dagSize(E));
  EXPECT_GT(Inner, Visited.size());
  EXPECT_EQ(substitute(E, Map), sharedDag(Z, Y));
}

TEST_F(ExprTest, WalkMemoSurvivesEpochWrapAround) {
  Expr X = mkVar("x", 8), Y = mkVar("y", 8), Z = mkVar("z", 8);
  Expr E = sharedDag(X, Y);
  size_t Size = dagSize(E);
  std::unordered_map<ExprId, Expr> Map{{Y.id(), Z}};
  Expr Want = sharedDag(X, Z);
  // Moving the counter forward is always safe: no stamp is ahead of it.
  auto toLastEpoch = [] {
    detail::MemoLease Memo;
    Memo->Epoch = ~uint32_t(0);
  };
  // From the last epoch the next walk wraps around to epoch 1, and leaves
  // every node of E stamped 1.
  toLastEpoch();
  EXPECT_EQ(dagSize(E), Size);
  // Wrap again: unless the stamps are cleared at the wrap, E's root still
  // carries stamp 1 and the walk finds it already reached.
  toLastEpoch();
  EXPECT_EQ(dagSize(E), Size);
  toLastEpoch();
  EXPECT_EQ(substitute(E, Map), Want);
  EXPECT_EQ(substitute(E, Map), Want);
  EXPECT_EQ(dagSize(E), Size);
}

TEST_F(ExprTest, WalkMemoAfterResetContext) {
  // Memos outlive the context: after a reset, ids restart at 0 and the
  // stamps left by walks over the old nodes must not leak into new walks.
  Expr Acc = mkVar("x", 16);
  for (unsigned I = 0; I < 300; ++I)
    Acc = mkAdd(mkMul(Acc, mkVar("k" + std::to_string(I), 16)), Acc);
  EXPECT_GT(dagSize(Acc), 600u);
  std::unordered_map<ExprId, Expr> Big{{Acc.id(), mkBV(16, 1)}};
  EXPECT_EQ(substitute(Acc, Big), Acc);
  resetContext();
  Expr X = mkVar("x", 8), Y = mkVar("y", 8), Z = mkVar("z", 8);
  Expr E = sharedDag(X, Y);
  EXPECT_EQ(dagSize(E), 7u);
  std::unordered_map<ExprId, Expr> Map{{X.id(), Z}};
  EXPECT_EQ(substitute(E, Map), sharedDag(Z, Y));
  std::unordered_set<ExprId> Vars;
  collectVars(E, Vars);
  EXPECT_EQ(Vars, (std::unordered_set<ExprId>{X.id(), Y.id()}));
}

TEST(ExprThreads, MemosArePerThread) {
  // Each thread interns, walks and rewrites in its own context with its
  // own memos, so threads running side by side get the answers each gets
  // alone.
  auto work = [](unsigned Seed) {
    resetContext();
    Expr X = mkVar("x", 16), Y = mkVar("y", 16);
    Expr E = X;
    for (unsigned I = 0; I < 200; ++I)
      E = mkBVXor(mkAdd(mkMul(E, mkBV(16, 2 * (I + Seed) + 1)), Y), E);
    size_t Nested = 0;
    walk(E, [&Nested](ExprId Id, const Node &) {
      Nested += dagSize(Expr(Id));
    });
    std::unordered_map<ExprId, Expr> Map{{X.id(), mkBV(16, Seed)},
                                         {Y.id(), mkBV(16, 3 * Seed)}};
    BitVec V;
    EXPECT_TRUE(substitute(E, Map).getConst(V));
    return std::make_pair(Nested + dagSize(E), V.low64());
  };
  const unsigned N = 4;
  std::vector<std::pair<size_t, uint64_t>> Alone, Together(N);
  for (unsigned T = 0; T < N; ++T)
    Alone.push_back(work(T + 1));
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < N; ++T)
    Threads.emplace_back([&, T] {
      for (int Round = 0; Round < 3; ++Round)
        Together[T] = work(T + 1);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Together, Alone);
}

} // namespace
