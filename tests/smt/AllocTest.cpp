//===- tests/smt/AllocTest.cpp ---------------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
// Guards the allocation-free path from expression to clause: a counting
// global operator new pins zero heap allocations, after warm-up, for DAG
// walks and rewrites that build nothing new, re-interning an existing node,
// BitVec arithmetic at up to 64 bits and attaching a clause whose literals'
// watch lists stay inline (DESIGN.md "Expression kernel storage").
//===----------------------------------------------------------------------===//

#include "smt/Expr.h"
#include "smt/Sat.h"
#include "support/BitVec.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdlib>
#include <new>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace {
std::atomic<uint64_t> Allocations{0};

void *countedAlloc(std::size_t Size) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace alive;
using namespace alive::smt;

namespace {

/// Heap allocations made while \p F runs.
template <typename Fn> uint64_t allocationsIn(Fn F) {
  uint64_t Before = Allocations.load(std::memory_order_relaxed);
  F();
  return Allocations.load(std::memory_order_relaxed) - Before;
}

class AllocTest : public ::testing::Test {
protected:
  void SetUp() override { resetContext(); }
};

TEST_F(AllocTest, CountingIsLive) {
  static int *volatile Sink;
  EXPECT_EQ(allocationsIn([] { Sink = new int(1); }), 1u);
  delete Sink;
}

/// A DAG with sharing over three 32-bit variables.
Expr sample(Expr X, Expr Y, Expr Z) {
  Expr E = mkAdd(mkMul(X, Y), Z);
  for (unsigned I = 0; I < 20; ++I)
    E = mkBVXor(mkAdd(E, mkMul(E, mkBV(32, 2 * I + 3))), mkLShr(Y, Z));
  return E;
}

TEST_F(AllocTest, WalksAndRewritesOfExistingNodes) {
  Expr X = mkVar("x", 32), Y = mkVar("y", 32), Z = mkVar("z", 32);
  Expr E = sample(X, Y, Z);
  std::unordered_set<ExprId> Vars{Z.id()}, Absent{mkVar("w", 32).id()};
  std::unordered_map<ExprId, Expr> Map{{X.id(), Z}};
  bool Found = false, NotFound = true;
  size_t Counted = 0;
  Expr Got;
  auto run = [&] {
    Found = mentionsAnyVar(E, Vars);
    NotFound = mentionsAnyVar(E, Absent);
    Counted = dagSize(E);
    Got = substitute(E, Map);
  };
  // Warm-up: builds the substitution's result and sizes the memos.
  run();
  Expr Want = Got;
  EXPECT_EQ(allocationsIn(run), 0u);
  EXPECT_TRUE(Found);
  EXPECT_FALSE(NotFound);
  EXPECT_EQ(Counted, dagSize(E));
  EXPECT_EQ(Got, Want);
  EXPECT_NE(Got, E);
}

TEST_F(AllocTest, InterningAnExistingNode) {
  Expr X = mkVar("x", 32), Y = mkVar("y", 32), C = mkVar("c", 0);
  Expr E = mkIte(C, mkAdd(X, Y), mkMul(X, mkBV(32, 7)));
  Expr Again;
  EXPECT_EQ(allocationsIn([&] {
              Again = mkIte(C, mkAdd(Y, X), mkMul(mkBV(32, 7), X));
              (void)mkVar("x", 32);
            }),
            0u);
  EXPECT_EQ(Again, E);
}

TEST_F(AllocTest, BitVecArithmeticUpTo64Bits) {
  uint64_t Checksum = 0;
  EXPECT_EQ(allocationsIn([&] {
              for (unsigned W : {1u, 8u, 32u, 63u, 64u}) {
                BitVec A(W, 0x9e3779b97f4a7c15ull), B(W, 0xfeedull);
                BitVec Sh(W, W / 3);
                BitVec R = A.add(B).sub(B.neg()).mul(A).bvxor(B.bvnot());
                R = R.bvand(A).bvor(B).shl(Sh).lshr(Sh).ashr(Sh);
                R = R.udiv(B).add(A.urem(B)).sdiv(B).add(A.srem(B));
                BitVec Copy = R;
                R = std::move(Copy);
                Checksum += R.low64() + A.ult(B) + A.slt(B) +
                            A.umulOverflow(B) + A.smulOverflow(B) +
                            A.countLeadingZeros() + R.hash();
                if (W < 64)
                  Checksum += A.zext(W + 1).sext(64).trunc(W).low64() +
                              A.concat(BitVec(1, 1)).extract(1, W).low64();
              }
            }),
            0u);
  EXPECT_NE(Checksum, 0u);
}

TEST_F(AllocTest, AttachingClausesWithInlineWatchLists) {
  // Each clause takes fresh literals, so every watch list it joins stays
  // under the inline capacity. What may still allocate is the clause arena
  // growing; right after it grows there is room for the next clauses.
  SatSolver S;
  std::vector<int> Vars;
  for (int I = 0; I < 3000; ++I)
    Vars.push_back(S.newVar());
  size_t Next = 0;
  auto attach = [&] {
    Lit C[3] = {mkLit(Vars[Next]), negLit(mkLit(Vars[Next + 1])),
                mkLit(Vars[Next + 2])};
    Next += 3;
    return allocationsIn([&] { S.addClause(C); });
  };
  for (int I = 0; I < 100; ++I)
    attach();
  while (attach() == 0)
    ASSERT_LT(Next + 3, Vars.size());
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(attach(), 0u);
  EXPECT_EQ(S.numClauses(), Next / 3);
  EXPECT_EQ(S.solve(), SatStatus::Sat);
}

} // namespace
