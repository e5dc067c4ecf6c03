//===- smt/Simplify.cpp - Construction-time folding ------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/Simplify.h"

#include "support/Profile.h"
#include "support/Stats.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cassert>

using namespace alive;
using namespace alive::smt;
using alive::smt::detail::fold;

namespace {

const Node &node(ExprId Id) { return ExprCtx::get().node(Id); }

bool getBVConst(ExprId Id, BitVec &Out) {
  const Node &N = node(Id);
  if (N.K != Kind::ConstBV)
    return false;
  Out = N.Cst;
  return true;
}

bool getBoolConst(ExprId Id, bool &Out) {
  const Node &N = node(Id);
  if (N.K != Kind::ConstBool)
    return false;
  Out = N.P0 != 0;
  return true;
}

Expr intern(Node N) { return Expr(ExprCtx::get().intern(std::move(N))); }

/// Folds when every operand is a constant, by evaluating with evalNode.
bool foldAllConst(const Node &N, Expr &Out) {
  // Fail before copying anything if an operand is symbolic.
  for (ExprId Op : N.Ops)
    if (Kind K = node(Op).K; K != Kind::ConstBV && K != Kind::ConstBool)
      return false;
  // An all-constant ite is the node of the operand it selects.
  if (N.K == Kind::Ite) {
    Out = Expr(node(N.Ops[0]).P0 ? N.Ops[1] : N.Ops[2]);
    return true;
  }
  assert(N.Ops.size() <= Node::InlineOps && "an operator has <= 3 operands");
  BitVec Vals[Node::InlineOps];
  for (unsigned I = 0; I < N.Ops.size(); ++I) {
    const Node &ON = node(N.Ops[I]);
    Vals[I] = ON.K == Kind::ConstBV ? ON.Cst : BitVec(1, ON.P0);
  }
  BitVec V = detail::evalNode(N, Vals);
  Out = N.Width == 0 ? mkBool(!V.isZero()) : mkBV(V);
  return true;
}

} // namespace

BitVec smt::detail::evalNode(const Node &N, const BitVec *Ops) {
  auto boolVal = [](bool B) { return BitVec(1, B); };
  switch (N.K) {
  case Kind::ConstBool:
    return boolVal(N.P0 != 0);
  case Kind::ConstBV:
    return N.Cst;
  case Kind::Var:
  case Kind::App:
    break;
  case Kind::Not:
    return boolVal(Ops[0].isZero());
  case Kind::And:
    return boolVal(!Ops[0].isZero() && !Ops[1].isZero());
  case Kind::Or:
    return boolVal(!Ops[0].isZero() || !Ops[1].isZero());
  case Kind::Xor:
    return boolVal(Ops[0].isZero() != Ops[1].isZero());
  case Kind::Ite:
    return !Ops[0].isZero() ? Ops[1] : Ops[2];
  case Kind::Eq:
    return boolVal(Ops[0] == Ops[1]);
  case Kind::Ult:
    return boolVal(Ops[0].ult(Ops[1]));
  case Kind::Slt:
    return boolVal(Ops[0].slt(Ops[1]));
  case Kind::Add:
    return Ops[0].add(Ops[1]);
  case Kind::Mul:
    return Ops[0].mul(Ops[1]);
  case Kind::UDiv:
    return Ops[0].udiv(Ops[1]);
  case Kind::URem:
    return Ops[0].urem(Ops[1]);
  case Kind::SDiv:
    return Ops[0].sdiv(Ops[1]);
  case Kind::SRem:
    return Ops[0].srem(Ops[1]);
  case Kind::BAnd:
    return Ops[0].bvand(Ops[1]);
  case Kind::BOr:
    return Ops[0].bvor(Ops[1]);
  case Kind::BXor:
    return Ops[0].bvxor(Ops[1]);
  case Kind::BNot:
    return Ops[0].bvnot();
  case Kind::Shl:
    return Ops[0].shl(Ops[1]);
  case Kind::LShr:
    return Ops[0].lshr(Ops[1]);
  case Kind::AShr:
    return Ops[0].ashr(Ops[1]);
  case Kind::Concat:
    return Ops[0].concat(Ops[1]);
  case Kind::Extract:
    return Ops[0].extract(N.P0, N.P1);
  }
  assert(false && "a variable or application has no value of its own");
  return BitVec(N.Width ? N.Width : 1, 0);
}

/// Applies the rewrite rules to \p N. \returns the rewritten expression,
/// or an invalid Expr when no rule fired (the caller interns N as-is; the
/// split lets fold() count fired rewrites at a single point).
static Expr foldRules(Node &N) {
  // Leaves are interned directly by their factories; operators arrive here.
  Expr Folded;
  if (N.K != Kind::App && foldAllConst(N, Folded))
    return Folded;

  ExprId A = N.Ops.size() > 0 ? N.Ops[0] : NoExpr;
  ExprId B = N.Ops.size() > 1 ? N.Ops[1] : NoExpr;

  switch (N.K) {
  case Kind::Not: {
    const Node &AN = node(A);
    if (AN.K == Kind::Not)
      return Expr(AN.Ops[0]);
    break;
  }
  case Kind::And: {
    bool C;
    for (int Side = 0; Side < 2; ++Side) {
      ExprId X = Side ? B : A, Y = Side ? A : B;
      if (getBoolConst(X, C))
        return C ? Expr(Y) : mkFalse();
    }
    if (A == B)
      return Expr(A);
    if (node(A).K == Kind::Not && node(A).Ops[0] == B)
      return mkFalse();
    if (node(B).K == Kind::Not && node(B).Ops[0] == A)
      return mkFalse();
    break;
  }
  case Kind::Or: {
    bool C;
    for (int Side = 0; Side < 2; ++Side) {
      ExprId X = Side ? B : A, Y = Side ? A : B;
      if (getBoolConst(X, C))
        return C ? mkTrue() : Expr(Y);
    }
    if (A == B)
      return Expr(A);
    if (node(A).K == Kind::Not && node(A).Ops[0] == B)
      return mkTrue();
    if (node(B).K == Kind::Not && node(B).Ops[0] == A)
      return mkTrue();
    break;
  }
  case Kind::Xor: {
    bool C;
    for (int Side = 0; Side < 2; ++Side) {
      ExprId X = Side ? B : A, Y = Side ? A : B;
      if (getBoolConst(X, C))
        return C ? mkNot(Expr(Y)) : Expr(Y);
    }
    if (A == B)
      return mkFalse();
    break;
  }
  case Kind::Ite: {
    bool C;
    if (getBoolConst(A, C))
      return Expr(C ? N.Ops[1] : N.Ops[2]);
    if (N.Ops[1] == N.Ops[2])
      return Expr(N.Ops[1]);
    // Bool-sorted ite is just Boolean structure.
    if (node(N.Ops[1]).Width == 0) {
      Expr Cond(A), T(N.Ops[1]), F(N.Ops[2]);
      bool TC, FC;
      bool HasT = getBoolConst(N.Ops[1], TC), HasF = getBoolConst(N.Ops[2], FC);
      if (HasT && HasF)
        return TC ? Cond : mkNot(Cond); // (TC,FC) = (1,0) or (0,1); equal
                                        // arms were handled above.
      if (HasT)
        return TC ? mkOr(Cond, F) : mkAnd(mkNot(Cond), F);
      if (HasF)
        return FC ? mkOr(mkNot(Cond), T) : mkAnd(Cond, T);
    }
    // ite(!c, a, b) -> ite(c, b, a)
    if (node(A).K == Kind::Not) {
      Node M = N;
      M.Ops = {node(A).Ops[0], N.Ops[2], N.Ops[1]};
      return fold(std::move(M));
    }
    break;
  }
  case Kind::Eq: {
    if (A == B)
      return mkTrue();
    // Bool equality with a constant reduces to the operand or its negation.
    if (node(A).Width == 0) {
      bool C;
      if (getBoolConst(A, C))
        return C ? Expr(B) : mkNot(Expr(B));
      if (getBoolConst(B, C))
        return C ? Expr(A) : mkNot(Expr(A));
    }
    // Structural equality decomposition: these two rules let memory
    // addresses (concat(bid, base+k)) decide their (dis)equality without
    // the SAT solver, collapsing store chains (Section 3.7's formula
    // shrinking).
    {
      const Node &AN = node(A);
      const Node &BN = node(B);
      // (= (concat a b) (concat c d)) with matching widths.
      if (AN.K == Kind::Concat && BN.K == Kind::Concat &&
          node(AN.Ops[1]).Width == node(BN.Ops[1]).Width)
        return mkAnd(mkEq(Expr(AN.Ops[0]), Expr(BN.Ops[0])),
                     mkEq(Expr(AN.Ops[1]), Expr(BN.Ops[1])));
      // (= x (concat h l)) -> (= (extract x hi) h) /\ (= (extract x lo) l):
      // always-valid decomposition that lets the rules below fire on the
      // components.
      for (int Swap = 0; Swap < 2; ++Swap) {
        ExprId X = Swap ? B : A;
        ExprId C = Swap ? A : B;
        const Node &CN = node(C);
        if (CN.K != Kind::Concat || node(X).K == Kind::Concat)
          continue;
        ExprId H = CN.Ops[0], Lo = CN.Ops[1];
        unsigned LoW = node(Lo).Width;
        unsigned HiW = node(H).Width;
        return mkAnd(mkEq(mkExtract(Expr(X), LoW, HiW), Expr(H)),
                     mkEq(mkExtract(Expr(X), 0, LoW), Expr(Lo)));
      }
      // (= (bvadd x a) (bvadd x b)) -> (= a b): modular cancellation.
      if (AN.K == Kind::Add && BN.K == Kind::Add) {
        for (int I = 0; I < 2; ++I)
          for (int J = 0; J < 2; ++J)
            if (AN.Ops[I] == BN.Ops[J])
              return mkEq(Expr(AN.Ops[1 - I]), Expr(BN.Ops[1 - J]));
      }
      // (= (bvadd x c) x) -> (= c 0).
      for (int Swap = 0; Swap < 2; ++Swap) {
        const Node &XN = node(Swap ? B : A);
        ExprId Other = Swap ? A : B;
        if (XN.K == Kind::Add &&
            (XN.Ops[0] == Other || XN.Ops[1] == Other)) {
          ExprId Rest = XN.Ops[0] == Other ? XN.Ops[1] : XN.Ops[0];
          return mkEq(Expr(Rest), mkBV(node(Rest).Width, 0));
        }
      }
    }
    // eq of 1-bit vectors against a constant bit.
    BitVec V;
    if (node(A).Width == 1) {
      for (int Side = 0; Side < 2; ++Side) {
        ExprId X = Side ? B : A, Y = Side ? A : B;
        if (getBVConst(X, V)) {
          const Node &YN = node(Y);
          // (= (ite c 1 0) k) -> c or !c
          if (YN.K == Kind::Ite) {
            BitVec TV, FV;
            if (getBVConst(YN.Ops[1], TV) && getBVConst(YN.Ops[2], FV) &&
                TV != FV)
              return V == TV ? Expr(YN.Ops[0]) : mkNot(Expr(YN.Ops[0]));
          }
        }
      }
    }
    break;
  }
  case Kind::Ult: {
    if (A == B)
      return mkFalse();
    BitVec V;
    if (getBVConst(B, V) && V.isZero())
      return mkFalse(); // x < 0 (unsigned)
    if (getBVConst(A, V) && V.isAllOnes())
      return mkFalse(); // UINT_MAX < x
    if (getBVConst(A, V) && V.isZero())
      return mkNe(Expr(B), mkBV(BitVec::zero(node(B).Width))); // 0 < x
    break;
  }
  case Kind::Slt:
    if (A == B)
      return mkFalse();
    break;
  case Kind::Add: {
    BitVec V;
    for (int Side = 0; Side < 2; ++Side) {
      ExprId X = Side ? B : A, Y = Side ? A : B;
      if (getBVConst(X, V) && V.isZero())
        return Expr(Y);
    }
    break;
  }
  case Kind::Mul: {
    BitVec V, C;
    for (int Side = 0; Side < 2; ++Side) {
      ExprId X = Side ? B : A, Y = Side ? A : B;
      if (!getBVConst(X, V))
        continue;
      if (V.isZero())
        return mkBV(V);
      if (V.isOne())
        return Expr(Y);
      // (y * c1) * c2 -> y * (c1 * c2): an inverse t * c^-1 multiplied back
      // by c folds to t here, not in the SAT search.
      const Node &YN = node(Y);
      if (YN.K != Kind::Mul)
        continue;
      for (int Inner = 0; Inner < 2; ++Inner)
        if (getBVConst(YN.Ops[Inner], C)) {
          ExprId Z = YN.Ops[1 - Inner];
          Expr Product = mkBV(C.mul(V));
          return mkMul(Expr(Z), Product);
        }
    }
    break;
  }
  case Kind::UDiv: {
    BitVec V;
    if (getBVConst(B, V) && V.isOne())
      return Expr(A);
    break;
  }
  case Kind::URem: {
    BitVec V;
    if (getBVConst(B, V) && V.isOne())
      return mkBV(BitVec::zero(N.Width));
    break;
  }
  case Kind::BAnd: {
    BitVec V;
    for (int Side = 0; Side < 2; ++Side) {
      ExprId X = Side ? B : A, Y = Side ? A : B;
      if (getBVConst(X, V)) {
        if (V.isZero())
          return mkBV(V);
        if (V.isAllOnes())
          return Expr(Y);
      }
    }
    if (A == B)
      return Expr(A);
    break;
  }
  case Kind::BOr: {
    BitVec V;
    for (int Side = 0; Side < 2; ++Side) {
      ExprId X = Side ? B : A, Y = Side ? A : B;
      if (getBVConst(X, V)) {
        if (V.isZero())
          return Expr(Y);
        if (V.isAllOnes())
          return mkBV(V);
      }
    }
    if (A == B)
      return Expr(A);
    break;
  }
  case Kind::BXor: {
    BitVec V;
    for (int Side = 0; Side < 2; ++Side) {
      ExprId X = Side ? B : A, Y = Side ? A : B;
      if (getBVConst(X, V) && V.isZero())
        return Expr(Y);
    }
    if (A == B)
      return mkBV(BitVec::zero(N.Width));
    break;
  }
  case Kind::BNot: {
    const Node &AN = node(A);
    if (AN.K == Kind::BNot)
      return Expr(AN.Ops[0]);
    break;
  }
  case Kind::Shl:
  case Kind::LShr:
  case Kind::AShr: {
    BitVec V;
    if (getBVConst(B, V) && V.isZero())
      return Expr(A);
    if (getBVConst(A, V) && V.isZero() && N.K != Kind::AShr)
      return mkBV(V);
    break;
  }
  case Kind::Extract: {
    // Full-width extract is the identity.
    const Node &AN = node(A);
    if (N.P0 == 0 && N.P1 == AN.Width)
      return Expr(A);
    // extract of extract composes.
    if (AN.K == Kind::Extract) {
      Node M = N;
      M.Ops = {AN.Ops[0]};
      M.P0 = N.P0 + AN.P0;
      return fold(std::move(M));
    }
    // extract entirely within one side of a concat forwards.
    if (AN.K == Kind::Concat) {
      unsigned LoW = node(AN.Ops[1]).Width;
      if (N.P0 + N.P1 <= LoW) {
        Node M = N;
        M.Ops = {AN.Ops[1]};
        return fold(std::move(M));
      }
      if (N.P0 >= LoW) {
        Node M = N;
        M.Ops = {AN.Ops[0]};
        M.P0 = N.P0 - LoW;
        return fold(std::move(M));
      }
    }
    // extract of ite with constant-ish arms stays; blasting handles it.
    break;
  }
  case Kind::Concat: {
    // Reassemble adjacent extracts of the same base value.
    const Node &AN = node(A);
    const Node &BN = node(B);
    if (AN.K == Kind::Extract && BN.K == Kind::Extract &&
        AN.Ops[0] == BN.Ops[0] && AN.P0 == BN.P0 + BN.P1) {
      Node M;
      M.K = Kind::Extract;
      M.Width = AN.P1 + BN.P1;
      M.Ops = {AN.Ops[0]};
      M.P0 = BN.P0;
      M.P1 = AN.P1 + BN.P1;
      return fold(std::move(M));
    }
    break;
  }
  default:
    break;
  }

  // Canonicalize commutative operand order for better hash-consing.
  if (detail::isCommutative(N.K) && N.Ops.size() == 2 && N.Ops[0] > N.Ops[1])
    std::swap(N.Ops[0], N.Ops[1]);

  return Expr();
}

bool smt::detail::isCommutative(Kind K) {
  switch (K) {
  case Kind::And:
  case Kind::Or:
  case Kind::Xor:
  case Kind::Eq:
  case Kind::Add:
  case Kind::Mul:
  case Kind::BAnd:
  case Kind::BOr:
  case Kind::BXor:
    return true;
  default:
    return false;
  }
}

Expr smt::detail::fold(Node N) {
  if (Expr R = foldRules(N); R.isValid()) {
    ALIVE_STAT_COUNTER(Rewrites, "simplify.rewrites");
    Rewrites.inc();
    // Thread-local profiling tally: lets spans attribute simplifier work
    // to the phase that built the expressions (encode vs. search).
    ++prof::tally().Rewrites;
    return R;
  }
  return intern(std::move(N));
}
