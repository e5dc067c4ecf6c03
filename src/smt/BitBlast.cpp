//===- smt/BitBlast.cpp - Tseitin bit-blasting to CNF ----------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/BitBlast.h"

#include "support/Profile.h"
#include "support/Stats.h"

#include <cassert>

using namespace alive;
using namespace alive::smt;

BitBlaster::BitBlaster(SatSolver &Solver, const TimeLimit &Limit)
    : S(Solver), Limit(Limit) {
  TrueLit = mkLit(S.newVar());
  S.addClause(TrueLit);
}

BitBlaster::~BitBlaster() {
  // Once per blaster, so the CNF-building hot path stays free of atomics.
  ALIVE_STAT_COUNTER(ClauseCount, "bitblast.clauses");
  ALIVE_STAT_COUNTER(VarCount, "bitblast.vars");
  ALIVE_STAT_COUNTER(CacheHitCount, "bitblast.cache_hits");
  ALIVE_STAT_COUNTER(GateHitCount, "bitblast.gate_hits");
  ClauseCount.inc(ClausesEmitted);
  VarCount.inc(FreshVars);
  CacheHitCount.inc(CacheHits);
  GateHitCount.inc(GateHits);
}

Lit BitBlaster::fresh() {
  ++FreshVars;
  return mkLit(S.newVar());
}

void BitBlaster::clause(std::initializer_list<Lit> Lits) {
  if (halted())
    return;
  ++ClausesEmitted;
  EmittedLiterals += Lits.size();
  if (EmittedLiterals > Limit.budget().MaxLiterals) {
    Stop = Reason::Memory;
    return;
  }
  S.addClause(std::span<const Lit>(Lits.begin(), Lits.size()));
  if (ClausesEmitted % ClausesPerPoll == 0)
    Stop = Limit.poll();
}

//===----------------------------------------------------------------------===//
// Gates
//===----------------------------------------------------------------------===//

BitBlaster::Gate &BitBlaster::gateSlot(Lit A, Lit B, Lit C) {
  // splitmix64's finalizer over the three inputs.
  uint64_t H = (uint64_t)(uint32_t)A << 32 | (uint32_t)B;
  H ^= (uint64_t)(uint32_t)C * 0x9e3779b97f4a7c15ull;
  H = (H ^ (H >> 30)) * 0xbf58476d1ce4e5b9ull;
  H = (H ^ (H >> 27)) * 0x94d049bb133111ebull;
  H ^= H >> 31;
  size_t Mask = Gates.size() - 1;
  for (size_t I = H & Mask;; I = (I + 1) & Mask) {
    Gate &G = Gates[I];
    if (G.Out < 0 || (G.In[0] == A && G.In[1] == B && G.In[2] == C))
      return G;
  }
}

std::pair<Lit, bool> BitBlaster::findOrAddGate(Lit A, Lit B, Lit C) {
  if (halted())
    return {falseLit(), true}; // a placeholder: emit nothing more
  if (Gates.empty())
    Gates.resize(FirstGateSlots);
  Gate *G = &gateSlot(A, B, C);
  if (G->Out >= 0) {
    ++GateHits;
    return {G->Out, true};
  }
  if (2 * ++NumGates > Gates.size()) {
    std::vector<Gate> Old(2 * Gates.size());
    Old.swap(Gates);
    for (const Gate &E : Old)
      if (E.Out >= 0)
        gateSlot(E.In[0], E.In[1], E.In[2]) = E;
    // A rehash is the longest stretch without a clause poll.
    if ((Stop = Limit.poll()) != Reason::None)
      return {falseLit(), true};
    G = &gateSlot(A, B, C);
  }
  *G = {{A, B, C}, fresh()};
  return {G->Out, false};
}

Lit BitBlaster::gateAnd(Lit A, Lit B) {
  if (A == TrueLit)
    return B;
  if (B == TrueLit)
    return A;
  if (A == falseLit() || B == falseLit())
    return falseLit();
  if (A == B)
    return A;
  if (A == negLit(B))
    return falseLit();
  // Canonical form: sorted inputs.
  if (A > B)
    std::swap(A, B);
  auto [R, Existed] = findOrAddGate(A, B, AndTag);
  if (!Existed) {
    clause({negLit(R), A});
    clause({negLit(R), B});
    clause({R, negLit(A), negLit(B)});
  }
  return R;
}

Lit BitBlaster::gateOr(Lit A, Lit B) {
  return negLit(gateAnd(negLit(A), negLit(B)));
}

Lit BitBlaster::gateXor(Lit A, Lit B) {
  if (A == TrueLit)
    return negLit(B);
  if (A == falseLit())
    return B;
  if (B == TrueLit)
    return negLit(A);
  if (B == falseLit())
    return A;
  if (A == B)
    return falseLit();
  if (A == negLit(B))
    return TrueLit;
  // Canonical form: positive sorted inputs, the parity on the output.
  bool Odd = litSign(A) != litSign(B);
  A = mkLit(litVar(A));
  B = mkLit(litVar(B));
  if (A > B)
    std::swap(A, B);
  auto [R, Existed] = findOrAddGate(A, B, XorTag);
  if (!Existed) {
    clause({negLit(R), A, B});
    clause({negLit(R), negLit(A), negLit(B)});
    clause({R, negLit(A), B});
    clause({R, A, negLit(B)});
  }
  return Odd ? negLit(R) : R;
}

Lit BitBlaster::gateIte(Lit C, Lit T, Lit F) {
  if (C == TrueLit)
    return T;
  if (C == falseLit())
    return F;
  if (T == F)
    return T;
  // Canonical form: a positive condition.
  if (litSign(C)) {
    C = negLit(C);
    std::swap(T, F);
  }
  // A constant arm, an arm tied to the condition or complementary arms make
  // the gate an OR, AND or XNOR, and it is hashed as that gate.
  if (T == TrueLit || T == C)
    return gateOr(C, F);
  if (T == falseLit() || T == negLit(C))
    return gateAnd(negLit(C), F);
  if (F == TrueLit || F == negLit(C))
    return gateOr(negLit(C), T);
  if (F == falseLit() || F == C)
    return gateAnd(C, T);
  if (T == negLit(F))
    return gateEq(C, T);
  auto [R, Existed] = findOrAddGate(C, T, F);
  if (!Existed) {
    clause({negLit(C), negLit(T), R});
    clause({negLit(C), T, negLit(R)});
    clause({C, negLit(F), R});
    clause({C, F, negLit(R)});
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Word-level circuits
//===----------------------------------------------------------------------===//

std::vector<Lit> BitBlaster::adder(const std::vector<Lit> &A,
                                   const std::vector<Lit> &B, Lit CarryIn) {
  assert(A.size() == B.size() && "adder width mismatch");
  std::vector<Lit> Sum(A.size());
  Lit Carry = CarryIn;
  for (size_t I = 0; I < A.size(); ++I) {
    Lit AxB = gateXor(A[I], B[I]);
    Sum[I] = gateXor(AxB, Carry);
    // Carry-out = majority(a, b, c) = (a & b) | (c & (a ^ b)).
    Carry = gateOr(gateAnd(A[I], B[I]), gateAnd(Carry, AxB));
  }
  return Sum;
}

std::vector<Lit> BitBlaster::negate(const std::vector<Lit> &A) {
  std::vector<Lit> NotA(A.size());
  for (size_t I = 0; I < A.size(); ++I)
    NotA[I] = negLit(A[I]);
  std::vector<Lit> Zero(A.size(), falseLit());
  return adder(NotA, Zero, TrueLit);
}

std::vector<Lit> BitBlaster::multiplier(const std::vector<Lit> &A,
                                        const std::vector<Lit> &B) {
  size_t W = A.size();
  std::vector<Lit> Acc(W, falseLit());
  for (size_t I = 0; I < W; ++I) {
    // Addend = (A << I) & B[I], truncated to W bits.
    std::vector<Lit> Addend(W, falseLit());
    bool AnyNonFalse = false;
    for (size_t J = I; J < W; ++J) {
      Addend[J] = gateAnd(A[J - I], B[I]);
      AnyNonFalse |= Addend[J] != falseLit();
    }
    if (AnyNonFalse)
      Acc = adder(Acc, Addend, falseLit());
  }
  return Acc;
}

void BitBlaster::divider(const std::vector<Lit> &A, const std::vector<Lit> &B,
                         std::vector<Lit> &Quot, std::vector<Lit> &Rem) {
  // Restoring division with a (W+1)-bit partial remainder so the shifted
  // value never overflows. SMT-LIB zero-divisor semantics fall out: with
  // B == 0 every step subtracts nothing and asserts a quotient bit.
  size_t W = A.size();
  std::vector<Lit> R(W + 1, falseLit());
  std::vector<Lit> BExt(B);
  BExt.push_back(falseLit());
  std::vector<Lit> NegBExt = negate(BExt);
  Quot.assign(W, falseLit());
  for (size_t Step = W; Step-- > 0;) {
    // R = (R << 1) | A[Step]
    for (size_t I = W; I > 0; --I)
      R[I] = R[I - 1];
    R[0] = A[Step];
    // Geq = R >= BExt  <=>  !(R < BExt)
    Lit Geq = negLit(comparatorUlt(R, BExt));
    // R = Geq ? R - BExt : R
    std::vector<Lit> Diff = adder(R, NegBExt, falseLit());
    R = mux(Geq, Diff, R);
    Quot[Step] = Geq;
  }
  Rem.assign(R.begin(), R.begin() + W);
}

std::vector<Lit> BitBlaster::shifter(const std::vector<Lit> &A,
                                     const std::vector<Lit> &B,
                                     Kind ShiftKind) {
  size_t W = A.size();
  Lit Fill = ShiftKind == Kind::AShr ? A[W - 1] : falseLit();
  std::vector<Lit> Cur(A);
  // Logarithmic barrel shifter over the meaningful low bits of B.
  size_t Stages = 0;
  while ((size_t(1) << Stages) < W)
    ++Stages;
  for (size_t Stage = 0; Stage < Stages; ++Stage) {
    size_t Sh = size_t(1) << Stage;
    std::vector<Lit> Shifted(W, Fill);
    for (size_t I = 0; I < W; ++I) {
      if (ShiftKind == Kind::Shl) {
        if (I >= Sh)
          Shifted[I] = Cur[I - Sh];
        else
          Shifted[I] = falseLit();
      } else {
        if (I + Sh < W)
          Shifted[I] = Cur[I + Sh];
      }
    }
    Cur = mux(B[Stage], Shifted, Cur);
  }
  // If any bit of B at position >= Stages is set, or the counted value is
  // >= W (when W is not a power of two), the result saturates to fill.
  Lit Big = falseLit();
  for (size_t I = Stages; I < B.size(); ++I)
    Big = gateOr(Big, B[I]);
  if ((size_t(1) << Stages) != W && Stages > 0) {
    // Compare the low Stages bits against W.
    std::vector<Lit> Low(B.begin(), B.begin() + Stages);
    std::vector<Lit> WConst(Stages);
    for (size_t I = 0; I < Stages; ++I)
      WConst[I] = (W >> I) & 1 ? TrueLit : falseLit();
    Big = gateOr(Big, negLit(comparatorUlt(Low, WConst)));
  }
  std::vector<Lit> FillVec(W, Fill);
  return mux(Big, FillVec, Cur);
}

Lit BitBlaster::comparatorUlt(const std::vector<Lit> &A,
                              const std::vector<Lit> &B) {
  assert(A.size() == B.size() && "comparator width mismatch");
  // From LSB to MSB: lt = (!a & b) | ((a == b) & ltPrev).
  Lit Lt = falseLit();
  for (size_t I = 0; I < A.size(); ++I) {
    Lit Less = gateAnd(negLit(A[I]), B[I]);
    Lit Same = gateEq(A[I], B[I]);
    Lt = gateOr(Less, gateAnd(Same, Lt));
  }
  return Lt;
}

std::vector<Lit> BitBlaster::mux(Lit C, const std::vector<Lit> &T,
                                 const std::vector<Lit> &F) {
  assert(T.size() == F.size() && "mux width mismatch");
  std::vector<Lit> R(T.size());
  for (size_t I = 0; I < T.size(); ++I)
    R[I] = gateIte(C, T[I], F[I]);
  return R;
}

Lit BitBlaster::equalVec(const std::vector<Lit> &A,
                         const std::vector<Lit> &B) {
  assert(A.size() == B.size() && "equality width mismatch");
  Lit R = TrueLit;
  for (size_t I = 0; I < A.size(); ++I)
    R = gateAnd(R, gateEq(A[I], B[I]));
  return R;
}

//===----------------------------------------------------------------------===//
// Expression translation
//===----------------------------------------------------------------------===//

void BitBlaster::assertTrue(Expr E) {
  // One span per asserted formula: CNF lowering of an assertion is the
  // unit of bit-blasting work worth attributing (per-node spans would
  // swamp the profile).
  prof::Span ProfSpan("bitblast");
  Lit L = blastBool(E);
  clause({L});
}

Lit BitBlaster::blastBool(Expr E) {
  assert(E.isBool() && "blastBool on a bit-vector");
  auto It = BoolCache.find(E.id());
  if (It != BoolCache.end()) {
    ++CacheHits;
    return It->second;
  }
  if (halted())
    return falseLit();
  const Node &N = E.node();
  Lit R;
  switch (N.K) {
  case Kind::ConstBool:
    R = N.P0 ? TrueLit : falseLit();
    break;
  case Kind::Var:
    R = fresh();
    Vars.push_back(E.id());
    break;
  case Kind::Not:
    R = negLit(blastBool(Expr(N.Ops[0])));
    break;
  case Kind::And:
    R = gateAnd(blastBool(Expr(N.Ops[0])), blastBool(Expr(N.Ops[1])));
    break;
  case Kind::Or:
    R = gateOr(blastBool(Expr(N.Ops[0])), blastBool(Expr(N.Ops[1])));
    break;
  case Kind::Xor:
    R = gateXor(blastBool(Expr(N.Ops[0])), blastBool(Expr(N.Ops[1])));
    break;
  case Kind::Ite:
    R = gateIte(blastBool(Expr(N.Ops[0])), blastBool(Expr(N.Ops[1])),
                blastBool(Expr(N.Ops[2])));
    break;
  case Kind::Eq: {
    Expr A(N.Ops[0]), B(N.Ops[1]);
    if (A.isBool())
      R = gateEq(blastBool(A), blastBool(B));
    else
      R = equalVec(blastBV(A), blastBV(B));
    break;
  }
  case Kind::Ult:
    R = comparatorUlt(blastBV(Expr(N.Ops[0])), blastBV(Expr(N.Ops[1])));
    break;
  case Kind::Slt: {
    // Signed comparison = unsigned with flipped sign bits.
    std::vector<Lit> A = blastBV(Expr(N.Ops[0]));
    std::vector<Lit> B = blastBV(Expr(N.Ops[1]));
    A.back() = negLit(A.back());
    B.back() = negLit(B.back());
    R = comparatorUlt(A, B);
    break;
  }
  case Kind::App:
    assert(false && "App nodes must be Ackermannized before blasting");
    R = falseLit();
    break;
  default:
    assert(false && "non-Bool node in blastBool");
    R = falseLit();
    break;
  }
  BoolCache[E.id()] = R;
  return R;
}

const std::vector<Lit> &BitBlaster::blastBV(Expr E) {
  assert(!E.isBool() && "blastBV on a Bool");
  auto It = BVCache.find(E.id());
  if (It != BVCache.end()) {
    ++CacheHits;
    return It->second;
  }
  const Node &N = E.node();
  if (halted())
    return BVCache[E.id()] = std::vector<Lit>(N.Width, falseLit());
  std::vector<Lit> R;
  auto bv = [this](ExprId Id) -> const std::vector<Lit> & {
    return blastBV(Expr(Id));
  };
  switch (N.K) {
  case Kind::ConstBV: {
    R.resize(N.Width);
    for (unsigned I = 0; I < N.Width; ++I)
      R[I] = N.Cst.bit(I) ? TrueLit : falseLit();
    break;
  }
  case Kind::Var: {
    R.resize(N.Width);
    for (unsigned I = 0; I < N.Width; ++I)
      R[I] = fresh();
    Vars.push_back(E.id());
    break;
  }
  case Kind::Ite:
    R = mux(blastBool(Expr(N.Ops[0])), bv(N.Ops[1]), bv(N.Ops[2]));
    break;
  case Kind::Add:
    R = adder(bv(N.Ops[0]), bv(N.Ops[1]), falseLit());
    break;
  case Kind::Mul:
    R = multiplier(bv(N.Ops[0]), bv(N.Ops[1]));
    break;
  case Kind::UDiv: {
    std::vector<Lit> Rem;
    divider(bv(N.Ops[0]), bv(N.Ops[1]), R, Rem);
    break;
  }
  case Kind::URem: {
    std::vector<Lit> Quot;
    divider(bv(N.Ops[0]), bv(N.Ops[1]), Quot, R);
    break;
  }
  case Kind::SDiv:
  case Kind::SRem: {
    const std::vector<Lit> &A = bv(N.Ops[0]);
    const std::vector<Lit> &B = bv(N.Ops[1]);
    Lit SA = A.back(), SB = B.back();
    std::vector<Lit> AbsA = mux(SA, negate(A), A);
    std::vector<Lit> AbsB = mux(SB, negate(B), B);
    std::vector<Lit> Q, Rm;
    divider(AbsA, AbsB, Q, Rm);
    if (N.K == Kind::SDiv) {
      Lit Diff = gateXor(SA, SB);
      R = mux(Diff, negate(Q), Q);
    } else {
      R = mux(SA, negate(Rm), Rm);
    }
    break;
  }
  case Kind::BAnd:
  case Kind::BOr:
  case Kind::BXor: {
    const std::vector<Lit> &A = bv(N.Ops[0]);
    const std::vector<Lit> &B = bv(N.Ops[1]);
    R.resize(N.Width);
    for (unsigned I = 0; I < N.Width; ++I) {
      if (N.K == Kind::BAnd)
        R[I] = gateAnd(A[I], B[I]);
      else if (N.K == Kind::BOr)
        R[I] = gateOr(A[I], B[I]);
      else
        R[I] = gateXor(A[I], B[I]);
    }
    break;
  }
  case Kind::BNot: {
    const std::vector<Lit> &A = bv(N.Ops[0]);
    R.resize(N.Width);
    for (unsigned I = 0; I < N.Width; ++I)
      R[I] = negLit(A[I]);
    break;
  }
  case Kind::Shl:
  case Kind::LShr:
  case Kind::AShr:
    R = shifter(bv(N.Ops[0]), bv(N.Ops[1]), N.K);
    break;
  case Kind::Concat: {
    const std::vector<Lit> &Hi = bv(N.Ops[0]);
    const std::vector<Lit> &Lo = bv(N.Ops[1]);
    R = Lo;
    R.insert(R.end(), Hi.begin(), Hi.end());
    break;
  }
  case Kind::Extract: {
    const std::vector<Lit> &A = bv(N.Ops[0]);
    R.assign(A.begin() + N.P0, A.begin() + N.P0 + N.P1);
    break;
  }
  case Kind::App:
    assert(false && "App nodes must be Ackermannized before blasting");
    R.assign(N.Width, falseLit());
    break;
  default:
    assert(false && "non-bit-vector node in blastBV");
    R.assign(N.Width, falseLit());
    break;
  }
  return BVCache[E.id()] = std::move(R);
}

BitVec BitBlaster::readVar(Expr Var) const {
  auto value = [this](Lit L) { return S.modelValue(litVar(L)) != litSign(L); };
  if (Var.isBool()) {
    auto It = BoolCache.find(Var.id());
    return BitVec(1, It != BoolCache.end() && value(It->second));
  }
  unsigned W = Var.width();
  BitVec R(W, 0);
  auto It = BVCache.find(Var.id());
  if (It == BVCache.end())
    return R;
  BitVec One(W, 1);
  for (unsigned I = 0; I < W; ++I)
    if (value(It->second[I]))
      R = R.bvor(One.shl(BitVec(W, I)));
  return R;
}
