//===- sema/Encoder.cpp - IR -> SMT function encoding ------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sema/Encoder.h"
#include "analysis/Cfg.h"
#include "support/Profile.h"
#include "support/Stats.h"

#include <cassert>
#include <map>

using namespace alive;
using namespace alive::sema;
using namespace alive::smt;
using namespace alive::ir;

namespace {

/// How read paths name the reader \p I: "%name", or the opcode of an
/// unnamed instruction, so that a ret in one block matches a ret in another.
std::string readerKey(const Instr &I) {
  if (!I.name().empty())
    return "%" + I.name();
  switch (I.kind()) {
  case ValueKind::Ret:
    return "ret";
  case ValueKind::Br:
    return "br";
  case ValueKind::Switch:
    return "switch";
  case ValueKind::Store:
    return "store";
  case ValueKind::Call:
    return "call";
  default:
    return "instr";
  }
}

/// Lane width in the SMT encoding (pointers widen to bid+offset bits).
unsigned laneWidth(const MemoryLayout &L, const Type *Ty) {
  return Ty->isPtr() ? L.ptrBits() : Ty->bitWidth();
}

//===----------------------------------------------------------------------===//
// Floating-point helpers (bit-pattern semantics, Section 3.5)
//===----------------------------------------------------------------------===//

struct FloatSema {
  unsigned W;    // total width (32/64)
  unsigned ExpW; // exponent width
  unsigned ManW; // mantissa width

  explicit FloatSema(const Type *Ty) {
    W = Ty->bitWidth();
    ExpW = Ty->isFloat() ? 8 : 11;
    ManW = W - 1 - ExpW;
  }

  Expr sign(Expr V) const { return mkExtract(V, W - 1, 1); }
  Expr expo(Expr V) const { return mkExtract(V, ManW, ExpW); }
  Expr mant(Expr V) const { return mkExtract(V, 0, ManW); }
  Expr isNaN(Expr V) const {
    return mkAnd(mkEq(expo(V), mkBV(BitVec::allOnes(ExpW))),
                 mkNe(mant(V), mkBV(ManW, 0)));
  }
  Expr isInf(Expr V) const {
    return mkAnd(mkEq(expo(V), mkBV(BitVec::allOnes(ExpW))),
                 mkEq(mant(V), mkBV(ManW, 0)));
  }
  Expr isZero(Expr V) const {
    return mkEq(mkExtract(V, 0, W - 1), mkBV(W - 1, 0));
  }
  Expr posZero() const { return mkBV(W, 0); }
  Expr negZero() const {
    return mkBV(BitVec(W, 1).shl(BitVec(W, W - 1)));
  }
  /// Canonical quiet NaN (positive, top mantissa bit set).
  Expr quietNaN() const {
    BitVec Exp = BitVec::allOnes(ExpW).zext(W).shl(BitVec(W, ManW));
    BitVec Quiet = BitVec(W, 1).shl(BitVec(W, ManW - 1));
    return mkBV(Exp.bvor(Quiet));
  }
  Expr negate(Expr V) const {
    return mkBVXor(V, mkBV(BitVec(W, 1).shl(BitVec(W, W - 1))));
  }
  /// Total-order key: flips so that olt maps to signed compare.
  Expr orderKey(Expr V) const {
    Expr SignSet = mkEq(sign(V), mkBV(1, 1));
    Expr Flipped = mkBVNot(V);
    Expr SetTop = mkBVOr(V, mkBV(BitVec(W, 1).shl(BitVec(W, W - 1))));
    // Negative values reverse order; positives shift above them.
    return mkIte(SignSet, Flipped, SetTop);
  }
  Expr olt(Expr A, Expr B) const {
    Expr Cmp = mkUlt(orderKey(A), orderKey(B));
    Expr BothZero = mkAnd(isZero(A), isZero(B));
    return mkAnd(mkNot(mkOr(isNaN(A), isNaN(B))),
                 mkAnd(mkNot(BothZero), Cmp));
  }
  Expr oeq(Expr A, Expr B) const {
    Expr BothZero = mkAnd(isZero(A), isZero(B));
    return mkAnd(mkNot(mkOr(isNaN(A), isNaN(B))),
                 mkOr(mkEq(A, B), BothZero));
  }
};

//===----------------------------------------------------------------------===//
// Encoder
//===----------------------------------------------------------------------===//

class Encoder {
public:
  Encoder(const Function &F, const MemoryLayout &L,
          const std::unordered_set<const BasicBlock *> &Sinks,
          const EncodeOptions &Opts)
      : F(F), L(L), Sinks(Sinks), Opts(Opts), Bytes(L) {}

  FunctionEncoding run();

private:
  const Function &F;
  const MemoryLayout &L;
  const std::unordered_set<const BasicBlock *> &Sinks;
  const EncodeOptions &Opts;
  ByteOps Bytes;

  FunctionEncoding Out;
  std::shared_ptr<Memory> Mem;
  unsigned LocalCounter = 0;
  unsigned CallCounter = 0;

  /// An undef instance a read of the template refreshes, and its path.
  struct Refresh {
    Expr Var;
    unsigned Path;
  };
  struct Template {
    EncodedValue V;
    std::vector<Refresh> RefreshVars;
  };
  std::unordered_map<const Value *, Template> Regs;
  std::unordered_map<const BasicBlock *, Expr> Dom;
  /// Per-edge condition (Pred, Succ) -> Bool (without Dom(Pred)).
  std::map<std::pair<const BasicBlock *, const BasicBlock *>, Expr> EdgeCond;

  /// The key id of the instruction being encoded, as read paths name it.
  unsigned ReaderKey = ReadPaths::None;

  Expr freshNondet(const std::string &What, unsigned Width, unsigned Path) {
    Expr V = mkFreshVar(Opts.Tag + "." + What, Width);
    Out.NondetVars.insert(V.id());
    Out.NondetOrder.push_back(V);
    Out.NondetPaths.push_back(Path);
    return V;
  }
  /// A choice made by the instruction being encoded (\p S names which).
  Expr freshChoice(const std::string &What, unsigned Width,
                   ReadPaths::Step S) {
    return freshNondet(What, Width,
                       Out.Paths.intern(ReadPaths::None, S, ReaderKey));
  }
  void addUB(Expr DomE, Expr Cond) {
    if (Opts.IgnoreUB)
      return;
    ALIVE_STAT_COUNTER(UbConds, "encode.ub_conditions");
    UbConds.inc();
    Out.UB = mkOr(Out.UB, mkAnd(DomE, Cond));
  }
  void markApprox(const std::string &FnName) {
    ALIVE_STAT_COUNTER(Approx, "encode.approx_marks");
    Approx.inc();
    Out.ApproxFnNames.insert(FnName);
  }

  /// Section 3.6/3.7: once UB-on-undef has been recorded for this operand
  /// (branch condition, dereferenced pointer, divisor), the remaining
  /// executions have its isundef flags false, so the value expression can
  /// be simplified under that assumption. This keeps addresses syntactic
  /// so store chains fold.
  Expr assumeNotUndef(Expr Val) {
    std::unordered_set<ExprId> Vars;
    collectVars(Val, Vars);
    std::unordered_map<ExprId, Expr> Map;
    for (ExprId V : Vars) {
      Expr Var(V);
      const std::string &Name = Var.node().Name;
      if (Var.isBool() && Name.size() > 6 &&
          Name.compare(Name.size() - 6, 6, ".undef") == 0)
        Map[V] = mkFalse();
    }
    return Map.empty() ? Val : substitute(Val, Map);
  }

  /// Reads an operand, refreshing its undef instances (Section 3.3).
  EncodedValue read(const Value *V, std::vector<Refresh> *FreshOut = nullptr);
  Template encodeConstant(const Value *V);
  Template encodeArgument(const Argument *A, unsigned Index);

  void encodeBlock(const BasicBlock *BB, const analysis::Cfg &G);
  Template encodeInstr(const Instr &I, Expr DomE);
  StateValue encodeBinOpLane(const BinOp &B, const StateValue &A,
                             const StateValue &Bv, Expr DomE,
                             const Type *LaneTy);
  StateValue encodeFBinOpLane(const FBinOp &B, const StateValue &A,
                              const StateValue &Bv, const Type *LaneTy);
  StateValue encodeICmpLane(ICmp::Pred P, const StateValue &A,
                            const StateValue &Bv, const Type *OpLaneTy);
  StateValue encodeFCmpLane(FCmp::Pred P, const StateValue &A,
                            const StateValue &Bv, const Type *OpLaneTy);
  Template encodeCall(const Call &C, Expr DomE);
  Template encodeLoad(const Load &Ld, Expr DomE);
  void encodeStore(const Store &St, Expr DomE);

  Expr mergeByDomain(Expr Base,
                     const std::vector<std::pair<Expr, Expr>> &Cases) {
    Expr R = Base;
    for (const auto &[Cond, Val] : Cases)
      R = mkIte(Cond, Val, R);
    return R;
  }
};

//===----------------------------------------------------------------------===//
// Operand reading
//===----------------------------------------------------------------------===//

EncodedValue Encoder::read(const Value *V, std::vector<Refresh> *FreshOut) {
  auto It = Regs.find(V);
  if (It == Regs.end()) {
    assert(!V->isInstr() && "instruction read before encoding (not RPO?)");
    Regs[V] = encodeConstant(V);
    It = Regs.find(V);
  }
  const Template &T = It->second;
  if (T.RefreshVars.empty() || Opts.IgnoreUB)
    return T.V;
  // Substitute every undef instance with a fresh variable: each observation
  // of an undef value may differ (Section 3.3). The read extends the path
  // of the instance it refreshes; a read of an undef constant is a root
  // keyed by its reader.
  bool OfConstant = !V->isInstr() && V->kind() != ValueKind::Argument;
  std::unordered_map<ExprId, Expr> Map;
  for (const auto &[Old, OldPath] : T.RefreshVars) {
    unsigned Path =
        OfConstant ? Out.Paths.intern(ReadPaths::None, ReadPaths::Step::Undef,
                                      ReaderKey)
                   : Out.Paths.intern(OldPath, ReadPaths::Step::Read,
                                      ReaderKey);
    Expr Fresh = freshNondet("undef", Old.isBool() ? 0 : Old.width(), Path);
    Map[Old.id()] = Fresh;
    if (FreshOut)
      FreshOut->push_back({Fresh, Path});
  }
  EncodedValue R = T.V;
  for (StateValue &SV : R.Elems) {
    SV.Val = substitute(SV.Val, Map);
    SV.NonPoison = substitute(SV.NonPoison, Map);
    SV.IsUndef = substitute(SV.IsUndef, Map);
  }
  return R;
}

Encoder::Template Encoder::encodeConstant(const Value *V) {
  Template T;
  const Type *Ty = V->type();
  switch (V->kind()) {
  case ValueKind::ConstInt:
    T.V.Elems.push_back(StateValue::defined(mkBV(cast<ConstInt>(V)->value())));
    return T;
  case ValueKind::ConstFP:
    T.V.Elems.push_back(StateValue::defined(mkBV(cast<ConstFP>(V)->bits())));
    return T;
  case ValueKind::ConstNull:
    T.V.Elems.push_back(StateValue::defined(L.nullPtr()));
    return T;
  case ValueKind::Undef: {
    for (unsigned I = 0; I < numLanes(Ty); ++I) {
      Expr U = freshChoice("undef", laneWidth(L, laneType(Ty, I)),
                           ReadPaths::Step::Undef);
      T.V.Elems.push_back(StateValue(U, mkTrue(), mkTrue()));
      T.RefreshVars.push_back({U, Out.NondetPaths.back()});
    }
    return T;
  }
  case ValueKind::Poison: {
    for (unsigned I = 0; I < numLanes(Ty); ++I)
      T.V.Elems.push_back(StateValue::poison(laneWidth(L, laneType(Ty, I))));
    return T;
  }
  case ValueKind::ConstAggregate: {
    for (Value *E : cast<ConstAggregate>(V)->elements()) {
      Template ET = encodeConstant(E);
      for (StateValue &SV : ET.V.Elems)
        T.V.Elems.push_back(SV);
      for (const Refresh &R : ET.RefreshVars)
        T.RefreshVars.push_back(R);
    }
    return T;
  }
  case ValueKind::GlobalVar: {
    const MemoryLayout::Block *B = L.globalBlock(V->name());
    assert(B && "global missing from the layout");
    T.V.Elems.push_back(StateValue::defined(L.makePtr(B->Bid, 0)));
    return T;
  }
  default:
    assert(false && "unexpected constant kind");
    return T;
  }
}

Encoder::Template Encoder::encodeArgument(const Argument *A, unsigned Index) {
  Template T;
  const Type *Ty = A->type();
  for (unsigned Lane = 0; Lane < numLanes(Ty); ++Lane) {
    const Type *LT = laneType(Ty, Lane);
    unsigned W = laneWidth(L, LT);
    std::string Base = "in." + std::to_string(Index) + "." +
                       std::to_string(Lane);
    Expr Val = mkVar(Base, W);
    if (Opts.IgnoreUB) {
      // Baseline mode: plain shared value, no deferred UB.
      T.V.Elems.push_back(StateValue::defined(Val));
      continue;
    }
    Expr IsPoison = mkVar(Base + ".poison", 0);
    Expr IsUndef = mkVar(Base + ".undef", 0);
    std::string Root = "%" + A->name();
    if (numLanes(Ty) > 1)
      Root += "[" + std::to_string(Lane) + "]";
    unsigned Path = Out.Paths.intern(ReadPaths::None, ReadPaths::Step::Read,
                                     Out.Paths.internKey(Root));
    Expr UndefInst = freshNondet("undef", W, Path);
    T.RefreshVars.push_back({UndefInst, Path});
    StateValue SV(mkIte(IsUndef, UndefInst, Val), mkNot(IsPoison), IsUndef);
    T.V.Elems.push_back(SV);

    if (LT->isPtr()) {
      // Argument pointers reference null or non-local blocks only.
      Out.Pre = mkAnd(Out.Pre, L.isNonLocalOrNull(L.ptrBid(Val)));
      if (A->isNonNull())
        Out.Pre = mkAnd(Out.Pre, mkNe(Val, L.nullPtr()));
    }
    if (A->isNoUndef())
      addUB(mkTrue(), mkOr(IsPoison, IsUndef));
  }
  return T;
}

//===----------------------------------------------------------------------===//
// Lanes: integer binops
//===----------------------------------------------------------------------===//

StateValue Encoder::encodeBinOpLane(const BinOp &B, const StateValue &A,
                                    const StateValue &Bv, Expr DomE,
                                    const Type *LaneTy) {
  unsigned W = LaneTy->bitWidth();
  Expr Av = A.Val, BvV = Bv.Val;
  Expr NP = mkAnd(A.NonPoison, Bv.NonPoison);
  Expr Undef = mkOr(A.IsUndef, Bv.IsUndef);
  BinOp::Flags Fl = B.flags();
  Expr Val;
  switch (B.getOp()) {
  case BinOp::Op::Add:
    Val = mkAdd(Av, BvV);
    if (Fl.NSW)
      NP = mkAnd(NP, mkNot(mkSAddOverflow(Av, BvV)));
    if (Fl.NUW)
      NP = mkAnd(NP, mkNot(mkUAddOverflow(Av, BvV)));
    break;
  case BinOp::Op::Sub:
    Val = mkSub(Av, BvV);
    if (Fl.NSW)
      NP = mkAnd(NP, mkNot(mkSSubOverflow(Av, BvV)));
    if (Fl.NUW)
      NP = mkAnd(NP, mkNot(mkUSubOverflow(Av, BvV)));
    break;
  case BinOp::Op::Mul:
    Val = mkMul(Av, BvV);
    if (Fl.NSW)
      NP = mkAnd(NP, mkNot(mkSMulOverflow(Av, BvV)));
    if (Fl.NUW)
      NP = mkAnd(NP, mkNot(mkUMulOverflow(Av, BvV)));
    break;
  case BinOp::Op::UDiv:
  case BinOp::Op::SDiv:
  case BinOp::Op::URem:
  case BinOp::Op::SRem: {
    bool Signed = B.getOp() == BinOp::Op::SDiv || B.getOp() == BinOp::Op::SRem;
    // Division by zero (or by a divisor that may be zero via undef, or by
    // poison) is immediate UB (Figure 3); signed overflow too.
    Expr DivUB = mkOr(mkNot(Bv.NonPoison),
                      mkOr(mkEq(BvV, mkBV(W, 0)), Bv.IsUndef));
    if (Signed)
      DivUB = mkOr(DivUB,
                   mkAnd(A.NonPoison,
                         mkAnd(mkEq(Av, mkBV(BitVec::signedMin(W))),
                               mkEq(BvV, mkBV(BitVec::allOnes(W))))));
    addUB(DomE, DivUB);
    switch (B.getOp()) {
    case BinOp::Op::UDiv:
      Val = mkUDiv(Av, BvV);
      if (Fl.Exact)
        NP = mkAnd(NP, mkEq(mkURem(Av, BvV), mkBV(W, 0)));
      break;
    case BinOp::Op::SDiv:
      Val = mkSDiv(Av, BvV);
      if (Fl.Exact)
        NP = mkAnd(NP, mkEq(mkSRem(Av, BvV), mkBV(W, 0)));
      break;
    case BinOp::Op::URem:
      Val = mkURem(Av, BvV);
      break;
    default:
      Val = mkSRem(Av, BvV);
      break;
    }
    break;
  }
  case BinOp::Op::Shl: {
    Val = mkShl(Av, BvV);
    NP = mkAnd(NP, mkUlt(BvV, mkBV(W, W)));
    if (Fl.NSW)
      NP = mkAnd(NP, mkEq(mkAShr(Val, BvV), Av));
    if (Fl.NUW)
      NP = mkAnd(NP, mkEq(mkLShr(Val, BvV), Av));
    break;
  }
  case BinOp::Op::LShr:
    Val = mkLShr(Av, BvV);
    NP = mkAnd(NP, mkUlt(BvV, mkBV(W, W)));
    if (Fl.Exact)
      NP = mkAnd(NP, mkEq(mkShl(Val, BvV), Av));
    break;
  case BinOp::Op::AShr:
    Val = mkAShr(Av, BvV);
    NP = mkAnd(NP, mkUlt(BvV, mkBV(W, W)));
    if (Fl.Exact)
      NP = mkAnd(NP, mkEq(mkShl(Val, BvV), Av));
    break;
  case BinOp::Op::And:
    Val = mkBVAnd(Av, BvV);
    break;
  case BinOp::Op::Or:
    Val = mkBVOr(Av, BvV);
    break;
  case BinOp::Op::Xor:
    Val = mkBVXor(Av, BvV);
    break;
  }
  if (Opts.IgnoreUB)
    return StateValue::defined(Val);
  return {Val, NP, Undef};
}

//===----------------------------------------------------------------------===//
// Lanes: FP
//===----------------------------------------------------------------------===//

StateValue Encoder::encodeFBinOpLane(const FBinOp &B, const StateValue &A,
                                     const StateValue &Bv,
                                     const Type *LaneTy) {
  FloatSema FS(LaneTy);
  unsigned W = FS.W;
  Expr Av = A.Val, BvV = Bv.Val;
  Expr NP = mkAnd(A.NonPoison, Bv.NonPoison);
  Expr Undef = mkOr(A.IsUndef, Bv.IsUndef);
  std::string Suffix = (LaneTy->isFloat() ? std::string("f32")
                                          : std::string("f64"));

  auto ufName = [&](const char *Op) { return std::string(Op) + "." + Suffix; };
  auto uf = [&](const char *Op) {
    Expr R = mkApp(ufName(Op), W, {Av, BvV});
    markApprox(ufName(Op));
    return R;
  };
  Expr AnyNaN = mkOr(FS.isNaN(Av), FS.isNaN(BvV));

  Expr Val;
  switch (B.getOp()) {
  case FBinOp::Op::FSub:
    // a - b == a + (-b) exactly in IEEE-754.
    BvV = FS.negate(BvV);
    [[fallthrough]];
  case FBinOp::Op::FAdd: {
    // Exact identities: x + (+/-0) and the zero-sign table; the general
    // case is an uninterpreted rounding with a NaN-propagation axiom.
    Expr SameSign = mkEq(FS.sign(Av), FS.sign(BvV));
    Expr ZeroSum = mkIte(SameSign, Av, FS.posZero());
    Val = mkIte(
        AnyNaN, FS.quietNaN(),
        mkIte(mkAnd(FS.isZero(Av), FS.isZero(BvV)), ZeroSum,
              mkIte(FS.isZero(BvV), Av,
                    mkIte(FS.isZero(Av), BvV, uf("fadd")))));
    break;
  }
  case FBinOp::Op::FMul: {
    Expr ResSign = mkBVXor(FS.sign(Av), FS.sign(BvV));
    Expr SignedZero =
        mkIte(mkEq(ResSign, mkBV(1, 1)), FS.negZero(), FS.posZero());
    Expr ZeroTimesInf = mkOr(mkAnd(FS.isZero(Av), FS.isInf(BvV)),
                             mkAnd(FS.isInf(Av), FS.isZero(BvV)));
    Expr One = mkBV(ConstFP::encode(LaneTy, 1.0));
    Val = mkIte(
        mkOr(AnyNaN, ZeroTimesInf), FS.quietNaN(),
        mkIte(mkOr(FS.isZero(Av), FS.isZero(BvV)), SignedZero,
              mkIte(mkEq(BvV, One), Av,
                    mkIte(mkEq(Av, One), BvV, uf("fmul")))));
    break;
  }
  case FBinOp::Op::FDiv: {
    Expr ResSign = mkBVXor(FS.sign(Av), FS.sign(BvV));
    Expr SignedZero =
        mkIte(mkEq(ResSign, mkBV(1, 1)), FS.negZero(), FS.posZero());
    Expr ZeroOverZero = mkAnd(FS.isZero(Av), FS.isZero(BvV));
    Expr One = mkBV(ConstFP::encode(LaneTy, 1.0));
    Val = mkIte(mkOr(AnyNaN, ZeroOverZero), FS.quietNaN(),
                mkIte(mkAnd(FS.isZero(Av), mkNot(FS.isZero(BvV))), SignedZero,
                      mkIte(mkEq(BvV, One), Av, uf("fdiv"))));
    break;
  }
  case FBinOp::Op::FRem:
    Val = mkIte(AnyNaN, FS.quietNaN(), uf("frem"));
    break;
  }

  FastMathFlags FMF = B.fmf();
  if (FMF.NNan)
    NP = mkAnd(NP, mkAnd(mkNot(AnyNaN), mkNot(FS.isNaN(Val))));
  if (FMF.NInf)
    NP = mkAnd(NP, mkAnd(mkNot(mkOr(FS.isInf(Av), FS.isInf(BvV))),
                         mkNot(FS.isInf(Val))));
  if (FMF.NSZ) {
    // The sign of a zero result is chosen nondeterministically.
    Expr Pick = freshChoice("nsz", 0, ReadPaths::Step::Nsz);
    Val = mkIte(FS.isZero(Val), mkIte(Pick, FS.posZero(), FS.negZero()), Val);
  }
  if (Opts.IgnoreUB)
    return StateValue::defined(Val);
  return {Val, NP, Undef};
}

StateValue Encoder::encodeICmpLane(ICmp::Pred P, const StateValue &A,
                                   const StateValue &Bv,
                                   const Type *OpLaneTy) {
  Expr Av = A.Val, BvV = Bv.Val;
  Expr R;
  switch (P) {
  case ICmp::Pred::EQ:
    R = mkEq(Av, BvV);
    break;
  case ICmp::Pred::NE:
    R = mkNe(Av, BvV);
    break;
  case ICmp::Pred::UGT:
    R = mkUgt(Av, BvV);
    break;
  case ICmp::Pred::UGE:
    R = mkUge(Av, BvV);
    break;
  case ICmp::Pred::ULT:
    R = mkUlt(Av, BvV);
    break;
  case ICmp::Pred::ULE:
    R = mkUle(Av, BvV);
    break;
  case ICmp::Pred::SGT:
    R = mkSgt(Av, BvV);
    break;
  case ICmp::Pred::SGE:
    R = mkSge(Av, BvV);
    break;
  case ICmp::Pred::SLT:
    R = mkSlt(Av, BvV);
    break;
  case ICmp::Pred::SLE:
    R = mkSle(Av, BvV);
    break;
  }
  return {mkBoolToBV1(R), mkAnd(A.NonPoison, Bv.NonPoison),
          mkOr(A.IsUndef, Bv.IsUndef)};
}

StateValue Encoder::encodeFCmpLane(FCmp::Pred P, const StateValue &A,
                                   const StateValue &Bv,
                                   const Type *OpLaneTy) {
  FloatSema FS(OpLaneTy);
  Expr Av = A.Val, BvV = Bv.Val;
  Expr Unordered = mkOr(FS.isNaN(Av), FS.isNaN(BvV));
  Expr R;
  switch (P) {
  case FCmp::Pred::OEQ:
    R = FS.oeq(Av, BvV);
    break;
  case FCmp::Pred::OGT:
    R = FS.olt(BvV, Av);
    break;
  case FCmp::Pred::OGE:
    R = mkOr(FS.olt(BvV, Av), FS.oeq(Av, BvV));
    break;
  case FCmp::Pred::OLT:
    R = FS.olt(Av, BvV);
    break;
  case FCmp::Pred::OLE:
    R = mkOr(FS.olt(Av, BvV), FS.oeq(Av, BvV));
    break;
  case FCmp::Pred::ONE:
    R = mkAnd(mkNot(Unordered), mkNot(FS.oeq(Av, BvV)));
    break;
  case FCmp::Pred::ORD:
    R = mkNot(Unordered);
    break;
  case FCmp::Pred::UEQ:
    R = mkOr(Unordered, FS.oeq(Av, BvV));
    break;
  case FCmp::Pred::UGT:
    R = mkOr(Unordered, FS.olt(BvV, Av));
    break;
  case FCmp::Pred::UGE:
    R = mkOr(Unordered, mkOr(FS.olt(BvV, Av), FS.oeq(Av, BvV)));
    break;
  case FCmp::Pred::ULT:
    R = mkOr(Unordered, FS.olt(Av, BvV));
    break;
  case FCmp::Pred::ULE:
    R = mkOr(Unordered, mkOr(FS.olt(Av, BvV), FS.oeq(Av, BvV)));
    break;
  case FCmp::Pred::UNE:
    R = mkOr(Unordered, mkNot(FS.oeq(Av, BvV)));
    break;
  case FCmp::Pred::UNO:
    R = Unordered;
    break;
  }
  return {mkBoolToBV1(R), mkAnd(A.NonPoison, Bv.NonPoison),
          mkOr(A.IsUndef, Bv.IsUndef)};
}

//===----------------------------------------------------------------------===//
// Calls (Section 6): uninterpreted outputs keyed by (version, args)
//===----------------------------------------------------------------------===//

/// Known pure intrinsics with exact semantics (the supported-intrinsics
/// table of Section 3.8, scaled down).
static bool isKnownIntrinsic(const std::string &Name) {
  static const char *Known[] = {
      "llvm.smax",     "llvm.smin",     "llvm.umax",     "llvm.umin",
      "llvm.abs",      "llvm.ctpop",    "llvm.bswap",    "llvm.sadd.sat",
      "llvm.uadd.sat", "llvm.ssub.sat", "llvm.usub.sat",
      "llvm.sadd.with.overflow", "llvm.uadd.with.overflow",
      "llvm.smul.with.overflow"};
  for (const char *K : Known)
    if (Name.rfind(K, 0) == 0)
      return true;
  return false;
}

/// Memory intrinsics with exact Section 4 semantics for constant lengths.
static bool isMemIntrinsic(const std::string &Name) {
  return Name.rfind("llvm.memset", 0) == 0 ||
         Name.rfind("llvm.memcpy", 0) == 0;
}

Encoder::Template Encoder::encodeCall(const Call &C, Expr DomE) {
  Template T;
  const Type *RetTy = C.type();
  const std::string &Callee = C.callee();

  // Memory intrinsics: expanded to byte stores when the length is a
  // literal constant; otherwise over-approximated like any unknown
  // intrinsic (Section 3.8).
  if (isMemIntrinsic(Callee)) {
    auto *Len = dyn_cast<ConstInt>(C.op(2));
    if (Len && Len->value().fitsU64() && Len->value().low64() <= 64) {
      uint64_t N = Len->value().low64();
      std::vector<Expr> Fresh;
      EncodedValue DstV = read(C.op(0), &T.RefreshVars);
      const StateValue &Dst = DstV.scalar();
      addUB(DomE, mkOr(mkOr(mkNot(Dst.NonPoison), Dst.IsUndef),
                       mkNot(Mem->accessOk(Dst.Val, (unsigned)N,
                                           /*IsWrite=*/true))));
      Expr DstAddr = assumeNotUndef(Dst.Val);
      if (Callee.rfind("llvm.memset", 0) == 0) {
        EncodedValue ValV = read(C.op(1), &T.RefreshVars);
        const StateValue &V = ValV.scalar();
        Expr Byte = Bytes.packIntByte(
            mkTrunc(V.Val, 8),
            mkIte(V.NonPoison, mkBV(8, 0), mkBV(BitVec::allOnes(8))));
        for (uint64_t I = 0; I < N; ++I)
          Mem->storeByte(DomE, Mem->byteAddr(DstAddr, (unsigned)I), Byte);
      } else {
        EncodedValue SrcV = read(C.op(1), &T.RefreshVars);
        const StateValue &Sp = SrcV.scalar();
        addUB(DomE, mkOr(mkOr(mkNot(Sp.NonPoison), Sp.IsUndef),
                         mkNot(Mem->accessOk(Sp.Val, (unsigned)N,
                                             /*IsWrite=*/false))));
        Expr SrcAddr = assumeNotUndef(Sp.Val);
        // Read all source bytes first: memcpy regions must not overlap
        // (overlap is UB in LLVM; we copy-then-write which over-defines
        // the overlapping case rather than flagging it -- documented).
        std::vector<Expr> Copied;
        for (uint64_t I = 0; I < N; ++I)
          Copied.push_back(
              Mem->loadByte(Mem->byteAddr(SrcAddr, (unsigned)I)));
        for (uint64_t I = 0; I < N; ++I)
          Mem->storeByte(DomE, Mem->byteAddr(DstAddr, (unsigned)I),
                         Copied[I]);
      }
      Expr Bid = L.ptrBid(DstAddr);
      BitVec BidC;
      bool StaticLocal =
          Bid.getConst(BidC) && BidC.low64() >= L.firstLocalBid();
      if (!StaticLocal)
        Mem->bumpVersion(DomE);
      return T;
    }
    // Fall through to the unknown-intrinsic over-approximation below.
  }

  // Exact semantics for the supported intrinsics.
  if (isKnownIntrinsic(Callee)) {
    std::vector<EncodedValue> Args;
    for (unsigned I = 0; I < C.numOps(); ++I)
      Args.push_back(read(C.op(I), &T.RefreshVars));
    const StateValue &A = Args[0].scalar();
    Expr NP = A.NonPoison;
    Expr Undef = A.IsUndef;
    Expr Val;
    if (Callee.rfind("llvm.ctpop", 0) == 0) {
      unsigned W = A.Val.width();
      Val = mkBV(W, 0);
      for (unsigned I = 0; I < W; ++I)
        Val = mkAdd(Val, mkZExt(mkExtract(A.Val, I, 1), W));
    } else if (Callee.rfind("llvm.bswap", 0) == 0) {
      unsigned W = A.Val.width();
      Val = mkExtract(A.Val, W - 8, 8);
      for (unsigned I = 1; I < W / 8; ++I)
        Val = mkConcat(mkExtract(A.Val, W - 8 * (I + 1), 8), Val);
    } else if (Callee.rfind("llvm.abs", 0) == 0) {
      Val = mkIte(mkSlt(A.Val, mkBV(A.Val.width(), 0)), mkNeg(A.Val), A.Val);
    } else {
      const StateValue &B = Args[1].scalar();
      NP = mkAnd(NP, B.NonPoison);
      Undef = mkOr(Undef, B.IsUndef);
      unsigned W = A.Val.width();
      if (Callee.rfind("llvm.smax", 0) == 0) {
        Val = mkIte(mkSgt(A.Val, B.Val), A.Val, B.Val);
      } else if (Callee.rfind("llvm.smin", 0) == 0) {
        Val = mkIte(mkSlt(A.Val, B.Val), A.Val, B.Val);
      } else if (Callee.rfind("llvm.umax", 0) == 0) {
        Val = mkIte(mkUgt(A.Val, B.Val), A.Val, B.Val);
      } else if (Callee.rfind("llvm.umin", 0) == 0) {
        Val = mkIte(mkUlt(A.Val, B.Val), A.Val, B.Val);
      } else if (Callee.rfind("llvm.sadd.sat", 0) == 0) {
        Expr Sum = mkAdd(A.Val, B.Val);
        Expr Ov = mkSAddOverflow(A.Val, B.Val);
        Expr Sat = mkIte(mkSignBit(A.Val), mkBV(BitVec::signedMin(W)),
                         mkBV(BitVec::signedMax(W)));
        Val = mkIte(Ov, Sat, Sum);
      } else if (Callee.rfind("llvm.uadd.sat", 0) == 0) {
        Expr Sum = mkAdd(A.Val, B.Val);
        Val = mkIte(mkUAddOverflow(A.Val, B.Val),
                    mkBV(BitVec::allOnes(W)), Sum);
      } else if (Callee.rfind("llvm.ssub.sat", 0) == 0) {
        Expr Diff = mkSub(A.Val, B.Val);
        Expr Ov = mkSSubOverflow(A.Val, B.Val);
        Expr Sat = mkIte(mkSignBit(A.Val), mkBV(BitVec::signedMin(W)),
                         mkBV(BitVec::signedMax(W)));
        Val = mkIte(Ov, Sat, Diff);
      } else if (Callee.rfind("llvm.usub.sat", 0) == 0) {
        Val = mkIte(mkUlt(A.Val, B.Val), mkBV(W, 0), mkSub(A.Val, B.Val));
      } else if (Callee.rfind("llvm.sadd.with.overflow", 0) == 0 ||
                 Callee.rfind("llvm.uadd.with.overflow", 0) == 0 ||
                 Callee.rfind("llvm.smul.with.overflow", 0) == 0) {
        // Aggregate {iN, i1} result: value lane then overflow-flag lane.
        bool Mul = Callee.rfind("llvm.smul", 0) == 0;
        bool Signed = Callee.rfind("llvm.u", 0) != 0;
        Expr Res = Mul ? mkMul(A.Val, B.Val) : mkAdd(A.Val, B.Val);
        Expr Ov = Mul ? mkSMulOverflow(A.Val, B.Val)
                      : (Signed ? mkSAddOverflow(A.Val, B.Val)
                                : mkUAddOverflow(A.Val, B.Val));
        T.V.Elems.push_back(Opts.IgnoreUB
                                ? StateValue::defined(Res)
                                : StateValue(Res, NP, Undef));
        T.V.Elems.push_back(
            Opts.IgnoreUB
                ? StateValue::defined(mkBoolToBV1(Ov))
                : StateValue(mkBoolToBV1(Ov), NP, Undef));
        return T;
      } else {
        Val = mkIte(mkUlt(A.Val, B.Val), A.Val, B.Val);
      }
    }
    T.V.Elems.push_back(Opts.IgnoreUB ? StateValue::defined(Val)
                                      : StateValue(Val, NP, Undef));
    return T;
  }

  // Unknown functions (and unsupported intrinsics, which additionally get
  // the over-approximation tag of Section 3.8).
  bool Unsupported = Callee.rfind("llvm.", 0) == 0;

  CallRecord Rec;
  Rec.Callee = Callee;
  Rec.Dom = DomE;
  Rec.Version = Mem->version();
  std::vector<Expr> UFArgs{Rec.Version};
  for (unsigned I = 0; I < C.numOps(); ++I) {
    EncodedValue AV = read(C.op(I), &T.RefreshVars);
    for (const StateValue &SV : AV.Elems) {
      UFArgs.push_back(SV.Val);
      Expr NPBit = Opts.IgnoreUB ? mkBV(1, 1) : mkBoolToBV1(SV.NonPoison);
      UFArgs.push_back(NPBit);
      Rec.Args.push_back(SV.Val);
      Rec.Args.push_back(NPBit);
    }
  }
  Out.Calls.push_back(Rec);

  unsigned CallIdx = CallCounter++;
  (void)CallIdx;

  if (!RetTy->isVoid()) {
    for (unsigned Lane = 0; Lane < numLanes(RetTy); ++Lane) {
      const Type *LT = laneType(RetTy, Lane);
      unsigned W = laneWidth(L, LT);
      std::string VName = "callret." + Callee + "." + std::to_string(Lane);
      std::string PName = "callnp." + Callee + "." + std::to_string(Lane);
      Expr Val = mkApp(VName, W, UFArgs);
      Expr NP = mkEq(mkApp(PName, 1, UFArgs), mkBV(1, 1));
      if (Unsupported) {
        markApprox(VName);
        markApprox(PName);
      }
      if (LT->isPtr()) {
        // Returned pointers reference non-local memory.
        Out.Axioms.push_back(
            mkImplies(DomE, L.isNonLocalOrNull(L.ptrBid(Val))));
      }
      T.V.Elems.push_back(Opts.IgnoreUB
                              ? StateValue::defined(Val)
                              : StateValue(Val, NP, mkFalse()));
    }
  }

  // The call may write any non-local memory (Section 6); the effect is a
  // function of the callee, memory version and arguments so matching
  // source/target calls havoc memory identically.
  std::string MemName = "callmem." + Callee;
  if (Unsupported)
    markApprox(MemName);
  std::vector<Expr> MemArgs = UFArgs;
  unsigned ByteW = L.byteBits();
  Mem->appendHavoc(DomE, [MemName, MemArgs, ByteW](Expr Addr) {
    std::vector<Expr> Args = MemArgs;
    Args.push_back(Addr);
    return mkApp(MemName, ByteW, Args);
  });
  Mem->bumpVersion(DomE);
  return T;
}

//===----------------------------------------------------------------------===//
// Memory instructions
//===----------------------------------------------------------------------===//

Encoder::Template Encoder::encodeLoad(const Load &Ld, Expr DomE) {
  Template T;
  EncodedValue PtrV = read(Ld.ptr());
  const StateValue &P = PtrV.scalar();
  unsigned Size = Ld.type()->storeSize();
  addUB(DomE, mkOr(mkOr(mkNot(P.NonPoison), P.IsUndef),
                   mkNot(Mem->accessOk(P.Val, Size, /*IsWrite=*/false))));
  Expr Addr = assumeNotUndef(P.Val);
  unsigned Offset = 0;
  for (unsigned Lane = 0; Lane < numLanes(Ld.type()); ++Lane) {
    const Type *LT = laneType(Ld.type(), Lane);
    std::vector<Expr> BytesRead;
    for (unsigned I = 0; I < LT->storeSize(); ++I)
      BytesRead.push_back(Mem->loadByte(Mem->byteAddr(Addr, Offset + I)));
    StateValue SV = lanesFromBytes(Bytes, LT, BytesRead);
    if (Opts.IgnoreUB)
      SV = StateValue::defined(SV.Val);
    T.V.Elems.push_back(SV);
    Offset += LT->storeSize();
  }
  return T;
}

void Encoder::encodeStore(const Store &St, Expr DomE) {
  EncodedValue PtrV = read(St.ptr());
  EncodedValue ValV = read(St.value());
  const StateValue &P = PtrV.scalar();
  unsigned Size = St.value()->type()->storeSize();
  addUB(DomE, mkOr(mkOr(mkNot(P.NonPoison), P.IsUndef),
                   mkNot(Mem->accessOk(P.Val, Size, /*IsWrite=*/true))));
  Expr Addr = assumeNotUndef(P.Val);
  unsigned Offset = 0;
  for (unsigned Lane = 0; Lane < numLanes(St.value()->type()); ++Lane) {
    const Type *LT = laneType(St.value()->type(), Lane);
    std::vector<Expr> Packed;
    laneToBytes(Bytes, LT, ValV.Elems[Lane], Packed);
    for (unsigned I = 0; I < Packed.size(); ++I)
      Mem->storeByte(DomE, Mem->byteAddr(Addr, Offset + I), Packed[I]);
    Offset += LT->storeSize();
  }
  // Stores to a statically-local block are unobservable by calls and do not
  // advance the memory version (keeps call matching robust).
  Expr Bid = L.ptrBid(P.Val);
  BitVec BidC;
  bool StaticLocal =
      Bid.getConst(BidC) && BidC.low64() >= L.firstLocalBid();
  if (!StaticLocal)
    Mem->bumpVersion(DomE);
}

//===----------------------------------------------------------------------===//
// Instructions
//===----------------------------------------------------------------------===//

Encoder::Template Encoder::encodeInstr(const Instr &I, Expr DomE) {
  Template T;
  switch (I.kind()) {
  case ValueKind::BinOp: {
    const auto &B = *cast<BinOp>(&I);
    EncodedValue A = read(B.op(0), &T.RefreshVars);
    EncodedValue Bv = read(B.op(1), &T.RefreshVars);
    for (unsigned Lane = 0; Lane < A.numElems(); ++Lane)
      T.V.Elems.push_back(encodeBinOpLane(B, A.Elems[Lane], Bv.Elems[Lane],
                                          DomE, laneType(B.type(), Lane)));
    return T;
  }
  case ValueKind::FBinOp: {
    const auto &B = *cast<FBinOp>(&I);
    EncodedValue A = read(B.op(0), &T.RefreshVars);
    EncodedValue Bv = read(B.op(1), &T.RefreshVars);
    for (unsigned Lane = 0; Lane < A.numElems(); ++Lane)
      T.V.Elems.push_back(encodeFBinOpLane(B, A.Elems[Lane], Bv.Elems[Lane],
                                           laneType(B.type(), Lane)));
    return T;
  }
  case ValueKind::FNeg: {
    EncodedValue A = read(I.op(0), &T.RefreshVars);
    for (unsigned Lane = 0; Lane < A.numElems(); ++Lane) {
      FloatSema FS(laneType(I.type(), Lane));
      const StateValue &SV = A.Elems[Lane];
      T.V.Elems.push_back({FS.negate(SV.Val), SV.NonPoison, SV.IsUndef});
    }
    return T;
  }
  case ValueKind::ICmp: {
    const auto &C = *cast<ICmp>(&I);
    EncodedValue A = read(C.op(0), &T.RefreshVars);
    EncodedValue Bv = read(C.op(1), &T.RefreshVars);
    const Type *OpTy = C.op(0)->type();
    for (unsigned Lane = 0; Lane < A.numElems(); ++Lane)
      T.V.Elems.push_back(encodeICmpLane(C.pred(), A.Elems[Lane],
                                         Bv.Elems[Lane],
                                         laneType(OpTy, Lane)));
    return T;
  }
  case ValueKind::FCmp: {
    const auto &C = *cast<FCmp>(&I);
    EncodedValue A = read(C.op(0), &T.RefreshVars);
    EncodedValue Bv = read(C.op(1), &T.RefreshVars);
    const Type *OpTy = C.op(0)->type();
    for (unsigned Lane = 0; Lane < A.numElems(); ++Lane)
      T.V.Elems.push_back(encodeFCmpLane(C.pred(), A.Elems[Lane],
                                         Bv.Elems[Lane],
                                         laneType(OpTy, Lane)));
    return T;
  }
  case ValueKind::Select: {
    EncodedValue C = read(I.op(0), &T.RefreshVars);
    EncodedValue A = read(I.op(1), &T.RefreshVars);
    EncodedValue Bv = read(I.op(2), &T.RefreshVars);
    const StateValue &CS = C.scalar();
    Expr Cond = mkEq(CS.Val, mkBV(1, 1));
    for (unsigned Lane = 0; Lane < A.numElems(); ++Lane) {
      const StateValue &AS = A.Elems[Lane], &BS = Bv.Elems[Lane];
      // Short-circuiting poison: only the chosen arm's poison matters, but
      // a poison/undef-tainted condition poisons the result (Section 8.4).
      T.V.Elems.push_back(
          {mkIte(Cond, AS.Val, BS.Val),
           mkAnd(CS.NonPoison, mkIte(Cond, AS.NonPoison, BS.NonPoison)),
           mkOr(CS.IsUndef, mkIte(Cond, AS.IsUndef, BS.IsUndef))});
    }
    return T;
  }
  case ValueKind::Freeze: {
    // Read once: the undef instances inside this read are pinned because
    // the result template carries no refresh variables (Section 3.3).
    EncodedValue A = read(I.op(0));
    for (unsigned Lane = 0; Lane < A.numElems(); ++Lane) {
      const StateValue &SV = A.Elems[Lane];
      Expr Choice =
          freshChoice("freeze", SV.Val.width(), ReadPaths::Step::Freeze);
      T.V.Elems.push_back(StateValue::defined(
          Opts.IgnoreUB ? SV.Val : mkIte(SV.NonPoison, SV.Val, Choice)));
    }
    return T;
  }
  case ValueKind::Cast: {
    const auto &C = *cast<Cast>(&I);
    EncodedValue A = read(C.op(0), &T.RefreshVars);
    const Type *SrcTy = C.op(0)->type();
    const Type *DstTy = C.type();
    switch (C.getOp()) {
    case Cast::Op::Trunc:
    case Cast::Op::ZExt:
    case Cast::Op::SExt: {
      for (unsigned Lane = 0; Lane < A.numElems(); ++Lane) {
        const StateValue &SV = A.Elems[Lane];
        unsigned DW = laneType(DstTy, Lane)->bitWidth();
        Expr V = C.getOp() == Cast::Op::Trunc ? mkTrunc(SV.Val, DW)
                 : C.getOp() == Cast::Op::ZExt ? mkZExt(SV.Val, DW)
                                               : mkSExt(SV.Val, DW);
        T.V.Elems.push_back({V, SV.NonPoison, SV.IsUndef});
      }
      return T;
    }
    case Cast::Op::BitCast: {
      // Flatten source lanes to raw bits, then re-slice. NaN bit patterns
      // escaping through an fp->int bitcast are nondeterministic
      // (Section 3.5, second semantics).
      Expr Bits;
      Expr NP = mkTrue();
      Expr Undef = mkFalse();
      for (unsigned Lane = 0; Lane < A.numElems(); ++Lane) {
        const Type *LT = laneType(SrcTy, Lane);
        Expr V = A.Elems[Lane].Val;
        if (LT->isFP() && !DstTy->isFP()) {
          FloatSema FS(LT);
          Expr Mant =
              freshChoice("nanbits", FS.ManW, ReadPaths::Step::NaNBits);
          Expr Sign = freshChoice("nansign", 1, ReadPaths::Step::NaNSign);
          Expr NaNPattern = mkConcat(
              mkConcat(Sign, mkBV(BitVec::allOnes(FS.ExpW))),
              mkBVOr(Mant, mkBV(BitVec(FS.ManW, 1).shl(
                               BitVec(FS.ManW, FS.ManW - 1)))));
          V = mkIte(FS.isNaN(V), NaNPattern, V);
        }
        Bits = Lane == 0 ? V : mkConcat(V, Bits);
        NP = mkAnd(NP, A.Elems[Lane].NonPoison);
        Undef = mkOr(Undef, A.Elems[Lane].IsUndef);
      }
      unsigned Off = 0;
      for (unsigned Lane = 0; Lane < numLanes(DstTy); ++Lane) {
        unsigned W = laneType(DstTy, Lane)->bitWidth();
        T.V.Elems.push_back({mkExtract(Bits, Off, W), NP, Undef});
        Off += W;
      }
      return T;
    }
    case Cast::Op::FPToSI:
    case Cast::Op::FPToUI:
    case Cast::Op::SIToFP:
    case Cast::Op::UIToFP: {
      // Over-approximated per Section 3.8: an unknown (but functionally
      // consistent) conversion, tagged so that counterexamples that depend
      // on it are reported as unsupported rather than as bugs.
      for (unsigned Lane = 0; Lane < A.numElems(); ++Lane) {
        const StateValue &SV = A.Elems[Lane];
        unsigned DW = laneWidth(L, laneType(DstTy, Lane));
        std::string Name = std::string(Cast::opName(C.getOp())) + "." +
                           std::to_string(SV.Val.width()) + "." +
                           std::to_string(DW);
        markApprox(Name);
        T.V.Elems.push_back(
            {mkApp(Name, DW, {SV.Val}), SV.NonPoison, SV.IsUndef});
      }
      return T;
    }
    }
    return T;
  }
  case ValueKind::Gep: {
    const auto &G = *cast<Gep>(&I);
    EncodedValue Base = read(G.base(), &T.RefreshVars);
    EncodedValue Idx = read(G.index(), &T.RefreshVars);
    const StateValue &B = Base.scalar();
    const StateValue &Ix = Idx.scalar();
    Expr Off = L.ptrOff(B.Val);
    Expr IdxExt = Ix.Val.width() >= 64 ? mkTrunc(Ix.Val, 64)
                                       : mkSExt(Ix.Val, 64);
    Expr NewOff = mkAdd(Off, mkMul(IdxExt, mkBV(64, G.scale())));
    Expr Bid = L.ptrBid(B.Val);
    Expr NewPtr = L.makePtr(Bid, NewOff);
    Expr NP = mkAnd(B.NonPoison, Ix.NonPoison);
    if (G.inBounds()) {
      // Both the base and the result must stay within the block.
      Expr Size = Mem->blockSize(Bid);
      NP = mkAnd(NP, mkAnd(mkUle(Off, Size), mkUle(NewOff, Size)));
    }
    T.V.Elems.push_back({NewPtr, NP, mkOr(B.IsUndef, Ix.IsUndef)});
    return T;
  }
  case ValueKind::Alloca: {
    const auto &A = *cast<Alloca>(&I);
    unsigned Bid = L.firstLocalBid() + LocalCounter++;
    assert(Bid < L.numBlocks() && "alloca overflows the local block region");
    // Pin this side's symbolic size for the local block.
    Out.Axioms.push_back(mkEq(Mem->blockSize(mkBV(L.bidBits(), Bid)),
                              mkBV(64, A.sizeBytes())));
    T.V.Elems.push_back(StateValue::defined(L.makePtr(Bid, 0)));
    return T;
  }
  case ValueKind::Load:
    return encodeLoad(*cast<Load>(&I), DomE);
  case ValueKind::Call:
    return encodeCall(*cast<Call>(&I), DomE);
  case ValueKind::ExtractElement: {
    const auto &E = *cast<ExtractElement>(&I);
    EncodedValue V = read(E.vector(), &T.RefreshVars);
    EncodedValue Ix = read(E.index(), &T.RefreshVars);
    const StateValue &IS = Ix.scalar();
    unsigned N = V.numElems();
    unsigned W = laneWidth(L, I.type());
    // Out-of-range index -> poison.
    Expr Val = mkBV(W, 0);
    Expr NP = mkFalse();
    Expr Undef = mkFalse();
    for (unsigned K = 0; K < N; ++K) {
      Expr Hit = mkEq(IS.Val, mkBV(IS.Val.width(), K));
      Val = mkIte(Hit, V.Elems[K].Val, Val);
      NP = mkIte(Hit, V.Elems[K].NonPoison, NP);
      Undef = mkIte(Hit, V.Elems[K].IsUndef, Undef);
    }
    T.V.Elems.push_back(
        {Val, mkAnd(IS.NonPoison, NP), mkOr(IS.IsUndef, Undef)});
    return T;
  }
  case ValueKind::InsertElement: {
    const auto &E = *cast<InsertElement>(&I);
    EncodedValue V = read(E.vector(), &T.RefreshVars);
    EncodedValue El = read(E.element(), &T.RefreshVars);
    EncodedValue Ix = read(E.index(), &T.RefreshVars);
    const StateValue &IS = Ix.scalar();
    const StateValue &ES = El.scalar();
    for (unsigned K = 0; K < V.numElems(); ++K) {
      Expr Hit = mkEq(IS.Val, mkBV(IS.Val.width(), K));
      const StateValue &VS = V.Elems[K];
      // An out-of-range or poison index poisons the whole result vector.
      Expr LaneNP = mkAnd(IS.NonPoison,
                          mkIte(Hit, ES.NonPoison, VS.NonPoison));
      T.V.Elems.push_back({mkIte(Hit, ES.Val, VS.Val), LaneNP,
                           mkOr(IS.IsUndef,
                                mkIte(Hit, ES.IsUndef, VS.IsUndef))});
    }
    return T;
  }
  case ValueKind::ShuffleVector: {
    const auto &Sh = *cast<ShuffleVector>(&I);
    EncodedValue V1 = read(Sh.op(0), &T.RefreshVars);
    EncodedValue V2 = read(Sh.op(1), &T.RefreshVars);
    unsigned N = V1.numElems();
    for (int M : Sh.mask()) {
      if (M < 0) {
        // Undef mask lane -> undef element (the Section 8.3 resolution:
        // no poison propagation from an undef mask).
        unsigned W = laneWidth(L, I.type()->elementType());
        Expr U = freshChoice("undef", W, ReadPaths::Step::Undef);
        T.RefreshVars.push_back({U, Out.NondetPaths.back()});
        T.V.Elems.push_back({U, mkTrue(), mkTrue()});
      } else if ((unsigned)M < N) {
        T.V.Elems.push_back(V1.Elems[M]);
      } else {
        T.V.Elems.push_back(V2.Elems[M - N]);
      }
    }
    return T;
  }
  case ValueKind::ExtractValue: {
    const auto &E = *cast<ExtractValue>(&I);
    EncodedValue V = read(E.aggregate(), &T.RefreshVars);
    unsigned First = 0;
    const Type *AggTy = E.aggregate()->type();
    for (unsigned K = 0; K < E.index(); ++K)
      First += numLanes(AggTy->elementType(K));
    unsigned N = numLanes(AggTy->elementType(E.index()));
    for (unsigned K = 0; K < N; ++K)
      T.V.Elems.push_back(V.Elems[First + K]);
    return T;
  }
  case ValueKind::InsertValue: {
    const auto &E = *cast<InsertValue>(&I);
    EncodedValue V = read(E.aggregate(), &T.RefreshVars);
    EncodedValue El = read(E.element(), &T.RefreshVars);
    unsigned First = 0;
    const Type *AggTy = E.aggregate()->type();
    for (unsigned K = 0; K < E.index(); ++K)
      First += numLanes(AggTy->elementType(K));
    T.V = V;
    for (unsigned K = 0; K < El.numElems(); ++K)
      T.V.Elems[First + K] = El.Elems[K];
    return T;
  }
  default:
    assert(false && "unhandled instruction kind in encoder");
    return T;
  }
}

//===----------------------------------------------------------------------===//
// Control flow (Section 3.4): merged domains, no path forking
//===----------------------------------------------------------------------===//

void Encoder::encodeBlock(const BasicBlock *BB, const analysis::Cfg &G) {
  Expr DomE;
  if (BB == F.entry()) {
    DomE = mkTrue();
  } else {
    DomE = mkFalse();
    for (const BasicBlock *P : G.preds(BB)) {
      auto It = EdgeCond.find({P, BB});
      if (It == EdgeCond.end())
        continue; // unreachable predecessor
      DomE = mkOr(DomE, It->second);
    }
  }
  Dom[BB] = DomE;

  if (Sinks.count(BB)) {
    Out.SinkDomain = mkOr(Out.SinkDomain, DomE);
    return;
  }

  for (const auto &IP : *BB) {
    const Instr *I = IP.get();
    ALIVE_STAT_COUNTER(Instrs, "encode.instructions");
    Instrs.inc();
    ReaderKey = Out.Paths.internKey(readerKey(*I));
    switch (I->kind()) {
    case ValueKind::Phi: {
      const auto *P = cast<Phi>(I);
      Template T;
      unsigned Lanes = numLanes(P->type());
      // Merge incoming values by edge condition (one SMT expression per
      // register; the CFG is never forked).
      std::vector<EncodedValue> Ins;
      std::vector<Expr> Conds;
      for (unsigned K = 0; K < P->numIncoming(); ++K) {
        const BasicBlock *Pred = P->incomingBlock(K);
        auto It = EdgeCond.find({Pred, BB});
        if (It == EdgeCond.end())
          continue;
        Ins.push_back(read(P->incomingValue(K), &T.RefreshVars));
        Conds.push_back(It->second);
      }
      for (unsigned Lane = 0; Lane < Lanes; ++Lane) {
        unsigned W = laneWidth(L, laneType(P->type(), Lane));
        StateValue SV = StateValue::poison(W);
        for (unsigned K = 0; K < Ins.size(); ++K) {
          SV.Val = mkIte(Conds[K], Ins[K].Elems[Lane].Val, SV.Val);
          SV.NonPoison =
              mkIte(Conds[K], Ins[K].Elems[Lane].NonPoison, SV.NonPoison);
          SV.IsUndef =
              mkIte(Conds[K], Ins[K].Elems[Lane].IsUndef, SV.IsUndef);
        }
        if (Opts.IgnoreUB)
          SV = StateValue::defined(SV.Val);
        T.V.Elems.push_back(SV);
      }
      Regs[I] = std::move(T);
      continue;
    }
    case ValueKind::Br: {
      const auto *B = cast<Br>(I);
      if (!B->isConditional()) {
        auto Key = std::make_pair(BB, (const BasicBlock *)B->trueDest());
        Expr Prev = EdgeCond.count(Key) ? EdgeCond[Key] : mkFalse();
        EdgeCond[Key] = mkOr(Prev, DomE);
        continue;
      }
      EncodedValue C = read(B->cond());
      const StateValue &CS = C.scalar();
      // Branching on poison or undef is immediate UB (Section 2); after
      // recording that, the condition simplifies under "not undef" (3.6).
      addUB(DomE, mkOr(mkNot(CS.NonPoison), CS.IsUndef));
      Expr CondTrue = mkEq(assumeNotUndef(CS.Val), mkBV(1, 1));
      auto KeyT = std::make_pair(BB, (const BasicBlock *)B->trueDest());
      auto KeyF = std::make_pair(BB, (const BasicBlock *)B->falseDest());
      Expr PrevT = EdgeCond.count(KeyT) ? EdgeCond[KeyT] : mkFalse();
      Expr PrevF = EdgeCond.count(KeyF) ? EdgeCond[KeyF] : mkFalse();
      EdgeCond[KeyT] = mkOr(PrevT, mkAnd(DomE, CondTrue));
      EdgeCond[KeyF] = mkOr(PrevF, mkAnd(DomE, mkNot(CondTrue)));
      continue;
    }
    case ValueKind::Switch: {
      const auto *S = cast<Switch>(I);
      EncodedValue C = read(S->cond());
      const StateValue &CS0 = C.scalar();
      addUB(DomE, mkOr(mkNot(CS0.NonPoison), CS0.IsUndef));
      StateValue CS = CS0;
      CS.Val = assumeNotUndef(CS.Val);
      Expr NotAnyCase = mkTrue();
      for (const auto &[V, Dest] : S->cases()) {
        Expr Hit = mkEq(CS.Val, mkBV(V));
        NotAnyCase = mkAnd(NotAnyCase, mkNot(Hit));
        auto Key = std::make_pair(BB, (const BasicBlock *)Dest);
        Expr Prev = EdgeCond.count(Key) ? EdgeCond[Key] : mkFalse();
        EdgeCond[Key] = mkOr(Prev, mkAnd(DomE, Hit));
      }
      auto Key = std::make_pair(BB, (const BasicBlock *)S->defaultDest());
      Expr Prev = EdgeCond.count(Key) ? EdgeCond[Key] : mkFalse();
      EdgeCond[Key] = mkOr(Prev, mkAnd(DomE, NotAnyCase));
      continue;
    }
    case ValueKind::Ret: {
      const auto *R = cast<Ret>(I);
      Out.RetDomain = mkOr(Out.RetDomain, DomE);
      if (R->hasValue()) {
        EncodedValue V = read(R->value());
        if (Out.RetVal.Elems.empty()) {
          Out.RetVal = V;
          // Weight by domain: a later ret overrides when its domain holds.
          for (StateValue &SV : Out.RetVal.Elems) {
            SV.Val = mkIte(DomE, SV.Val, mkBV(SV.Val.width(), 0));
            SV.NonPoison = mkAnd(DomE, SV.NonPoison);
            SV.IsUndef = mkAnd(DomE, SV.IsUndef);
          }
        } else {
          for (unsigned K = 0; K < V.numElems(); ++K) {
            StateValue &Dst = Out.RetVal.Elems[K];
            Dst.Val = mkIte(DomE, V.Elems[K].Val, Dst.Val);
            Dst.NonPoison = mkIte(DomE, V.Elems[K].NonPoison, Dst.NonPoison);
            Dst.IsUndef = mkIte(DomE, V.Elems[K].IsUndef, Dst.IsUndef);
          }
        }
      }
      continue;
    }
    case ValueKind::Unreachable:
      // Reaching unreachable is immediate UB (sink blocks were handled at
      // the top of the function).
      addUB(DomE, mkTrue());
      if (Opts.IgnoreUB) {
        // Baseline mode still must not treat this as a normal exit.
        Out.UB = mkOr(Out.UB, DomE);
      }
      continue;
    case ValueKind::Store:
      encodeStore(*cast<Store>(I), DomE);
      continue;
    default:
      Regs[I] = encodeInstr(*I, DomE);
      continue;
    }
  }
}

FunctionEncoding Encoder::run() {
  Out.Mem = Mem = std::make_shared<Memory>(L, Opts.Tag);

  // This side's local block sizes are its own symbols (pinned by alloca
  // axioms); register them as this side's nondeterminism so the refinement
  // layer binds them on the right side of the quantifier alternation.
  for (unsigned Slot = 0; Slot < L.numLocalSlots(); ++Slot) {
    unsigned Bid = L.firstLocalBid() + Slot;
    std::string Root = "blocksize." + std::to_string(Bid);
    Expr V = mkVar(Root + "." + Opts.Tag, 64);
    unsigned Path = Out.Paths.intern(ReadPaths::None, ReadPaths::Step::Read,
                                     Out.Paths.internKey(Root));
    Out.NondetVars.insert(V.id());
    Out.NondetOrder.push_back(V);
    Out.NondetPaths.push_back(Path);
  }

  for (unsigned I = 0; I < F.numArgs(); ++I)
    Regs[F.arg(I)] = encodeArgument(F.arg(I), I);

  analysis::Cfg G(F);
  for (BasicBlock *BB : G.rpo())
    encodeBlock(BB, G);

  if (Out.RetVal.Elems.empty() && !F.returnType()->isVoid()) {
    // All paths are UB/sink; synthesize a poison-like return placeholder.
    for (unsigned Lane = 0; Lane < numLanes(F.returnType()); ++Lane)
      Out.RetVal.Elems.push_back(
          StateValue::poison(laneWidth(L, laneType(F.returnType(), Lane))));
  }
  return Out;
}

} // namespace

unsigned ReadPaths::internKey(const std::string &Key) {
  auto [K, New] = KeyIds.try_emplace(Key, (unsigned)Keys.size());
  if (New)
    Keys.push_back(Key);
  return K->second;
}

unsigned ReadPaths::findKey(const std::string &Key) const {
  auto K = KeyIds.find(Key);
  return K == KeyIds.end() ? None : K->second;
}

unsigned ReadPaths::intern(unsigned Parent, Step S, unsigned Key) {
  if (unsigned Found = find(Parent, S, Key); Found != None)
    return Found;
  unsigned Id = (unsigned)Entries.size();
  Entries.push_back({Parent, Parent == None ? Id : root(Parent), Key, S});
  if (Parent == None) {
    Roots.emplace((uint64_t)Key << 3 | (uint64_t)S, Id);
  } else {
    Entries[Id].NextSibling = Entries[Parent].FirstChild;
    Entries[Parent].FirstChild = Id;
  }
  return Id;
}

unsigned ReadPaths::find(unsigned Parent, Step S, unsigned Key) const {
  if (Key == None)
    return None;
  if (Parent == None) {
    auto It = Roots.find((uint64_t)Key << 3 | (uint64_t)S);
    return It == Roots.end() ? None : It->second;
  }
  for (unsigned C = Entries[Parent].FirstChild; C != None;
       C = Entries[C].NextSibling)
    if (Entries[C].Key == Key && Entries[C].S == S)
      return C;
  return None;
}

std::string ReadPaths::render(unsigned Id) const {
  static const char *Choice[] = {"", "undef", "freeze", "nsz", "nanbits",
                                 "nansign"};
  std::vector<unsigned> Chain;
  for (unsigned I = Id; I != None; I = parent(I))
    Chain.push_back(I);
  std::string Out;
  for (auto It = Chain.rbegin(); It != Chain.rend(); ++It) {
    if (!Out.empty())
      Out += " > ";
    Step S = step(*It);
    if (S == Step::Read)
      Out += key(*It);
    else
      Out += std::string(Choice[(int)S]) + "(" + key(*It) + ")";
  }
  return Out;
}

FunctionEncoding
sema::encodeFunction(const Function &F, const MemoryLayout &L,
                     const std::unordered_set<const BasicBlock *> &Sinks,
                     const EncodeOptions &Opts) {
  ALIVE_STAT_COUNTER(Functions, "encode.functions");
  Functions.inc();
  // Detail = encoding tag: the src/srcI/tgt copies show up separately in
  // the Chrome trace while aggregating as one "encode" phase.
  ALIVE_STAT_SAMPLER(EncodeTime, "time.encode");
  prof::Span ProfSpan("encode", Opts.Tag, EncodeTime);
  Encoder E(F, L, Sinks, Opts);
  return E.run();
}
