//===- opt/InstCombine.cpp - Peephole passes ----------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// InstCombine / InstSimplify / ConstFold: the peephole optimizers whose
/// LLVM counterparts the paper validates most heavily. All the rewrites
/// here are *correct* (undef/poison-aware); the deliberately wrong variants
/// live in BuggyPasses.cpp.
///
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

using namespace alive;
using namespace alive::opt;
using namespace alive::ir;

namespace {

bool isConstInt(Value *V, uint64_t &Out) {
  if (auto *CI = dyn_cast<ConstInt>(V)) {
    if (!CI->value().fitsU64())
      return false;
    Out = CI->value().low64();
    return true;
  }
  return false;
}

bool isZeroConst(Value *V) {
  uint64_t C;
  return isConstInt(V, C) && C == 0;
}

bool isAllOnesConst(Value *V) {
  if (auto *CI = dyn_cast<ConstInt>(V))
    return CI->value().isAllOnes();
  return false;
}

/// InstSimplify: rewrites whose result is an existing value or constant.
class InstSimplifyPass final : public Pass {
public:
  const char *name() const override { return "instsimplify"; }

  bool run(Function &F) override {
    return rewriteInstructions(
        F, [](Function &Fn, BasicBlock *, unsigned, Instr *I) -> Value * {
          return simplify(Fn, I);
        });
  }

  static Value *simplify(Function &F, Instr *I) {
    uint64_t C;
    switch (I->kind()) {
    case ValueKind::BinOp: {
      auto *B = cast<BinOp>(I);
      Value *X = B->op(0), *Y = B->op(1);
      switch (B->getOp()) {
      case BinOp::Op::Add:
        if (isZeroConst(Y))
          return X;
        if (isZeroConst(X))
          return Y;
        break;
      case BinOp::Op::Sub:
        if (isZeroConst(Y))
          return X;
        // x - x -> 0: even when x is undef this is a refinement (0 is one
        // of the values the nondeterministic difference can take).
        if (X == Y)
          return F.getConstInt(B->type(), 0);
        break;
      case BinOp::Op::Mul:
        if (isConstInt(Y, C) && C == 1)
          return X;
        if (isZeroConst(Y))
          return F.getConstInt(B->type(), 0);
        break;
      case BinOp::Op::UDiv:
      case BinOp::Op::SDiv:
        if (isConstInt(Y, C) && C == 1)
          return X;
        break;
      case BinOp::Op::And:
        if (X == Y)
          return X;
        if (isZeroConst(Y) || isZeroConst(X))
          return F.getConstInt(B->type(), 0);
        if (isAllOnesConst(Y))
          return X;
        break;
      case BinOp::Op::Or:
        if (X == Y)
          return X;
        if (isZeroConst(Y))
          return X;
        if (isZeroConst(X))
          return Y;
        if (isAllOnesConst(Y))
          return F.getConstInt(B->type(), BitVec::allOnes(
                                              B->type()->intWidth()));
        break;
      case BinOp::Op::Xor:
        if (isZeroConst(Y))
          return X;
        if (isZeroConst(X))
          return Y;
        if (X == Y)
          return F.getConstInt(B->type(), 0);
        break;
      case BinOp::Op::Shl:
      case BinOp::Op::LShr:
      case BinOp::Op::AShr:
        if (isZeroConst(Y))
          return X;
        break;
      default:
        break;
      }
      break;
    }
    case ValueKind::Select: {
      auto *S = cast<Select>(I);
      if (S->op(1) == S->op(2))
        return S->op(1);
      if (auto *CI = dyn_cast<ConstInt>(S->op(0)))
        return CI->value().isZero() ? S->op(2) : S->op(1);
      break;
    }
    case ValueKind::ICmp: {
      auto *Cmp = cast<ICmp>(I);
      Value *X = Cmp->op(0), *Y = Cmp->op(1);
      // Unsigned bounds: x < 0 is false; x >= 0 is true; etc.
      if (isZeroConst(Y)) {
        if (Cmp->pred() == ICmp::Pred::ULT)
          return F.getConstInt(Cmp->type(), 0);
        if (Cmp->pred() == ICmp::Pred::UGE)
          return F.getConstInt(Cmp->type(), 1);
      }
      // The Section 8.2 max pattern: (select (sgt x y) x y) slt x -> false.
      if (Cmp->pred() == ICmp::Pred::SLT) {
        if (auto *Sel = dyn_cast<Select>(X)) {
          if (auto *Inner = dyn_cast<ICmp>(Sel->op(0))) {
            if (Inner->pred() == ICmp::Pred::SGT &&
                Inner->op(0) == Sel->op(1) && Inner->op(1) == Sel->op(2) &&
                (Y == Sel->op(1)))
              return F.getConstInt(Cmp->type(), 0);
          }
        }
      }
      (void)X;
      break;
    }
    case ValueKind::Freeze:
      // freeze of a freeze (or of a comparison of frozen values) is a
      // no-op; conservatively only collapse freeze(freeze x).
      if (isa<Freeze>(I->op(0)))
        return I->op(0);
      break;
    default:
      break;
    }
    return nullptr;
  }
};

/// InstCombine: rewrites that build new instructions.
class InstCombinePass final : public Pass {
public:
  const char *name() const override { return "instcombine"; }

  bool run(Function &F) override {
    return rewriteInstructions(
        F,
        [](Function &Fn, BasicBlock *BB, unsigned Idx, Instr *I) -> Value * {
          uint64_t C1, C2;
          if (auto *B = dyn_cast<BinOp>(I)) {
            Value *X = B->op(0), *Y = B->op(1);
            // mul x, 2^k -> shl x, k (flags dropped: correct).
            if (B->getOp() == BinOp::Op::Mul && isConstInt(Y, C1) && C1 > 1 &&
                (C1 & (C1 - 1)) == 0) {
              unsigned K = 0;
              while ((C1 >> K) != 1)
                ++K;
              auto *Shl = new BinOp(BinOp::Op::Shl, B->type(), B->name(), X,
                                    Fn.getConstInt(B->type(), K));
              BB->insert(Idx, Shl);
              return Shl;
            }
            // (x + c1) + c2 -> x + (c1 + c2) (flags dropped).
            if (B->getOp() == BinOp::Op::Add && isConstInt(Y, C2)) {
              if (auto *B2 = dyn_cast<BinOp>(X)) {
                if (B2->getOp() == BinOp::Op::Add &&
                    isConstInt(B2->op(1), C1)) {
                  BitVec Sum = BitVec(B->type()->intWidth(), C1)
                                   .add(BitVec(B->type()->intWidth(), C2));
                  auto *Add = new BinOp(BinOp::Op::Add, B->type(), B->name(),
                                        B2->op(0), Fn.getConstInt(B->type(),
                                                                  Sum));
                  BB->insert(Idx, Add);
                  return Add;
                }
              }
            }
            // (a + b) - b -> a.
            if (B->getOp() == BinOp::Op::Sub) {
              if (auto *B2 = dyn_cast<BinOp>(X))
                if (B2->getOp() == BinOp::Op::Add && B2->op(1) == Y)
                  return B2->op(0);
            }
          }
          // select c, x, false -> and c, (freeze x): the post-fix LLVM
          // canonicalization (Section 8.4); the freeze keeps it sound.
          if (auto *S = dyn_cast<Select>(I)) {
            if (S->type()->isInt() && S->type()->intWidth() == 1 &&
                isZeroConst(S->op(2))) {
              auto *Fr = new Freeze(S->type(), S->name() + ".fr", S->op(1));
              BB->insert(Idx, Fr);
              auto *And = new BinOp(BinOp::Op::And, S->type(), S->name(),
                                    S->op(0), Fr);
              BB->insert(Idx + 1, And);
              return And;
            }
          }
          return nullptr;
        });
  }
};

/// ConstFold: evaluates instructions whose operands are literal constants.
/// Undef operands fold only where genuinely correct: additive operations
/// absorb undef; bitwise ones do not (those wrong folds are the Section
/// 8.2 bug class, reproduced in BuggyPasses.cpp).
class ConstFoldPass final : public Pass {
public:
  const char *name() const override { return "constfold"; }

  bool run(Function &F) override {
    return rewriteInstructions(
        F, [](Function &Fn, BasicBlock *, unsigned, Instr *I) -> Value * {
          auto *B = dyn_cast<BinOp>(I);
          if (B) {
            auto *C1 = dyn_cast<ConstInt>(B->op(0));
            auto *C2 = dyn_cast<ConstInt>(B->op(1));
            if (C1 && C2)
              return foldBinOp(Fn, B, C1->value(), C2->value());
            // add/sub/xor with an undef operand yield undef (every result
            // value is reachable); correct only without nsw/nuw.
            bool HasUndef = isa<UndefValue>(B->op(0)) ||
                            isa<UndefValue>(B->op(1));
            if (HasUndef && !B->flags().NSW && !B->flags().NUW &&
                (B->getOp() == BinOp::Op::Add ||
                 B->getOp() == BinOp::Op::Sub ||
                 B->getOp() == BinOp::Op::Xor))
              return Fn.getUndef(B->type());
          }
          if (auto *Cmp = dyn_cast<ICmp>(I)) {
            auto *C1 = dyn_cast<ConstInt>(Cmp->op(0));
            auto *C2 = dyn_cast<ConstInt>(Cmp->op(1));
            if (C1 && C2 && Cmp->type()->isInt())
              return Fn.getConstInt(
                  Cmp->type(), evalICmp(Cmp->pred(), C1->value(),
                                        C2->value()));
          }
          return nullptr;
        });
  }

  static Value *foldBinOp(Function &F, BinOp *B, const BitVec &A,
                          const BitVec &C) {
    // Division by zero stays put: folding a trapping operation away would
    // change UB behavior.
    if (B->isDivRem() && C.isZero())
      return nullptr;
    BitVec R;
    switch (B->getOp()) {
    case BinOp::Op::Add:
      if (B->flags().NSW && A.saddOverflow(C))
        return F.getPoison(B->type());
      if (B->flags().NUW && A.uaddOverflow(C))
        return F.getPoison(B->type());
      R = A.add(C);
      break;
    case BinOp::Op::Sub:
      R = A.sub(C);
      break;
    case BinOp::Op::Mul:
      R = A.mul(C);
      break;
    case BinOp::Op::UDiv:
      R = A.udiv(C);
      break;
    case BinOp::Op::SDiv:
      if (A == BitVec::signedMin(A.width()) && C.isAllOnes())
        return nullptr; // UB stays
      R = A.sdiv(C);
      break;
    case BinOp::Op::URem:
      R = A.urem(C);
      break;
    case BinOp::Op::SRem:
      R = A.srem(C);
      break;
    case BinOp::Op::Shl:
      if (C.uge(BitVec(C.width(), C.width())))
        return F.getPoison(B->type());
      R = A.shl(C);
      break;
    case BinOp::Op::LShr:
      if (C.uge(BitVec(C.width(), C.width())))
        return F.getPoison(B->type());
      R = A.lshr(C);
      break;
    case BinOp::Op::AShr:
      if (C.uge(BitVec(C.width(), C.width())))
        return F.getPoison(B->type());
      R = A.ashr(C);
      break;
    case BinOp::Op::And:
      R = A.bvand(C);
      break;
    case BinOp::Op::Or:
      R = A.bvor(C);
      break;
    case BinOp::Op::Xor:
      R = A.bvxor(C);
      break;
    }
    return F.getConstInt(B->type(), R);
  }

  static uint64_t evalICmp(ICmp::Pred P, const BitVec &A, const BitVec &B) {
    switch (P) {
    case ICmp::Pred::EQ:
      return A == B;
    case ICmp::Pred::NE:
      return A != B;
    case ICmp::Pred::UGT:
      return A.ugt(B);
    case ICmp::Pred::UGE:
      return A.uge(B);
    case ICmp::Pred::ULT:
      return A.ult(B);
    case ICmp::Pred::ULE:
      return A.ule(B);
    case ICmp::Pred::SGT:
      return A.sgt(B);
    case ICmp::Pred::SGE:
      return A.sge(B);
    case ICmp::Pred::SLT:
      return A.slt(B);
    case ICmp::Pred::SLE:
      return A.sle(B);
    }
    return 0;
  }
};

} // namespace

std::unique_ptr<Pass> opt::createInstCombine() {
  return std::make_unique<InstCombinePass>();
}
std::unique_ptr<Pass> opt::createInstSimplify() {
  return std::make_unique<InstSimplifyPass>();
}
std::unique_ptr<Pass> opt::createConstFold() {
  return std::make_unique<ConstFoldPass>();
}
